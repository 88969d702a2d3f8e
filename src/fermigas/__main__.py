"""Process entry point: the ``fermigas`` command and ``python -m fermigas``.

OpenBLAS sizes its thread pool when numpy first loads it, so the thread cap
(``--threads N``, ``--threads=N`` or ``FERMIGAS_THREADS``) is written to the
environment here, before ``fermigas.cli`` imports numpy. ``python -m
fermigas.cli`` applies it at the top of that module. Sweep children run in
the same process, and any subprocess inherits the environment.
"""

import os
import sys


def apply_thread_cap(argv: list[str]):
    """Set the OpenMP/OpenBLAS/MKL thread counts from the top-level
    ``--threads`` value in argv, else from ``FERMIGAS_THREADS``."""
    cap = os.environ.get("FERMIGAS_THREADS")
    for idx, arg in enumerate(argv):
        if arg == "--threads" and idx + 1 < len(argv):
            cap = argv[idx + 1]
        elif arg.startswith("--threads="):
            cap = arg.partition("=")[2]
        elif arg.startswith("-"):
            continue
        break  # --threads, or the subcommand, whose arguments follow
    if cap is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = cap


def main() -> int:
    apply_thread_cap(sys.argv[1:])
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())

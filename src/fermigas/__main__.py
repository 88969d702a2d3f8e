"""Process entry point: the ``fermigas`` command and ``python -m fermigas``.

OpenBLAS sizes its thread pool when numpy first loads it, so the thread cap
(``--threads N``, ``--threads=N`` or ``FERMIGAS_THREADS``) is written to the
environment here, before ``fermigas.cli`` imports numpy. ``python -m
fermigas.cli`` applies it at the top of that module. Sweep children run in
the same process, and any subprocess inherits the environment. The cap is
also written back to ``FERMIGAS_THREADS``, which the Monte Carlo's worker
count reads through ``thread_cap``.
"""

import os
import sys

from .errors import ValidationError


def _positive(value: str) -> bool:
    return value.strip().isdecimal() and int(value) >= 1


def thread_cap() -> int | None:
    """The ``FERMIGAS_THREADS`` cap, None when it is unset.

    Raises ValidationError when it is set to anything but a positive integer.
    """
    value = os.environ.get("FERMIGAS_THREADS")
    if value is None:
        return None
    if not _positive(value):
        raise ValidationError(f"FERMIGAS_THREADS must be a positive integer, got {value!r}")
    return int(value)


def apply_thread_cap(argv: list[str]):
    """Set the OpenMP/OpenBLAS/MKL thread counts and ``FERMIGAS_THREADS`` from
    the top-level ``--threads`` value in argv, else from ``FERMIGAS_THREADS``.

    A value that is not a positive integer is left unwritten; ``cli.main``
    rejects it with exit 2.
    """
    cap = os.environ.get("FERMIGAS_THREADS")
    for idx, arg in enumerate(argv):
        if arg == "--threads" and idx + 1 < len(argv):
            cap = argv[idx + 1]
        elif arg.startswith("--threads="):
            cap = arg.partition("=")[2]
        elif arg.startswith("-"):
            continue
        break  # --threads, or the subcommand, whose arguments follow
    if cap is not None and _positive(cap):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "FERMIGAS_THREADS"):
            os.environ[var] = str(int(cap))


def main() -> int:
    apply_thread_cap(sys.argv[1:])
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())

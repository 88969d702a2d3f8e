"""Run one command and print its exit code, wall time, peak RSS and CPU time.

A child's peak RSS as the kernel reports it includes the RSS of the process
that spawned it, at the moment of the spawn. The benchmark process holds
numpy and the package, so it starts each measured command through this
small launcher (run with ``python3 -S``) and reads the figures it prints.

    python3 -S bench/launch.py LOG_FILE PROGRAM [ARG ...]
"""

import json
import os
import sys
import time


def main() -> int:
    log_path, argv = sys.argv[1], sys.argv[2:]
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            argv[0], argv, os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)],
        )
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - start
    finally:
        os.close(fd)
    print(json.dumps({
        "exit_code": os.waitstatus_to_exitcode(status),
        "s": elapsed,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

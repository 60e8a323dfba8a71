import os
import sys

from .cli import main


def run() -> int:
    """``main`` as a process: after a failed write to stdout (a closed pipe),
    which ``main`` reports as a configuration error, the bytes still buffered
    would fail again at interpreter exit, so stdout is pointed at devnull."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(run())

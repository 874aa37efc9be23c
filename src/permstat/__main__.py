"""
The program entry of ``python -m permstat`` and of the ``permstat`` script.

run() calls cli.main(), then gc.freeze(): the interpreter's collections at
exit would otherwise scan every object the command left, all of which the
OS reclaims anyway.  Normal finalization (stream flushes, atexit handlers)
still runs.  cli.main() itself changes no collector state, so in-process
callers keep theirs.
"""
import gc
import sys

from .cli import main


def run() -> int:
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())

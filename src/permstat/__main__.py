"""
The program entry of ``python -m permstat`` and of the ``permstat`` script.

run() calls cli.main(), then gc.freeze(): the interpreter's collections at
exit would otherwise scan every object the command left, all of which the
OS reclaims anyway.  Normal finalization (stream flushes, atexit handlers)
still runs.  cli.main() itself changes no collector state, so in-process
callers keep theirs.

A reader that closes stdout early (``permstat avoid ... | head -2``) makes
the command exit 1 with nothing on stderr: run() flushes stdout itself, so
the broken pipe surfaces here rather than at exit, and then points stdout
at os.devnull so the interpreter's own flush at exit cannot fail again.
cli.main() still raises BrokenPipeError to in-process callers.
"""
import gc
import os
import sys

from .cli import EXIT_ERROR, main


def run() -> int:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())

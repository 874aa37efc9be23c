"""``python -m permstat``: runs the program entry, ``permstat.cli.run``."""
import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())

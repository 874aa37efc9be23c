"""Run the permstat CLI in this process and fail if its peak RSS reaches a ceiling.

Usage: python .github/peak_rss.py CEILING_MB ARGS...

ARGS are the CLI's own arguments; permstat must be importable (PYTHONPATH=src).
Prints the peak resident set size to stderr and exits with the CLI's code, or
1 when the CLI succeeded but its peak reached CEILING_MB.
"""
import resource
import sys

from permstat.cli import main

ceiling_mb = int(sys.argv[1])
rc = main(sys.argv[2:])
kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"peak RSS {kb / 1024:.1f} MB", file=sys.stderr)
sys.exit(rc or kb >= ceiling_mb * 1024)

"""The process entry of `python -m latcount` and of the `latcount` script.

A report is one short-lived process, and everything imported on the way to
it (site, the standard library, latcount's modules and tables) lives until
the process exits.  main() moves that heap to the collector's permanent
generation, so no collection, the one at interpreter shutdown included,
walks it again.  `cli.entry` never touches the collector: tests and library
callers run it inside their own long-lived processes.
"""

import gc
import sys

from .cli import entry


def main() -> int:
    gc.freeze()
    return entry()


if __name__ == "__main__":
    sys.exit(main())

"""``python -m finlap``: the command-line interface of :mod:`finlap.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

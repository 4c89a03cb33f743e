"""``python -m poslab``: the command-line interface of ``poslab.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

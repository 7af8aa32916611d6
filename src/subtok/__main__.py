"""`python -m subtok`: the `subtok` command line."""

import sys

from subtok.cli import main

if __name__ == "__main__":
    sys.exit(main())

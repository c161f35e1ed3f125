"""`python -m moistpe`: the same command line as the installed `moistpe`."""

import sys

from .cli import main

sys.exit(main())

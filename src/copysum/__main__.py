"""``python -m copysum``: the command line, as installed as ``copysum``."""

import sys

from .cli import main

sys.exit(main())

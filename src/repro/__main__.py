"""``python -m repro`` entry point."""

import sys

from repro.cli import run

sys.exit(run())

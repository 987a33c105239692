"""Puts ``src/`` on the import path, as ``run.py`` does."""

import os
import sys

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src"))
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

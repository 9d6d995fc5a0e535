"""Puts this directory on sys.path, so that test modules import the
Fraction references of fraction_reference.py under any pytest import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

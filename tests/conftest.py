"""Shared test setup.

The `pythonpath` setting in pyproject.toml puts `src/` on the path of the
pytest process only; the tests that run `python -m thetanulls.cli` in a
subprocess need it in PYTHONPATH as well to work from a checkout.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

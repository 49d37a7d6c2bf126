"""Locate and import the telebalance sources of the checkout the benchmark
lives in, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = SRC / "telebalance" / "configs"


class ProgramMissing(RuntimeError):
    """The checkout holds no telebalance sources to benchmark."""


def import_program():
    """Put the checkout's src/ first on sys.path and import telebalance.

    Raises ProgramMissing when the sources are absent or the import
    resolves outside the checkout.
    """
    if not (SRC / "telebalance" / "__init__.py").is_file():
        raise ProgramMissing(f"no telebalance sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import telebalance

    origin = Path(telebalance.__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"telebalance imported from {origin}, not {SRC}")
    return telebalance

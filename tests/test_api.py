"""The documented library API: every name that an import line in README.md
takes from telebalance must import, so trimming the package's exports
cannot break the README's examples unnoticed."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
IMPORT_RE = re.compile(r"^\s*from (telebalance[\w.]*) import (.+)$", re.MULTILINE)


def documented_imports() -> list[tuple[str, str]]:
    text = README.read_text(encoding="utf-8")
    return [(m.group(1), name.split(" as ")[0].strip(" ()"))
            for m in IMPORT_RE.finditer(text) for name in m.group(2).split(",")]


def test_readme_documents_the_top_level_api():
    assert {("telebalance", n) for n in
            ("gallop_scenario", "ble_scenario", "run_episode")} \
        <= set(documented_imports())


@pytest.mark.parametrize("module, name", documented_imports())
def test_readme_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)

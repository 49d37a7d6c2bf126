"""The documented library API: every name that an import line in README.md
takes from telebalance must import, and every sweep path the README names
must resolve, so the README's examples cannot break unnoticed. The names
the benchmark's layer tracer wraps must stay module globals of the engine."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from telebalance.config import SCHEMA, load_scenario, set_by_path

README = Path(__file__).parent.parent / "README.md"
SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"
IMPORT_RE = re.compile(r"^\s*from (telebalance[\w.]*) import (.+)$", re.MULTILINE)
# a config-file 'section.key' name, as --param takes it or quoted in backticks
PARAM_RE = re.compile(r"(?:--param |`)((?:%s)\.\w+)" % "|".join(SCHEMA))


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


def documented_param_paths() -> list[str]:
    return sorted(set(PARAM_RE.findall(README.read_text(encoding="utf-8"))))


def test_readme_documents_section_paths():
    assert {"mac.extra_delay", "loss.default_loss", "scenario.episode_duration"} \
        <= set(documented_param_paths())


@pytest.mark.parametrize("path", documented_param_paths())
def test_readme_param_path_resolves(config_dir, path):
    cfg = load_scenario(config_dir / "gallop_default.cfg")
    assert set_by_path(cfg, path, 1) != cfg


def test_every_traced_seam_is_an_engine_global():
    # perfbench/spans.py skips a seam telebalance.sim no longer has, which
    # would drop that layer's metrics without failing any run
    seams = [ast.literal_eval(node.value)
             for node in ast.parse(SPANS.read_text(encoding="utf-8")).body
             if isinstance(node, ast.Assign)
             and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SEAMS"]]
    assert len(seams) == 1 and seams[0]
    sim = importlib.import_module("telebalance.sim")
    for name in seams[0]:
        assert callable(getattr(sim, name, None)), name

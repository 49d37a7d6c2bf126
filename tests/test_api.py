"""The documented library API: every name that an import line in README.md
takes from telebalance must import, every sweep path the README names
must resolve, every config line it shows must parse, and every key of
every section must be named, so the README's examples cannot break, nor
a key go undocumented, unnoticed. The names
the benchmark's layer tracer wraps must stay module globals of the engine,
and what the benchmark reads of an episode must stay readable."""

import ast
import importlib
import importlib.util
import json
import re
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from telebalance import plant, sim
from telebalance.config import SCHEMA, _read_sections, load_scenario, set_by_path

README = Path(__file__).parent.parent / "README.md"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"
SPANS = PERFBENCH / "spans.py"
IMPORT_RE = re.compile(r"^\s*from (telebalance[\w.]*) import (.+)$", re.MULTILINE)
# a config-file 'section.key' name, as --param takes it or quoted in backticks
PARAM_RE = re.compile(r"(?:--param |`)((?:%s)\.\w+)" % "|".join(SCHEMA))
FENCE_RE = re.compile(r"^```\w*\n(.*?)^```", re.MULTILINE | re.DOTALL)
# a config line quoted inline, such as `channel_count = 36`
INLINE_SETTING_RE = re.compile(r"`(\w+) = ([^`]+)`")


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


def param_paths(text: str) -> list[str]:
    """The sweep paths a text names. [plant] is the one section that shares
    a module's name, so plant.py and a name of telebalance.plant
    (plant._rk4_span) are not paths; any other plant.<word> is, a typo too."""
    return sorted({path for path in PARAM_RE.findall(text)
                   if not (path.startswith("plant.")
                           and (path[6:] == "py" or hasattr(plant, path[6:])))})


def documented_param_paths() -> list[str]:
    return param_paths(README.read_text(encoding="utf-8"))


def test_module_names_are_not_param_paths():
    text = ("`plant.py` runs `plant._rk4_span`; sweep `plant.body_mas` or\n"
            "--param mac.extra_delay, and `plant.body_mass`")
    assert param_paths(text) == ["mac.extra_delay", "plant.body_mas", "plant.body_mass"]


def test_readme_documents_section_paths():
    assert {"mac.extra_delay", "loss.default_loss", "scenario.episode_duration"} \
        <= set(documented_param_paths())


@pytest.mark.parametrize("path", documented_param_paths())
def test_readme_param_path_resolves(config_dir, path):
    # 1 moves any key but one the config already holds at 1 (seed = 1),
    # which 2 moves, and the slot count, at least 2 and held at 2, which 3
    # moves; a path that moves nothing fails on either
    cfg = load_scenario(config_dir / "gallop_default.cfg")
    if path == "mac.slots_per_superframe":
        value = 3
    else:
        value = 2 if set_by_path(cfg, path, 1) == cfg else 1
    assert set_by_path(cfg, path, value) != cfg


def documented_settings() -> list[tuple[str | None, str, str]]:
    """(section, key, value) of each 'key = value' line README.md shows: in
    a fenced block under a [section] line, or inline in backticks, with the
    section None."""
    text = README.read_text(encoding="utf-8")
    found = []
    for block in FENCE_RE.findall(text):
        section = None
        for line in map(str.strip, block.splitlines()):
            if re.fullmatch(r"\[\w+\]", line):
                section = line[1:-1]
            elif section and "=" in line and not line.startswith("#"):
                key, _, value = (part.strip() for part in line.partition("="))
                found.append((section, key, value))
    return found + [(None, key, value.strip())
                    for key, value in INLINE_SETTING_RE.findall(text)]


def test_readme_shows_config_lines():
    # the fenced example and an inline line both reach the check below
    assert {("mac", "variant", "gallop"), (None, "channel_count", "36")} \
        <= set(documented_settings())


def documented_keys() -> set[str]:
    """The keys README.md names: quoted in backticks, alone or as the last
    part of a sweep path, or set by a config line it shows."""
    text = README.read_text(encoding="utf-8")
    return ({name.rpartition(".")[2] for name in re.findall(r"`([\w.]+)", text)}
            | {key for _, key, _ in documented_settings()})


@pytest.mark.parametrize("section", sorted(SCHEMA))
def test_readme_documents_every_key(section):
    assert set(SCHEMA[section]) - documented_keys() == set()


@pytest.mark.parametrize("section, key, value", documented_settings())
def test_readme_config_line_parses(tmp_path, section, key, value):
    # an inline line names no section: it goes in the one with its key
    if section is None:
        section = next((name for name, keys in SCHEMA.items() if key in keys), None)
        assert section, f"{key!r} is no key of any section"
    # the config reader checks the key and reads the value by its kind
    path = tmp_path / "line.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    assert key in _read_sections(path)[0][section]


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


def import_perfbench(name: str, monkeypatch):
    """A perfbench module, imported from its file under its own name, as
    the benchmark has it; it leaves sys.modules when the test ends."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config", ["gallop_default.cfg", "ble_default.cfg"])
def test_benchmark_reads_every_seam_of_an_episode(config_dir, monkeypatch, config):
    # a seam whose value the tracer cannot read (a renamed
    # DeliveryOutcome.delivered, say) drops its layer's metrics silently
    import_perfbench("program", monkeypatch)  # workloads imports it
    spans = import_perfbench("spans", monkeypatch)
    workloads = import_perfbench("workloads", monkeypatch)
    cfg = replace(load_scenario(config_dir / config), episode_duration=1.0)
    with spans.LayerTracer(sim) as tracer:
        trace, _ = sim.run_episode(cfg)
        sim.trace_to_csv(trace)
    assert [name for name in spans.SEAMS if not tracer.calls[name]] == []
    assert tracer.unreadable == set()
    assert workloads.episode_problems(cfg, trace) == []


# Bound fixed before measuring, 100 B a cycle: the lists of times and
# latencies the check keeps take about 72 B a cycle, and a trace of
# CycleRecord tuples took 256 B a cycle
# (test_sim.TestTraceMemory.test_bytes_per_cycle)
EPISODE_CHECK_PEAK_BYTES = 500_000


def test_benchmark_episode_check_reads_records_in_place(config_dir, monkeypatch):
    import_perfbench("program", monkeypatch)
    workloads = import_perfbench("workloads", monkeypatch)
    cfg = replace(load_scenario(config_dir / "gallop_default.cfg"),
                  episode_duration=10.0)
    trace, _ = sim.run_episode(cfg)
    assert len(trace.t) == 5000
    tracemalloc.start()
    try:
        problems = workloads.episode_problems(cfg, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == []
    assert peak < EPISODE_CHECK_PEAK_BYTES


# per seam: calls in one traced 1 s episode, then substeps and closed cycles
LAYER_COUNTS = {
    "gallop_default.cfg": ({"_rk4_span": 500, "transmit": 1000,
                            "sample_sensors": 500, "estimate_tilt": 500,
                            "compute_command": 500}, 2000, 500),
    "ble_default.cfg": ({"_rk4_span": 399, "transmit": 267,
                         "sample_sensors": 134, "estimate_tilt": 133,
                         "compute_command": 133}, 2232, 132),
}


@pytest.mark.parametrize("config", sorted(LAYER_COUNTS))
def test_traced_layer_counts_of_an_episode(config_dir, monkeypatch, config):
    # the benchmark's per-layer counts compare two versions of the engine
    # only while the engine makes the same calls
    spans = import_perfbench("spans", monkeypatch)
    cfg = replace(load_scenario(config_dir / config), episode_duration=1.0)
    with spans.LayerTracer(sim) as tracer:
        sim.run_episode(cfg)
    calls, substeps, cycles = LAYER_COUNTS[config]
    assert {name: tracer.calls[name] for name in calls} == calls
    assert (tracer.substeps, tracer.cycles) == (substeps, cycles)


# per_layer metrics that perfbench/run.py measures itself, not the tracer
RUN_LAYER_METRICS = {"setup.import_s", "config.load_s", "trace.overhead_frac"}


def test_every_workload_reports_every_traced_layer(monkeypatch):
    # a seam folded into another (estimate_tilt into compute_command, say)
    # leaves the benchmark's per-layer report short without failing a run
    import_perfbench("program", monkeypatch)
    spans = import_perfbench("spans", monkeypatch)
    workloads = import_perfbench("workloads", monkeypatch)
    wanted = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    wanted -= RUN_LAYER_METRICS
    for workload in workloads.WORKLOADS:
        scenarios = [replace(cfg, episode_duration=0.2)
                     for cfg in workloads.build(workload, seed=7)]
        with spans.LayerTracer(sim) as tracer:
            t0 = time.perf_counter()
            result = workloads.call(workload, scenarios, workers=1)
            call_s = time.perf_counter() - t0
            workloads.render(workload, result)
            if not tracer.calls["trace_to_csv"]:
                # as perfbench/run.py does: a batch renders no trace
                sim.trace_to_csv(tracer.last_trace)
            report = tracer.metrics(call_s)
        assert tracer.unreadable == set(), workload
        assert sorted(wanted - report.keys()) == [], workload

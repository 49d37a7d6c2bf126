"""Line trace of the owned traffic: python tests/traffic.py. Runs the
perfbench workloads, README's three commands and its library snippet
(episodes capped at 5 s) under sys.settrace, then prints its run time and
each function-body line of src/telebalance/ never run. Writes nothing
under the checkout; not collected by pytest."""
import sys
sys.dont_write_bytecode = True
import inspect, tempfile, threading, time  # noqa: E401,E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "telebalance"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
ran: dict[str, set[int]] = {}


def line(frame, event, arg):
    if event == "line":
        ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return line


def tracer(frame, event, arg):
    return line if frame.f_code.co_filename.startswith(str(PKG)) else None


def body_lines(code) -> set[int]:
    """The lines of the function bodies in code, def lines left out."""
    own = {n for _, _, n in code.co_lines() if n and n != code.co_firstlineno} \
        if code.co_flags & inspect.CO_OPTIMIZED else set()
    return own.union(*(body_lines(c) for c in code.co_consts if inspect.iscode(c)))


start = time.perf_counter()
sys.settrace(tracer)
threading.settrace(tracer)
import workloads  # noqa: E402
from telebalance import ble_scenario, cli, gallop_scenario, run_episode  # noqa: E402
from telebalance.sim import compare_scenarios  # noqa: E402

for w in workloads.WORKLOADS:  # build, call, render, checked_pass
    cfgs = [replace(c, episode_duration=min(c.episode_duration, 5.0))
            for c in workloads.build(w, 1)]
    workloads.render(w, workloads.call(w, cfgs, workers=1))
    workloads.checked_pass(w, cfgs)
with tempfile.TemporaryDirectory() as tmp:
    cfg = {name: Path(tmp, f"{name}.cfg")
           for name in ("gallop_default", "ble_default", "delay_sweep")}
    for path in cfg.values():
        path.write_text((PKG / "configs" / path.name).read_text()
                        .replace("= 60 s", "= 5 s").replace("= 20 s", "= 5 s"))
    for argv in (["run", cfg["gallop_default"]],
                 ["compare", "--scenario", cfg["gallop_default"], "--scenario",
                  cfg["ble_default"], "--seeds", "10"],
                 ["sweep", cfg["delay_sweep"], "--param", "mac.extra_delay",
                  "--values", "0ms,2ms,5ms,8ms,12ms,16ms", "--seeds", "3"]):
        assert cli.main([*map(str, argv), "--out", f"{tmp}/out_{argv[0]}"]) == 0
trace, metrics = run_episode(gallop_scenario(seed=7, episode_duration=5.0))
results = compare_scenarios([gallop_scenario(episode_duration=5.0),
                             ble_scenario(episode_duration=5.0)],
                            seeds=list(range(10)), workers=2)
sys.settrace(None)
threading.settrace(None)

print(f"traffic ran in {time.perf_counter() - start:.1f} s")
for path in sorted(PKG.glob("*.py")):
    source = path.read_text()
    never = body_lines(compile(source, str(path), "exec")) - ran.get(str(path), set())
    for n in sorted(never):
        print(f"{path.name}:{n}: {source.splitlines()[n - 1].strip()}")

"""Experiment front end: run one episode, sweep a parameter, or compare
scenarios, writing CSV and plot-data artifacts.

Exit codes: 0 success (a fallen robot is a result, not a failure),
1 I/O failure, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from .config import _ANGLE_UNITS, _DURATION_UNITS, ConfigError, load_scenario
from .control import TuningFailureError
from .sim import (
    compare_scenarios,
    failure_threshold,
    metrics_to_text,
    run_episode,
    run_sweep,
    trace_to_csv,
)
from .wireless import InvalidConfigError

# sweep values take the config file's unit suffixes, or none
_UNIT_FACTOR = {None: 1.0, **_DURATION_UNITS, **_ANGLE_UNITS}
_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*("
                          + "|".join(u for u in _UNIT_FACTOR if u) + r")?\s*$")


def _parse_values(text: str) -> list[float]:
    values = []
    for item in text.split(","):
        m = _QUANTITY_RE.match(item)
        if not m:
            raise ValueError(f"cannot parse sweep value {item.strip()!r}")
        values.append(float(m.group(1)) * _UNIT_FACTOR[m.group(2)])
    return values


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    trace, metrics = run_episode(cfg)
    out = Path(args.out)
    _write(out / "trace.csv", trace_to_csv(trace))
    _write(out / "metrics.txt", metrics_to_text(metrics))
    print(f"episode done: fell={metrics.fell} "
          f"balanced={metrics.balanced_duration:g} s, wrote {out}/trace.csv")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.scenario) < 2:
        print("compare needs at least two --scenario files", file=sys.stderr)
        return 2
    if args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    cfgs = [load_scenario(p) for p in args.scenario]
    results = compare_scenarios(cfgs, seeds=list(range(args.seeds)),
                                workers=args.workers)
    out = Path(args.out)

    header = ("label,seeds,fall_fraction,mean_balanced_duration_s,"
              "mean_rms_tilt_rate_deg_s,mean_max_abs_tilt_deg,"
              "mean_latency_mean_ms,mean_latency_variance_ms2,"
              "mean_latency_p99_ms,mean_drop_rate")
    rows = [header]
    for r in results:
        fall = sum(m.fell for m in r.metrics) / len(r.metrics)
        rows.append(",".join((
            r.label, str(len(r.metrics)), repr(fall),
            repr(r.mean("balanced_duration")), repr(r.mean("rms_tilt_rate")),
            repr(r.mean("max_abs_tilt")), repr(r.mean("latency_mean")),
            repr(r.mean("latency_variance")), repr(r.mean("latency_p99")),
            repr(r.mean("drop_rate")),
        )))
    _write(out / "comparison.csv", "\n".join(rows) + "\n")

    for r in results:
        data = "".join(f"{rec.t!r} {rec.tilt_rate!r}\n" for rec in r.trace.records)
        _write(out / f"{r.label}_trace.dat", data)
    plot = [
        "set terminal pngcairo size 1000,500",
        "set output 'comparison.png'",
        "set xlabel 'time [s]'",
        "set ylabel 'tilt rate [deg/s]'",
        "plot " + ", \\\n     ".join(
            f"'{r.label}_trace.dat' using 1:2 with lines title '{r.label}'"
            for r in results),
        "",
    ]
    _write(out / "plot.gp", "\n".join(plot))
    for r in results:
        print(f"{r.label}: mean rms tilt rate "
              f"{r.mean('rms_tilt_rate'):.3g} deg/s, latency variance "
              f"{r.mean('latency_variance'):.3g} ms^2")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _parse_values(args.values)
    if not values:
        print("empty --values list", file=sys.stderr)
        return 2
    if args.seeds < 3:
        print("--seeds must be >= 3 for a sweep", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    base = load_scenario(args.config)
    points = run_sweep(base, args.param, values, seeds_per_point=args.seeds,
                       workers=args.workers)
    out = Path(args.out)
    rows = ["value,mean_rms_tilt_rate,fall_fraction,stderr"]
    rows += [",".join((repr(p.value), repr(p.mean_rms_tilt_rate),
                       repr(p.fall_fraction), repr(p.stderr)))
             for p in points]
    _write(out / "sweep.csv", "\n".join(rows) + "\n")
    threshold = failure_threshold(points)
    if threshold is not None:
        print(f"smallest {args.param} with fall fraction >= 0.5: {threshold!r}")
    else:
        print(f"no swept {args.param} value reached fall fraction 0.5")
    return 0


_WORKERS_HELP = "episodes run in this many processes at once (default 1)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telebalance",
        description="Co-simulate a remotely balanced robot over wireless links.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one episode from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several scenarios over shared seeds")
    p_cmp.add_argument("--scenario", action="append", default=[],
                       help="config file; give at least twice")
    p_cmp.add_argument("--seeds", type=int, default=10)
    p_cmp.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_cmp.add_argument("--out", default="out")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="sweep one numeric config parameter")
    p_swp.add_argument("config")
    p_swp.add_argument("--param", required=True,
                       help="dotted path, e.g. mac.extra_delay")
    p_swp.add_argument("--values", required=True,
                       help="comma list, unit suffixes allowed (0ms,2ms,...)")
    p_swp.add_argument("--seeds", type=int, default=3)
    p_swp.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_swp.add_argument("--out", default="out")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidConfigError, TuningFailureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

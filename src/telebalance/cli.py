"""Experiment front end: run one episode, sweep a parameter, or compare
scenarios, writing CSV and plot-data artifacts.

Exit codes: 0 success (a fallen robot is a result, not a failure),
1 I/O failure, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_scenario, parse_sweep_values
from .sim import (
    METRIC_NAMES,
    compare_scenarios,
    failure_threshold,
    metrics_to_text,
    run_episode,
    run_sweep,
    trace_to_csv,
)

def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.config)
    trace, metrics = run_episode(cfg)
    out = Path(args.out)
    _write(out / "trace.csv", trace_to_csv(trace))
    _write(out / "metrics.txt", metrics_to_text(metrics))
    print(f"episode done: fell={metrics.fell} "
          f"balanced={metrics.balanced_duration:g} s, wrote {out}/trace.csv")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfgs = [load_scenario(p) for p in args.scenario]
    results = compare_scenarios(cfgs, seeds=list(range(args.seeds)),
                                workers=args.workers)
    out = Path(args.out)

    # the fall fraction first, then the mean of every other metric
    means = [field for field in METRIC_NAMES if field != "fell"]
    rows = [["label", "seeds", "fall_fraction",
             *(f"mean_{METRIC_NAMES[field]}" for field in means)]]
    rows += [[r.label, str(len(r.metrics)),
              *(repr(r.mean(field)) for field in ("fell", *means))]
             for r in results]
    _write(out / "comparison.csv", "".join(",".join(row) + "\n" for row in rows))

    for r in results:
        data = "".join(f"{t!r} {rate!r}\n"
                       for t, rate in zip(r.trace.t, r.trace.tilt_rate))
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
    values = parse_sweep_values(args.param, args.values)
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


def _at_least(low: int):
    """argparse type: an int no less than low; argparse names the flag."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


_WORKERS_HELP = "episodes run in this many processes at once (default 1)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telebalance",
        description="Co-simulate a remotely balanced robot over wireless links.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one episode from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several scenarios over shared seeds")
    p_cmp.add_argument("--scenario", action="append", default=[],
                       help="config file; give at least twice")
    p_cmp.add_argument("--seeds", type=_at_least(1), default=10)
    p_cmp.add_argument("--workers", type=_at_least(1), default=1, help=_WORKERS_HELP)
    p_cmp.add_argument("--out", default="out")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="sweep one numeric config parameter")
    p_swp.add_argument("config")
    p_swp.add_argument("--param", required=True,
                       help="dotted path, e.g. mac.extra_delay")
    p_swp.add_argument("--values", required=True,
                       help="comma list; a unit must fit the key (0ms,2ms,...), "
                       "a bare number is in s or rad")
    p_swp.add_argument("--seeds", type=_at_least(3), default=3)
    p_swp.add_argument("--workers", type=_at_least(1), default=1, help=_WORKERS_HELP)
    p_swp.add_argument("--out", default="out")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return exc.code
    try:
        return args.func(args)
    except ValueError as exc:  # a config or usage error, a tuning failure too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

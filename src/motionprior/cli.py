"""Command line interface.

Subcommands: simulate (scenario -> matches + ground truth), estimate
(rig + matches -> trajectory + diagnostics), landscape (energy grid dump),
eval (two trajectories -> segment error report).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure on
every frame.
"""

from __future__ import annotations

import argparse
import json
import sys

from .estimator import EstimatorOptions, LandscapeGrid, energy_landscape
from .evaluation import TrajectoryTooShort, evaluate
from .geometry import DegenerateTranslation, GeometryError
from .io_formats import (NoRecords, ParseError, load_matches, load_rig,
                         load_scale, load_scenario, load_trajectory,
                         parse_keyvalues, write_matches, write_scale,
                         write_trajectory)
from .manifold import MotionParams
from .metrics import MetricKind, RobustLoss
from .pipeline import (FixedScale, FreeInCurves, match_sets_from_record,
                       run_sequence, simulate_sequence)
from .simulate import NoVisiblePoints

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DATA_ERRORS = (ParseError, NoRecords, NoVisiblePoints, TrajectoryTooShort,
               FileNotFoundError, IsADirectoryError, PermissionError,
               ValueError, KeyError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures map to exit code 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(prog="motionprior")
    parser.add_argument("--config", help="key=value file of default flags")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a scenario to files")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--out-matches", required=True)
    sim.add_argument("--out-truth", required=True)
    sim.add_argument("--out-scale")
    sim.add_argument("--seed", type=int, help="override the scenario seed")

    est = sub.add_parser("estimate", help="estimate a trajectory")
    est.add_argument("--rig", required=True)
    est.add_argument("--matches", required=True)
    est.add_argument("--out-trajectory", required=True)
    est.add_argument("--diagnostics")
    est.add_argument("--scale", help="per-frame arc length file")
    est.add_argument("--free-in-curves", action="store_true")
    est.add_argument("--initial-scale", type=float, default=1.0)
    est.add_argument("--metric", choices=["angleplane", "geoline"],
                     default="angleplane")
    est.add_argument("--loss", choices=["cauchy", "none", "huber", "tukey"],
                     default="cauchy")
    est.add_argument("--loss-width", type=float, default=0.0065)
    est.add_argument("--max-iterations", type=int, default=100)

    land = sub.add_parser("landscape", help="dump an energy grid as CSV")
    land.add_argument("--scenario")
    land.add_argument("--rig")
    land.add_argument("--matches")
    land.add_argument("--pair-index", type=int, default=0,
                      help="frame pair to evaluate, from 0")
    land.add_argument("--out", required=True)
    land.add_argument("--yaw-min", type=float, default=-0.3)
    land.add_argument("--yaw-max", type=float, default=0.3)
    land.add_argument("--yaw-steps", type=int, default=41)
    land.add_argument("--arc-min", type=float, default=0.5)
    land.add_argument("--arc-max", type=float, default=2.0)
    land.add_argument("--arc-steps", type=int, default=41)
    land.add_argument("--metric", choices=["angleplane", "geoline"],
                      default="angleplane")
    land.add_argument("--percent", action="store_true",
                      help="normalize cells to percent of the maximum")

    ev = sub.add_parser("eval", help="compare trajectories")
    ev.add_argument("--est", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--lengths", default="100,200,300,400,500,600,700,800")
    ev.add_argument("--out", help="CSV report path")
    return parser, sub.choices


def _config_value(action, value, path, lineno):
    """A config file's value for the flag `action`, converted as argparse
    would convert it on the command line."""
    if action.nargs == 0:           # store_true
        if value not in ("true", "false"):
            raise ParseError(path, lineno,
                             f"{action.dest} takes true or false")
        return action.const if value == "true" else action.default
    try:
        value = value if action.type is None else action.type(value)
    except ValueError as exc:
        raise ParseError(path, lineno, str(exc))
    if action.choices is not None and value not in action.choices:
        raise ParseError(path, lineno, f"{action.dest} must be one of "
                         f"{', '.join(action.choices)}")
    return value


def _apply_config(commands, argv):
    """Pre-scan --config and install each key as a default of the
    subcommands that have that flag; explicit flags win because they are
    parsed afterwards."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config needs a file argument")
    path = argv[idx + 1]
    for key, (value, lineno) in parse_keyvalues(path).items():
        dest = key.replace("-", "_")
        flags = [(command, action) for command in commands.values()
                 for action in command._actions
                 if action.dest == dest and action.option_strings
                 and action.default is not argparse.SUPPRESS]
        if not flags:
            raise ParseError(path, lineno,
                             f"{key} is a flag of no subcommand")
        for command, action in flags:
            action.required = False     # the config supplies it
            command.set_defaults(
                **{dest: _config_value(action, value, path, lineno)})
    return argv[:idx] + argv[idx + 2:]


def _options_from_args(args) -> EstimatorOptions:
    metric = MetricKind(args.metric)
    loss = RobustLoss(args.loss, float(args.loss_width))
    return EstimatorOptions(metric=metric, loss=loss,
                            max_iterations=int(args.max_iterations))


def _cmd_simulate(args):
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed {args.seed} must be non-negative")
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace
        scenario = replace(scenario,
                           scene=replace(scenario.scene, seed=args.seed),
                           noise=replace(scenario.noise, seed=args.seed + 1))
    records, truth_traj, scales = simulate_sequence(scenario)
    write_matches(records, args.out_matches)
    write_trajectory(truth_traj, args.out_truth)
    if args.out_scale:
        write_scale(scales, args.out_scale)
    print(f"wrote {len(records)} frame pairs "
          f"({sum(r.match_count() for r in records)} matches)")
    return EXIT_OK


def _cmd_estimate(args):
    rig = load_rig(args.rig)
    records = load_matches(args.matches)
    if args.scale:
        scale_source = FixedScale(load_scale(args.scale))
    elif args.free_in_curves:
        scale_source = FreeInCurves(initial=args.initial_scale)
    else:
        scale_source = FixedScale([args.initial_scale] * len(records))
    opts = _options_from_args(args)
    trajectory, outcomes = run_sequence(rig, records, scale_source, opts)
    if all(o.failed for o in outcomes):
        print("estimation failed on every frame", file=sys.stderr)
        return EXIT_NUMERIC
    write_trajectory(trajectory, args.out_trajectory)
    if args.diagnostics:
        with open(args.diagnostics, "w", encoding="utf-8") as fh:
            for o in outcomes:
                record = {"t0": o.t0, "t1": o.t1, "yaw": o.params.yaw,
                          "arc_length": o.params.arc_length,
                          "pitch": o.params.pitch, "roll": o.params.roll,
                          "failed": o.failed, "error": o.error,
                          "runtime_ms": o.runtime_ms}
                if o.result is not None:
                    record.update(energy=o.result.final_energy,
                                  iterations=o.result.iterations,
                                  converged=o.result.converged,
                                  termination=o.result.termination,
                                  condition_note=o.result.condition_note,
                                  skipped_matches=o.result.skipped_matches)
                fh.write(json.dumps(record) + "\n")
    failed = sum(o.failed for o in outcomes)
    print(f"estimated {len(outcomes)} frame pairs ({failed} failed)")
    return EXIT_OK


def _cmd_landscape(args):
    if args.scenario:
        scenario = load_scenario(args.scenario)
        records, _, _ = simulate_sequence(scenario)
        rig = scenario.rig
        fixed = scenario.truth
    elif args.rig and args.matches:
        rig = load_rig(args.rig)
        records = load_matches(args.matches)
        fixed = MotionParams(yaw=0.0, arc_length=1.0)
    else:
        raise UsageError("landscape needs --scenario or --rig/--matches")
    if not 0 <= args.pair_index < len(records):
        raise UsageError(f"--pair-index {args.pair_index} is outside "
                         f"[0, {len(records)}): the input holds "
                         f"{len(records)} frame pairs")
    match_sets = match_sets_from_record(records[args.pair_index])
    grid = LandscapeGrid((args.yaw_min, args.yaw_max), args.yaw_steps,
                         (args.arc_min, args.arc_max), args.arc_steps)
    loss = RobustLoss("cauchy", 0.0065)
    land = energy_landscape(rig, match_sets, grid, fixed, loss,
                            MetricKind(args.metric), normalize=args.percent)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("yaw,arc_length,energy,degenerate\n")
        for i, g in enumerate(land.yaw_values):
            for j, l in enumerate(land.arc_values):
                fh.write(f"{float(g)!r},{float(l)!r},"
                         f"{float(land.energies[i, j])!r},"
                         f"{int(land.degenerate[i, j])}\n")
    print(f"wrote {land.energies.size} grid cells")
    return EXIT_OK


def _cmd_eval(args):
    est = load_trajectory(args.est)
    gt = load_trajectory(args.gt)
    lengths = [float(v) for v in args.lengths.split(",") if v.strip()]
    report = evaluate(est, gt, lengths)
    rows = [(length, bucket.count, bucket.mean_rotation,
             bucket.mean_translation)
            for length, bucket in sorted(report.length_buckets.items())]
    print(f"{'length_m':>10} {'segments':>9} {'rot_deg_per_m':>14} "
          f"{'trans_percent':>14}")
    for length, count, rot, trans in rows:
        print(f"{length:10.0f} {count:9d} {rot:14.6f} {trans:14.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("length_m,segments,rotation_deg_per_m,translation_percent\n")
            for length, count, rot, trans in rows:
                fh.write(f"{length!r},{count},{rot!r},{trans!r}\n")
    return EXIT_OK


COMMANDS = {"simulate": _cmd_simulate, "estimate": _cmd_estimate,
            "landscape": _cmd_landscape, "eval": _cmd_eval}


def run_cli(argv) -> int:
    parser, commands = _build_parser()
    try:
        argv = _apply_config(commands, list(argv))
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateTranslation, GeometryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

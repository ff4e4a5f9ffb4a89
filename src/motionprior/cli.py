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
import math
import os
import sys
from contextlib import closing
from functools import partial
from itertools import chain

from .estimator import EstimatorOptions, LandscapeGrid, energy_landscape
from .evaluation import (DEFAULT_LENGTHS, TrajectoryTooShort, check_lengths,
                         evaluate)
from .geometry import GeometryError
from .io_formats import (NoRecords, ParseError, _write_rows, iter_matches,
                         load_matches, load_rig, load_scale, load_scenario,
                         load_trajectory, write_matches, write_scale,
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

# landscape grids above this are a usage error, raised before any array is
# allocated; at this size a 281-match two-camera pair takes ~12 s on a
# 2-CPU host, peaks at ~83 MB RSS and writes a ~61 MB CSV
MAX_LANDSCAPE_CELLS = 1_000_000

DEFAULTS = EstimatorOptions()
METRICS = [kind.value for kind in MetricKind]

DATA_ERRORS = (ParseError, NoRecords, NoVisiblePoints, TrajectoryTooShort,
               OSError, ValueError, KeyError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant: usage failures exit 1, flags are taken in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(prog="motionprior")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a scenario to files")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--out-matches", required=True)
    sim.add_argument("--out-truth", required=True)
    sim.add_argument("--out-scale")

    est = sub.add_parser("estimate", help="estimate a trajectory")
    est.add_argument("--rig", required=True)
    est.add_argument("--matches", required=True)
    est.add_argument("--out-trajectory", required=True)
    est.add_argument("--diagnostics")
    est.add_argument("--scale", help="per-frame arc length file")
    est.add_argument("--free-in-curves", action="store_true")
    est.add_argument("--initial-scale", type=float)     # default 1.0
    est.add_argument("--metric", choices=METRICS,
                     default=DEFAULTS.metric.value)
    est.add_argument("--loss-width", type=float)    # default: per metric

    land = sub.add_parser("landscape", help="dump an energy grid as CSV")
    land.add_argument("--rig", required=True)
    land.add_argument("--matches", required=True)
    land.add_argument("--pair-index", type=int, default=0,
                      help="frame pair to evaluate, from 0")
    land.add_argument("--out", required=True)
    land.add_argument("--yaw-min", type=float, default=-0.3)
    land.add_argument("--yaw-max", type=float, default=0.3)
    land.add_argument("--yaw-steps", type=int, default=41)
    land.add_argument("--arc-min", type=float, default=0.5)
    land.add_argument("--arc-max", type=float, default=2.0)
    land.add_argument("--arc-steps", type=int, default=41)
    land.add_argument("--metric", choices=METRICS,
                      default=DEFAULTS.metric.value)

    ev = sub.add_parser("eval", help="compare trajectories")
    ev.add_argument("--est", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--lengths", type=_lengths, default=DEFAULT_LENGTHS)
    ev.add_argument("--out", help="CSV report path")
    return parser


def _lengths(text):
    """--lengths as a list; a bad length is a usage error, at parse time."""
    try:
        return check_lengths([float(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _check_cameras(rig, records, matches_path, rig_path):
    """ValueError naming both files on the first match line whose camera id
    the rig does not hold."""
    known = {cam.camera_id for cam in rig.cameras}
    for rec in records:
        for cam in rec.pixels:
            if cam not in known:
                raise ValueError(f"{matches_path}: camera id {cam} in frame "
                                 f"pair ({rec.t0}, {rec.t1}) is not in the "
                                 f"rig file {rig_path}")


def _json_number(x):
    """x, or None where strict JSON has no number for it (NaN, inf)."""
    return x if math.isfinite(x) else None


def _write_outputs(writes):
    """write(path) for each (path, write) with a path, in turn. On an
    OSError the regular files written so far are removed, the failing one
    too unless its open failed, and the error is raised naming its path."""
    done = []
    for path, write in writes:
        if path is not None:
            try:
                write(path)
            except OSError as exc:
                for old in done + [path] * (exc.filename is None):
                    if os.path.isfile(old) and not os.path.islink(old):
                        os.remove(old)
                exc.filename = path
                raise
            done.append(path)


def _diagnostic(o) -> dict:
    """The diagnostics record of a frame outcome, strict JSON once dumped."""
    record = {"t0": o.t0, "t1": o.t1, "yaw": o.params.yaw,
              "arc_length": o.params.arc_length, "pitch": o.params.pitch,
              "roll": o.params.roll, "failed": o.failed, "error": o.error,
              "runtime_ms": o.runtime_ms}
    if o.result is not None:
        record.update(energy=_json_number(o.result.final_energy),
                      iterations=o.result.iterations,
                      converged=o.result.converged,
                      termination=o.result.termination,
                      condition_note=o.result.condition_note,
                      sigma={f: _json_number(v)
                             for f, v in o.result.sigma.items()},
                      skipped_matches=o.result.skipped_matches)
    return record


def _cmd_simulate(args):
    records, truth_traj, scales = simulate_sequence(
        load_scenario(args.scenario))
    _write_outputs([(args.out_matches, partial(write_matches, records)),
                    (args.out_truth, partial(write_trajectory, truth_traj)),
                    (args.out_scale, partial(write_scale, scales))])
    print(f"wrote {len(records)} frame pairs "
          f"({sum(r.match_count() for r in records)} matches)")
    return EXIT_OK


def _cmd_estimate(args):
    if args.scale is not None and (args.free_in_curves
                                   or args.initial_scale is not None):
        raise UsageError("--scale fixes every arc length: it takes neither "
                         "--free-in-curves nor --initial-scale")
    initial = 1.0 if args.initial_scale is None else args.initial_scale
    rig = load_rig(args.rig)
    records = load_matches(args.matches)
    _check_cameras(rig, records, args.matches, args.rig)
    if args.scale is not None:
        scale_source = FixedScale(load_scale(args.scale))
    elif args.free_in_curves:
        scale_source = FreeInCurves(initial=initial)
    else:
        scale_source = FixedScale([initial] * len(records))
    metric = MetricKind(args.metric)
    opts = EstimatorOptions(metric, None if args.loss_width is None
                            else RobustLoss("cauchy", args.loss_width))
    trajectory, outcomes = run_sequence(rig, records, scale_source, opts)
    if all(o.failed for o in outcomes):
        print("estimation failed on every frame", file=sys.stderr)
        return EXIT_NUMERIC
    diagnostics = ([json.dumps(_diagnostic(o), allow_nan=False)]
                   for o in outcomes)
    _write_outputs([
        (args.out_trajectory, partial(write_trajectory, trajectory)),
        (args.diagnostics, partial(_write_rows, rows=diagnostics))])
    failed = sum(o.failed for o in outcomes)
    print(f"estimated {len(outcomes)} frame pairs ({failed} failed)")
    return EXIT_OK


def _cmd_landscape(args):
    for flag, steps in (("--yaw-steps", args.yaw_steps),
                        ("--arc-steps", args.arc_steps)):
        if steps < 1:
            raise UsageError(f"{flag} {steps} must be at least 1")
    if args.yaw_steps * args.arc_steps > MAX_LANDSCAPE_CELLS:
        raise UsageError(f"--yaw-steps {args.yaw_steps} x --arc-steps "
                         f"{args.arc_steps} exceeds {MAX_LANDSCAPE_CELLS} "
                         "grid cells")
    rig = load_rig(args.rig)
    # read up to the chosen pair; the pair count needs the whole file
    with closing(iter_matches(args.matches)) as records:
        for count, record in enumerate(records, 1):
            if count == args.pair_index + 1:
                break
        else:
            raise UsageError(f"--pair-index {args.pair_index} is outside "
                             f"[0, {count}): the input holds {count} frame "
                             "pairs")
    _check_cameras(rig, [record], args.matches, args.rig)
    grid = LandscapeGrid((args.yaw_min, args.yaw_max), args.yaw_steps,
                         (args.arc_min, args.arc_max), args.arc_steps)
    metric = MetricKind(args.metric)
    land = energy_landscape(rig, match_sets_from_record(record), grid,
                            MotionParams(yaw=0.0, arc_length=1.0),
                            EstimatorOptions(metric).loss, metric)
    _write_outputs([(args.out, partial(_write_rows, sep=",", rows=chain(
        [["yaw", "arc_length", "energy", "degenerate"]],
        ([g, l, land.energies[i, j], int(land.degenerate[i, j])]
         for i, g in enumerate(land.yaw_values)
         for j, l in enumerate(land.arc_values)))))])
    print(f"wrote {land.energies.size} grid cells")
    return EXIT_OK


def _cmd_eval(args):
    est = load_trajectory(args.est)
    gt = load_trajectory(args.gt)
    report = evaluate(est, gt, args.lengths)
    rows = [(length, bucket.count, bucket.mean_rotation,
             bucket.mean_translation)
            for length, bucket in sorted(report.length_buckets.items())]
    print(f"{'length_m':>10} {'segments':>9} {'rot_deg_per_m':>14} "
          f"{'trans_percent':>14}")
    for length, count, rot, trans in rows:
        print(f"{length:10.0f} {count:9d} {rot:14.6f} {trans:14.6f}")
    _write_outputs([(args.out, partial(
        _write_rows, sep=",", rows=[["length_m", "segments",
                                     "rotation_deg_per_m",
                                     "translation_percent"], *rows]))])
    return EXIT_OK


COMMANDS = {"simulate": _cmd_simulate, "estimate": _cmd_estimate,
            "landscape": _cmd_landscape, "eval": _cmd_eval}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GeometryError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark for motionprior.

    python3 benchmarks/run.py --workload drive --seed 100 --trace 0
    python3 benchmarks/run.py --workload all      # drive, grid and files

Run from the repository root. Each workload is a closed loop: one process,
one caller that waits for every result before it sends the next request.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
See benchmarks/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("drive", "grid", "files")
DEFAULT_SEED = 100
HELD_OUT_SEED = 20171
SETUP_REPEATS = 5
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"frame_ms_p50": "ms", "frame_ms_p95": "ms",
                    "frames_per_s": "1/s", "grid_cells_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "geometry.pose_checks_per_frame": "count",
    "geometry.lift_pinhole_us_per_match": "us",
    "manifold.pose_from_params_us": "us",
    "manifold.pose_from_params_calls_per_frame": "count",
    "manifold.energy_us": "us",
    "metrics.angleplane_us_per_match": "us",
    "metrics.loss_us_per_match": "us",
    "estimator.lm_iterations_per_frame": "count",
    "estimator.residual_calls_per_frame": "count",
    "estimator.energy_calls_per_frame": "count",
    "estimator.grid_fallback_ms": "ms",
    "estimator.self_ms_per_frame": "ms",
    "simulate.generate_matches_ms": "ms",
    "trace.overhead_ms_per_frame": "ms",
}
# Layers only some workloads call: printed and written to --out, but not
# part of the JSON line, which carries the same metric set on every run.
EXTRA_UNITS = {
    "geometry.lift_generic_us_per_match": "us",
    "metrics.geoline_us_per_match": "us",
    "estimator.scale_probe_ms": "ms",
    "estimator.landscape_cells_per_s": "1/s",
    "simulate.oracle_angleplane_cells_per_s": "1/s",
    "simulate.oracle_geoline_cells_per_s": "1/s",
    "pipeline.simulate_sequence_s": "s",
    "pipeline.lift_ms_per_frame": "ms",
    "pipeline.run_sequence_self_ms": "ms",
    "io_formats.write_matches_mb_per_s": "MB/s",
    "io_formats.load_matches_mb_per_s": "MB/s",
    "io_formats.load_rig_ms": "ms",
    "io_formats.trajectory_io_ms": "ms",
    "evaluation.evaluate_ms": "ms",
    "cli.simulate_s": "s",
    "cli.estimate_s": "s",
    "cli.eval_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result record here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(seed):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "git_commit": _git_commit(), "seed": seed,
            "threads_pinned": {v: os.environ[v] for v in THREAD_VARIABLES}}


def _no_span(name):
    return nullcontext()


def _unit(workload, inputs, index, tally, span=_no_span, speed=None):
    """Run and check one unit; returns the seconds spent in the unit. With
    a HostSpeed, it samples the host while the unit runs."""
    began = time.perf_counter()
    try:
        with span("bench.unit"), speed or nullcontext():
            output = workload.unit(inputs, index)
    except Exception:
        traceback.print_exc()
        output = None
    took = time.perf_counter() - began
    if speed is not None:
        if not speed.samples():
            tally.check(False, f"no host speed sample by unit {index}")
            return took
        tally.unit_speed.append(float(speed.factors(began, began + took)))
    with span("bench.check"):
        if output is None:
            tally.check(False, f"unit {index} raised")
            return took
        try:
            workload.check(inputs, output, tally)
        except Exception:
            traceback.print_exc()
            tally.check(False, f"checking unit {index} raised")
    return took


def _timed_loop(workload, inputs, seconds, tally, speed):
    """Run units back to back until the next one would end past `seconds`
    (at least one round), sampling the host speed. Returns the number of
    units run."""
    tally.host = speed
    start = time.perf_counter()
    index = 0
    while True:
        took = _unit(workload, inputs, index, tally, speed=speed)
        index += 1
        if (index >= workload.units_per_round
                and time.perf_counter() - start + took > seconds):
            return index


def _traced_loop(workload, seed, workdir, inputs, seconds, plain, traced):
    """Run each unit twice, untraced and traced, alternating which goes
    first, until the next pair would end past `seconds` (at least one).
    Returns the tracer, (traced minus untraced seconds, untraced seconds,
    frame pairs) for each pair of units, and whether every original was
    restored."""
    from tracing import Tracer
    tracer = Tracer()
    overheads = []
    restored = True
    start = time.perf_counter()
    index = 0
    while True:
        took = {}
        for traced_turn in ((False, True) if index % 2 == 0
                            else (True, False)):
            if not traced_turn:
                took[False] = _unit(workload, inputs, index, plain)
                continue
            tracer.install()
            try:
                if index == 0:
                    with tracer.span("bench.setup"):
                        traced_inputs = workload.setup(seed, workdir)
                frames = traced.frames
                took[True] = _unit(workload, traced_inputs, index, traced,
                                   tracer.span)
                frames = traced.frames - frames
            finally:
                restored &= tracer.restore()
        if frames:
            overheads.append((took[True] - took[False], took[False], frames))
        index += 1
        if time.perf_counter() - start + took[True] + took[False] > seconds:
            return tracer, overheads, restored


def _timing_metrics(workload, frame_ms, step_s):
    """Latency percentiles over each frame pair's median latency; rates
    over a round's time, the sum of the median time of each of its frame
    pairs and other steps. Also returns the round's time."""
    import numpy as np
    latencies = np.asarray([statistics.median(ms)
                            for ms in frame_ms.values()])
    round_s = (latencies.sum() / 1e3
               + sum(statistics.median(s) for s in step_s.values()))
    return {"frame_ms_p50": float(np.percentile(latencies, 50)),
            "frame_ms_p95": float(np.percentile(latencies, 95)),
            "frames_per_s": workload.frames_per_round / round_s,
            "grid_cells_per_s": workload.cells_per_round() / round_s}, \
        round_s, int(np.sum(latencies > np.percentile(latencies, 95)))


def _end_to_end(workload, tally, setup_s):
    """The end-to-end metrics from host-speed-scaled timings, the same
    from the timings as measured, and the sample counts."""
    values, round_s, beyond_p95 = _timing_metrics(
        workload, tally.frame_ms, tally.step_s)
    raw, raw_round_s, _ = _timing_metrics(
        workload, tally.raw_frame_ms, tally.raw_step_s)
    values.update(setup_s=setup_s, peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    frames = len(tally.frame_ms)
    repeats = [len(ms) for ms in tally.frame_ms.values()]
    steps = [len(s) for s in tally.step_s.values()]
    samples = {"frames": frames,
               "beyond_p95": beyond_p95,
               "timings_per_frame": [min(repeats), max(repeats)],
               "timings_per_step": [min(steps), max(steps)],
               "round_s": round_s, "raw_round_s": raw_round_s,
               "host_speed_per_unit": tally.unit_speed}
    return values, raw, samples


def _per_layer(table, tally, overheads):
    """Per-layer metrics from the traced spans. Counts come from the first
    traced unit, which is the same work on every run of a seed; times come
    from every traced span."""
    import numpy as np
    dur = table.duration

    def per_call(name, scale):
        m = table.mask(name)
        return float(dur[m].mean() * scale) if m.any() else None

    def per_size(name, scale):
        m = table.mask(name)
        return float(dur[m].sum() / table.sizes[m].sum() * scale) \
            if m.any() else None

    def rate(name, scale):
        m = table.mask(name)
        return float(table.sizes[m].sum() / dur[m].sum() * scale) \
            if m.any() else None

    first = int(np.flatnonzero(table.mask("bench.unit"))[0])
    in_first = table.root == first
    est = table.mask("estimator.estimate")
    frames = int(np.sum(est & in_first))
    residual = (table.mask("metrics.angleplane_residuals")
                | table.mask("metrics.geoline_residuals"))
    energy = table.mask("manifold.multi_camera_energy")
    from_est = table.parent_is("estimator.estimate")

    # energy calls inside estimate before its first residual call are the
    # grid fallback; those after its last residual call are the scale probe
    children = {}
    for i in np.flatnonzero(from_est & (residual | energy)):
        children.setdefault(int(table.parents[i]), []).append(int(i))
    fallback, probe = [], []
    for kids in children.values():
        calls = [k for k in kids if residual[k]]
        if not calls:
            continue
        before = sum(dur[k] for k in kids if energy[k] and k < calls[0])
        after = sum(dur[k] for k in kids if energy[k] and k > calls[-1])
        if before:
            fallback.append(before * 1e3)
        if after:
            probe.append(after * 1e3)

    layer = {
        "geometry.pose_checks_per_frame":
            table.count("geometry.Pose.__post_init__", first) / frames,
        "geometry.lift_pinhole_us_per_match":
            per_size("geometry.lift_pinhole", 1e6),
        "manifold.pose_from_params_us":
            per_call("manifold.pose_from_params", 1e6),
        "manifold.pose_from_params_calls_per_frame":
            int(np.sum(table.mask("manifold.pose_from_params") & in_first))
            / frames,
        "manifold.energy_us": per_call("manifold.multi_camera_energy", 1e6),
        "metrics.angleplane_us_per_match":
            per_size("metrics.angleplane_residuals", 1e6),
        "metrics.loss_us_per_match":
            per_size("metrics.RobustLoss.evaluate", 1e6),
        "estimator.lm_iterations_per_frame":
            statistics.fmean(tally.unit_iterations[0]),
        "estimator.residual_calls_per_frame":
            int(np.sum(residual & from_est & in_first)) / frames,
        "estimator.energy_calls_per_frame":
            int(np.sum(energy & from_est & in_first)) / frames,
        "estimator.grid_fallback_ms":
            statistics.fmean(fallback) if fallback else None,
        "estimator.self_ms_per_frame": float(
            table.self_time[est].mean() * 1e3),
        "simulate.generate_matches_ms":
            per_call("simulate.generate_matches", 1e3),
        "trace.overhead_ms_per_frame":
            statistics.median(extra_s / n * 1e3 for extra_s, _, n in overheads)
            if overheads else None,
    }
    extra = {
        "geometry.lift_generic_us_per_match":
            per_size("geometry.lift_generic", 1e6),
        "metrics.geoline_us_per_match":
            per_size("metrics.geoline_residuals", 1e6),
        "estimator.scale_probe_ms": statistics.fmean(probe) if probe
        else None,
        "estimator.landscape_cells_per_s":
            rate("estimator.energy_landscape", 1.0),
        "simulate.oracle_angleplane_cells_per_s":
            rate("simulate.oracle_angleplane", 1.0),
        "simulate.oracle_geoline_cells_per_s":
            rate("simulate.oracle_geoline", 1.0),
        "pipeline.simulate_sequence_s":
            per_call("pipeline.simulate_sequence", 1.0),
        "pipeline.lift_ms_per_frame":
            per_call("pipeline.match_sets_from_record", 1e3),
        "pipeline.run_sequence_self_ms": float(
            table.self_time[table.mask("pipeline.run_sequence")].mean()
            * 1e3) if table.mask("pipeline.run_sequence").any() else None,
        "io_formats.write_matches_mb_per_s":
            rate("io_formats.write_matches", 1e-6),
        "io_formats.load_matches_mb_per_s":
            rate("io_formats.load_matches", 1e-6),
        "io_formats.load_rig_ms": per_call("io_formats.load_rig", 1e3),
        "io_formats.trajectory_io_ms":
            per_call("io_formats.trajectory_io", 1e3),
        "evaluation.evaluate_ms": per_call("evaluation.evaluate", 1e3),
        "cli.simulate_s": per_call("cli.simulate", 1.0),
        "cli.estimate_s": per_call("cli.estimate", 1.0),
        "cli.eval_s": per_call("cli.eval", 1.0),
    }
    return layer, {k: v for k, v in extra.items() if v is not None}


def _setup(workload, seed, workdir, imported, speed):
    """Set the inputs up SETUP_REPEATS times, sampling the host speed.
    Returns the inputs, the set-up time (import plus the median set-up,
    scaled by the host speed sampled over all set-ups: the import comes
    before NumPy can sample, and one set-up is too short for more than a
    few samples) and the set-up times as measured."""
    took = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        with speed:
            inputs = workload.setup(seed, workdir)
        took.append(time.perf_counter() - began)
    import_s, import_end = imported
    scale = float(speed.factors(import_end - import_s, time.perf_counter()))
    return inputs, (import_s + statistics.median(took)) * scale, took


def _run_workload(args, imported):
    from hostspeed import HostSpeed
    from workloads import WORKLOADS as BY_NAME, Tally

    workload = BY_NAME[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": _provenance(args.seed)}
    try:
        speed = HostSpeed()
        inputs, setup_s, setup_times = _setup(workload, args.seed, workdir,
                                              imported, speed)
        tally = Tally()
        if not args.trace:
            units_run = _timed_loop(workload, inputs, args.seconds, tally,
                                    speed)
        else:
            traced = Tally()
            tracer, overheads, restored = _traced_loop(
                workload, args.seed, workdir, inputs, args.seconds, tally,
                traced)
            traced.check(restored, "a traced function was not restored")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally.attempted, tally.failed
    if args.trace:
        attempted += traced.attempted
        failed += traced.failed
    correct = failed == 0
    lines = [f"provenance: {json.dumps(record['provenance'])}"]
    if not correct:
        values, units = {}, {}
    elif not args.trace:
        values, raw, samples = _end_to_end(workload, tally, setup_s)
        units = END_TO_END_UNITS
        record.update(samples=samples, accuracy=tally.accuracy, raw=raw,
                      failed_ratio=failed / attempted,
                      setup_repeats_s=setup_times, import_s=imported[0])
        lo, hi = samples["timings_per_frame"]
        lines.append(f"{workload.name}: {samples['frames']} frame pairs "
                     f"({samples['beyond_p95']} beyond p95), each timed "
                     f"{lo}-{hi} times; {units_run} units, round "
                     f"{samples['round_s']:.4g} s; "
                     f"{failed}/{attempted} failed (failed_ratio "
                     f"{failed / attempted:.6g})")
        for name, value in tally.accuracy.items():
            unit = "deg/m" if name.startswith("rot") else "%"
            lines.append(f"  {name:<44} {value:>14.6g} {unit}")
        factors = tally.unit_speed
        lines.append(f"host speed factor per unit {min(factors):.4g}-"
                     f"{max(factors):.4g}; as measured, before scaling:")
        for name, value in raw.items():
            lines.append(f"  {name:<44} {value:>14.6g} "
                         f"{END_TO_END_UNITS[name]}")
        lines.append("scaled to the reference host speed:")
    else:
        values, extra = _per_layer(tracer.arrays(), traced, overheads)
        units = PER_LAYER_UNITS
        overhead_pct = statistics.median(100 * extra_s / plain_s
                                         for extra_s, plain_s, _ in overheads)
        record.update(extra=extra, traced_units=len(traced.unit_iterations),
                      originals_restored=restored,
                      overhead_pct=overhead_pct,
                      unit_pairs_s=[[plain_s + extra_s, plain_s]
                                    for extra_s, plain_s, _ in overheads])
        lines.append(f"{workload.name} traced: {len(traced.unit_iterations)} "
                     f"units, each also run untraced; originals restored: "
                     f"{restored}; tracing overhead (traced minus untraced "
                     f"unit time, median over pairs): "
                     f"{values['trace.overhead_ms_per_frame']:+.4g} ms per "
                     f"frame pair, {overhead_pct:+.2f}% of the unit time")
        for name, value in extra.items():
            lines.append(f"  {name:<44} {value:>14.6g} {EXTRA_UNITS[name]}")
    if correct and any(v is None for v in values.values()):
        missing = [k for k, v in values.items() if v is None]
        lines.append(f"not measured: {missing}")
        values, correct = {}, False
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for name, metric in metrics.items():
        lines.append(f"  {name:<44} {metric['value']:>14.6g} "
                     f"{metric['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for name in WORKLOADS:
            out = os.path.join(tmp, name + ".json")
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", out],
                stdout=subprocess.PIPE, text=True, check=False)
            print(proc.stdout, end="", flush=True)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False}
            combined["correct"] &= proc.returncode == 0 and result["correct"]
            combined["attempted"] += result.get("attempted", 0)
            combined["failed"] += result.get("failed", 0)
            for metric, value in result.get("metrics", {}).items():
                combined["metrics"][f"{name}.{metric}"] = value
            if os.path.exists(out):
                records[name] = json.loads(Path(out).read_text())
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "motionprior" / "__init__.py").is_file():
        print(f"error: no motionprior sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # BLAS and OpenMP read these once, when numpy loads
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(src))
    began = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import motionprior  # noqa: F401
    imported = time.perf_counter()
    return _run_workload(args, (imported - began, imported))


if __name__ == "__main__":
    sys.exit(main())

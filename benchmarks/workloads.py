"""The benchmark's workloads: seeded inputs, the closed-loop unit of work
each one repeats, and the checks on that unit's outputs.

A workload has `setup(seed, workdir) -> inputs`, `unit(inputs, index) ->
output` (the timed part) and `check(inputs, output, tally)` (untimed; it
records step times, frame latencies, counts and failures in the `Tally`).

A *round* is the fixed work that `units_per_round` consecutive units do
together; later units repeat it on the same inputs. Every frame pair of a
round and every other timed step (a CLI subcommand, an oracle, the rest of
a pass beside its frame pairs) has a key, so a run holds several timings of
each, spread over the run. The end-to-end metrics take the median timing
of each key, after scaling every timing by the host speed measured while
it was taken (`hostspeed.py`); the unscaled timings are kept beside them.
Timings carry the perf_counter time their stretch ended at for this.

Every call into motionprior goes through its module attribute
(`pipeline.run_sequence`, not a name imported from it), so that the traced
run sees the call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from motionprior import cli, estimator, evaluation, io_formats, pipeline, \
    simulate
from motionprior.geometry import (PinholeCamera, PinholeIntrinsics,
                                  forward_camera_extrinsic)
from motionprior.io_formats import Scenario, SequenceProfile
from motionprior.manifold import CameraRig, MotionParams, RigCamera
from motionprior.metrics import MetricKind, RobustLoss
from motionprior.simulate import NoiseSpec, SceneSpec

INTRINSICS = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)
IMAGE_SIZE = (1280, 960)
CAMERA_OFFSETS = ((2.0, 1.0, 0.0), (2.0, -1.0, 0.0))
CAUCHY = RobustLoss("cauchy", 0.0065)

# The criterion-8 drive: 500 one-metre frame pairs, one 90 degree curve.
CURVE_FRAMES = 60
DRIVE_SEGMENTS = ((220, 0.0), (CURVE_FRAMES, (math.pi / 2) / CURVE_FRAMES),
                  (220, 0.0))
DRIVE_FRAMES = sum(count for count, _ in DRIVE_SEGMENTS)
DRIVE_POINTS = 150
PIXEL_SIGMA = 0.25
SEGMENT_M = 100.0
ROT_ERR_BOUND = 0.005          # deg/m on 100 m segments, criterion 8

# Grid: curve pairs, oracles and landscape shaped as in criteria 3 and 5.
GRID_POINTS = 200
GRID_POOL = 128                # pairs generated; one round estimates each
GRID_BATCH = 64                # cold starts per unit, before one dense pair
GRID_RESOLUTION = 41
GRID_YAW_HALF_WIDTH = 0.3

# Files: the bearing table reaches this far past each image border, wider
# than any pixel noise the drive adds (0.25 px sigma).
TABLE_BORDER = 16.0
TABLE_STEP = 8.0
EVAL_LENGTHS = (100.0, 200.0, 300.0, 400.0)   # each has segments in 500 m


def make_rig() -> CameraRig:
    return CameraRig(tuple(
        RigCamera(i, PinholeCamera(INTRINSICS, IMAGE_SIZE),
                  forward_camera_extrinsic(offset))
        for i, offset in enumerate(CAMERA_OFFSETS)))


def cold_start_cells() -> int:
    prior = MotionParams(yaw=0.0, arc_length=1.0)
    return len(estimator.default_cold_start_grid(prior).points(prior))


@dataclass
class Tally:
    """What the timed units of one run did and how many of them failed.
    `step_s` and `frame_ms` map a step's or a frame pair's key to its
    timings, one for each round that ran it, scaled by the host speed
    `host` (a HostSpeed, or None for no scaling) measured when each was
    taken; `raw_step_s` and `raw_frame_ms` hold them as measured."""

    host: object = None
    unit_speed: list = field(default_factory=list)
    step_s: dict = field(default_factory=dict)
    frame_ms: dict = field(default_factory=dict)
    raw_step_s: dict = field(default_factory=dict)
    raw_frame_ms: dict = field(default_factory=dict)
    frames: int = 0
    unit_iterations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    accuracy: dict = field(default_factory=dict)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def _scales(self, seconds, ends):
        ends = np.asarray(ends, dtype=float)
        if self.host is None:
            return np.ones(len(ends))
        return self.host.factors(ends - np.asarray(seconds), ends)

    def steps(self, timed):
        """Record (key, seconds, end) timings of steps."""
        scales = self._scales([t[1] for t in timed], [t[2] for t in timed])
        for (key, seconds, _), scale in zip(timed, scales):
            self.step_s.setdefault(key, []).append(seconds * scale)
            self.raw_step_s.setdefault(key, []).append(seconds)

    def frame_outcomes(self, keys, latencies, ends, iterations,
                       failed_frames):
        scales = self._scales(np.asarray(latencies) / 1e3, ends)
        for key, ms, scale in zip(keys, latencies, scales):
            self.frame_ms.setdefault(key, []).append(ms * scale)
            self.raw_frame_ms.setdefault(key, []).append(ms)
        self.frames += len(latencies)
        self.unit_iterations.append(list(iterations))
        self.attempted += len(latencies)
        self.failed += failed_frames


def timed(key, call, *args):
    """Run `call(*args)`; returns its result and (key, seconds, end)."""
    began = time.perf_counter()
    result = call(*args)
    end = time.perf_counter()
    return result, (key, end - began, end)


def back_to_back(latencies_ms, end, start=None):
    """End times of frame pairs estimated one after the other, the last
    ending at `end`. With the loop's `start`, its own work between them is
    spread over [start, end] in proportion to their latencies; without, it
    is left out."""
    done_s = np.cumsum(latencies_ms) / 1e3
    if start is None:
        return end - (done_s[-1] - done_s)
    return start + (end - start) * done_s / done_s[-1]


# ------------------------------------------------------------------- drive

class Drive:
    """`run_sequence` over the drive, free scale in curves; one unit is
    one pass over all 500 frame pairs, and is a round."""

    name = "drive"
    units_per_round = 1
    frames_per_round = DRIVE_FRAMES

    def setup(self, seed, workdir):
        # seed 100 reproduces criterion 8's scene and noise
        rig = make_rig()
        records, truth, _ = pipeline.simulate_sequence(Scenario(
            scene=SceneSpec(DRIVE_POINTS, seed=seed),
            noise=NoiseSpec(pixel_sigma=PIXEL_SIGMA, seed=seed + 1),
            truth=MotionParams(yaw=0.0, arc_length=1.0), rig=rig,
            sequence=SequenceProfile(DRIVE_SEGMENTS)))
        return rig, records, truth

    def unit(self, inputs, index):
        rig, records, _ = inputs
        (trajectory, outcomes), step = timed(
            "pass", pipeline.run_sequence, rig, records,
            pipeline.FreeInCurves(1.0))
        return trajectory, outcomes, step

    def cells_per_round(self):
        return cold_start_cells()         # frame 0's cold start

    def check(self, inputs, output, tally):
        _, records, truth = inputs
        trajectory, outcomes, (key, seconds, end) = output
        failed = sum(o.failed for o in outcomes)
        latencies = [o.runtime_ms for o in outcomes]
        # the pass beside its frame pairs' lift and estimate
        tally.steps([(key, seconds - sum(latencies) / 1e3, end)])
        tally.frame_outcomes(range(len(outcomes)), latencies,
                             back_to_back(latencies, end, end - seconds),
                             [o.result.iterations for o in outcomes
                              if o.result is not None], failed)
        report = evaluation.evaluate(trajectory, truth, [SEGMENT_M])
        rot = report.mean_rotation(SEGMENT_M)
        trans = report.mean_translation(SEGMENT_M)
        tally.accuracy = {"rot_err_deg_per_m": rot, "trans_err_pct": trans}
        tally.check(len(outcomes) == len(records),
                    f"{len(outcomes)} outcomes for {len(records)} pairs")
        tally.check(failed == 0, f"{failed} failed frames")
        tally.check(rot < ROT_ERR_BOUND,
                    f"rotation error {rot} deg/m >= {ROT_ERR_BOUND}")


# -------------------------------------------------------------------- grid

def curve_pair(pair_seed, rig):
    """Noise-free two-camera curve, yaw and arc length free, as in
    criteria 3 and 5."""
    rng = np.random.Generator(np.random.PCG64(pair_seed))
    truth = MotionParams(yaw=rng.uniform(0.05, 0.25) * rng.choice([-1, 1]),
                         arc_length=rng.uniform(0.8, 1.6),
                         free=("yaw", "arc_length"))
    points = simulate.generate_scene(SceneSpec(GRID_POINTS, seed=pair_seed))
    sets, _ = simulate.generate_matches(points, rig, truth,
                                        NoiseSpec(seed=pair_seed + 1))
    return truth, sets


def _cells_apart(a, b, truth):
    """Distance of two manifold points in oracle grid cells."""
    cell_yaw = 2 * GRID_YAW_HALF_WIDTH / (GRID_RESOLUTION - 1)
    cell_arc = truth.arc_length / (GRID_RESOLUTION - 1)
    return max(abs(a.yaw - b.yaw) / cell_yaw,
               abs(a.arc_length - b.arc_length) / cell_arc)


class Grid:
    """Dense energy evaluation. One unit: GRID_BATCH cold-start estimates,
    then the 41x41 angleplane and geoline oracles and a 41x41 landscape on
    the first pair of the batch. A round is the GRID_POOL // GRID_BATCH
    units that together estimate every pair of the pool once."""

    name = "grid"
    units_per_round = GRID_POOL // GRID_BATCH
    frames_per_round = GRID_POOL

    def cells_per_round(self):
        return (GRID_POOL * cold_start_cells()
                + self.units_per_round * 3 * GRID_RESOLUTION ** 2)

    def setup(self, seed, workdir):
        rig = make_rig()
        return rig, [curve_pair(seed * 1000 + j, rig)
                     for j in range(GRID_POOL)]

    def unit(self, inputs, index):
        rig, pairs = inputs
        first = (index % self.units_per_round) * GRID_BATCH
        batch = pairs[first:first + GRID_BATCH]
        prior = MotionParams(yaw=0.0, arc_length=1.0,
                             free=("yaw", "arc_length"))
        opts = estimator.EstimatorOptions(
            fallback_grid=estimator.default_cold_start_grid(prior))
        cold = [timed(first + k, estimator.estimate, rig, sets, prior, opts)
                for k, (_, sets) in enumerate(batch)]
        truth, sets = batch[0]
        bounds = {"yaw": (truth.yaw - GRID_YAW_HALF_WIDTH,
                          truth.yaw + GRID_YAW_HALF_WIDTH),
                  "arc_length": (0.5 * truth.arc_length,
                                 1.5 * truth.arc_length)}
        oracles = [timed(("oracle_" + metric.value, first),
                         simulate.grid_search_oracle, rig, sets, bounds,
                         GRID_RESOLUTION, CAUCHY, metric, truth)
                   for metric in (MetricKind.ANGLEPLANE, MetricKind.GEOLINE)]
        landscape = timed(("landscape", first), estimator.energy_landscape,
                          rig, sets, estimator.LandscapeGrid(
                              bounds["yaw"], GRID_RESOLUTION,
                              bounds["arc_length"], GRID_RESOLUTION),
                          truth, CAUCHY, MetricKind.ANGLEPLANE)
        return batch, cold, oracles, landscape

    def check(self, inputs, output, tally):
        batch, cold, oracles, landscape = output
        tally.steps([step for _, step in oracles + [landscape]])
        tally.frame_outcomes([key for _, (key, _, _) in cold],
                             [s * 1e3 for _, (_, s, _) in cold],
                             [end for _, (_, _, end) in cold],
                             [r.iterations for r, _ in cold], 0)
        cold = [result for result, _ in cold]
        (angleplane, _), (geoline, _) = oracles
        landscape = landscape[0]
        for (truth, _), result in zip(batch, cold):
            # noise-free: the oracle's argmin is the true motion
            gap = _cells_apart(result.params, truth, truth)
            tally.check(gap <= 1.0, f"cold start {gap:.3f} cells from truth")
        truth = batch[0][0]
        gap = _cells_apart(cold[0].params, angleplane, truth)
        tally.check(gap <= 1.0,
                    f"cold start {gap:.3f} cells from the angleplane oracle")
        gap = _cells_apart(angleplane, geoline, truth)
        tally.check(gap <= 1.0,
                    f"angleplane and geoline argmins {gap:.3f} cells apart")
        i, j = landscape.argmin()
        cell = truth.with_values(yaw=float(landscape.yaw_values[i]),
                                 arc_length=float(landscape.arc_values[j]))
        gap = _cells_apart(cell, angleplane, truth)
        tally.check(gap <= 1.0,
                    f"landscape argmin {gap:.3f} cells from the oracle")


# ------------------------------------------------------------------- files

def write_bearing_table(camera, path):
    """Tabulate a pinhole camera as a generic one over the image plus
    TABLE_BORDER pixels on every side (z-normalized rays)."""
    width, height = camera.image_size
    us = np.arange(-TABLE_BORDER, width + TABLE_BORDER + 1e-9, TABLE_STEP)
    vs = np.arange(-TABLE_BORDER, height + TABLE_BORDER + 1e-9, TABLE_STEP)
    uu, vv = np.meshgrid(us, vs)
    rays = camera.pixel_to_bearing(np.stack([uu.ravel(), vv.ravel()], 1))
    rays = rays / rays[:, 2:3]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{float(us[0])!r} {float(vs[0])!r} {TABLE_STEP!r} "
                 f"{TABLE_STEP!r} {len(us)} {len(vs)}\n")
        np.savetxt(fh, rays, fmt="%.17g")


def write_generic_rig(rig, table_path, path):
    with open(path, "w", encoding="utf-8") as fh:
        for cam in rig.cameras:
            values = " ".join(repr(float(v))
                              for v in cam.extrinsic.matrix34().ravel())
            width, height = cam.model.image_size
            fh.write(f"id {cam.camera_id}\nmodel generic\n"
                     f"image_size {width} {height}\n"
                     f"table {table_path}\nextrinsic {values}\n\n")


class Files:
    """The CLI round trip through `run_cli`: simulate to files, estimate
    from a generic (tabulated) rig with the scale file fixing the arc
    length, eval from the written trajectories. One unit is a round."""

    name = "files"
    units_per_round = 1
    frames_per_round = DRIVE_FRAMES

    def cells_per_round(self):
        return cold_start_cells()         # frame 0's cold start

    def setup(self, seed, workdir):
        paths = {key: os.path.join(workdir, name) for key, name in (
            ("scenario", "scenario.txt"), ("pinhole_rig", "pinhole_rig.txt"),
            ("table", "bearings.txt"), ("generic_rig", "generic_rig.txt"),
            ("matches", "matches.csv"), ("truth", "truth.txt"),
            ("scale", "scale.txt"), ("estimate", "estimate.txt"),
            ("diagnostics", "diagnostics.jsonl"), ("report", "report.csv"))}
        rig = make_rig()
        io_formats.write_rig(rig, paths["pinhole_rig"])
        # both cameras share intrinsics, so they share one table
        write_bearing_table(rig.cameras[0].model, paths["table"])
        write_generic_rig(rig, paths["table"], paths["generic_rig"])
        segments = ",".join(f"{n}:{yaw!r}" for n, yaw in DRIVE_SEGMENTS)
        with open(paths["scenario"], "w", encoding="utf-8") as fh:
            fh.write(f"rig = pinhole_rig.txt\nseed = {seed}\n"
                     f"scene.num_points = {DRIVE_POINTS}\n"
                     f"noise.pixel_sigma = {PIXEL_SIGMA!r}\n"
                     f"truth.arc_length = 1.0\n"
                     f"sequence.segments = {segments}\n")
        return paths

    def unit(self, paths, index):
        commands = (
            ["simulate", "--scenario", paths["scenario"],
             "--out-matches", paths["matches"], "--out-truth", paths["truth"],
             "--out-scale", paths["scale"]],
            ["estimate", "--rig", paths["generic_rig"],
             "--matches", paths["matches"], "--scale", paths["scale"],
             "--out-trajectory", paths["estimate"],
             "--diagnostics", paths["diagnostics"]],
            ["eval", "--est", paths["estimate"], "--gt", paths["truth"],
             "--lengths", ",".join(repr(v) for v in EVAL_LENGTHS),
             "--out", paths["report"]])
        codes, steps = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                code, step = timed(argv[0], cli.run_cli, argv)
                codes.append(code)
                steps.append(step)
                if code != 0:
                    break
        return codes, steps

    def check(self, paths, output, tally):
        codes, steps = output
        for name, code in zip(("simulate", "estimate", "eval"), codes):
            tally.check(code == 0, f"{name} exited {code}")
        if len(codes) < 3 or any(codes):
            tally.check(False, "round trip did not finish")
            return
        with open(paths["diagnostics"], encoding="utf-8") as fh:
            frames = [json.loads(line) for line in fh]
        latencies = [f["runtime_ms"] for f in frames]
        # estimate beside its frame pairs' lift and solve: I/O, set-up
        simulate_step, (key, estimate_s, estimate_end), eval_step = steps
        tally.steps([simulate_step, eval_step,
                     (key, estimate_s - sum(latencies) / 1e3, estimate_end)])
        # estimate writes its outputs after the last frame pair, which
        # takes milliseconds
        tally.frame_outcomes(range(len(frames)), latencies,
                             back_to_back(latencies, estimate_end),
                             [f["iterations"] for f in frames
                              if not f["failed"]],
                             sum(f["failed"] for f in frames))
        tally.check(len(frames) == DRIVE_FRAMES,
                    f"{len(frames)} diagnostic lines for {DRIVE_FRAMES} pairs")
        estimate = io_formats.load_trajectory(paths["estimate"])
        truth = io_formats.load_trajectory(paths["truth"])
        tally.check(len(estimate) == DRIVE_FRAMES + 1,
                    f"trajectory has {len(estimate)} poses, expected "
                    f"{DRIVE_FRAMES + 1}")
        report = evaluation.evaluate(estimate, truth, list(EVAL_LENGTHS))
        with open(paths["report"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [(float(r["length_m"]), int(r["segments"]),
                float(r["rotation_deg_per_m"]),
                float(r["translation_percent"])) for r in rows]
        want = [(length, b.count, b.mean_rotation, b.mean_translation)
                for length, b in sorted(report.length_buckets.items())]
        tally.check(got == want, "eval report differs from evaluate()")
        rot = report.mean_rotation(SEGMENT_M)
        trans = report.mean_translation(SEGMENT_M)
        tally.accuracy = {"rot_err_deg_per_m": rot, "trans_err_pct": trans}
        tally.check(rot < ROT_ERR_BOUND,
                    f"rotation error {rot} deg/m >= {ROT_ERR_BOUND}")


WORKLOADS = {w.name: w for w in (Drive(), Grid(), Files())}

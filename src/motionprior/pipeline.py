"""Per-sequence orchestration: chaining frame-pair estimates into a
trajectory, scale handling, and sequence simulation for the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .estimator import (EstimateResult, EstimatorOptions, NoMatches,
                        default_cold_start_grid, estimate)
from .geometry import GeometryError, Pose
from .io_formats import (FramePairRecord, NoRecords, Scenario,
                         TrajectoryRecord)
from .manifold import CameraRig, MotionParams, pose_from_params
from .metrics import MatchSet, NonFiniteMatch
from .simulate import generate_matches, generate_scene

# |yaw| of the previous frame at and above which FreeInCurves frees the arc
CURVE_YAW_THRESHOLD = 0.01


@dataclass(frozen=True)
class FixedScale:
    """Arc length fixed per frame pair from an external source."""

    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not np.isfinite(values).all():
            raise ValueError("scale values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FreeInCurves:
    """Arc length optimized only while the prior yaw reaches
    CURVE_YAW_THRESHOLD; held at the last known value on straights. A
    frame whose free-arc solve lands below the threshold is solved again
    with the arc held, and only frames that stay in the curve update the
    held value."""

    initial: float

    def __post_init__(self):
        initial = float(self.initial)
        if not np.isfinite(initial):
            raise ValueError("initial scale must be finite")
        object.__setattr__(self, "initial", initial)


@dataclass(frozen=True)
class FrameOutcome:
    t0: int
    t1: int
    params: MotionParams
    result: EstimateResult | None
    error: str | None
    runtime_ms: float

    @property
    def failed(self) -> bool:
        return self.result is None


def match_sets_from_record(record: FramePairRecord, rig: CameraRig):
    sets = []
    for cam_id in sorted(record.pixels):
        px0, px1 = record.pixels[cam_id]
        cam = rig.camera(cam_id)
        sets.append(MatchSet.from_pixels(cam_id, cam.model, px0, px1))
    return sets


def run_sequence(rig: CameraRig, records, scale_source,
                 opts: EstimatorOptions = EstimatorOptions()):
    """Estimate every frame pair, each initialized from the previous
    result, the first after a cold-start grid; a frame that fails (no
    matches, geometry or non-finite data) carries the prior motion
    forward, flagged with the error.

    Returns (TrajectoryRecord, list of FrameOutcome).
    """
    records = list(records)
    if not records:
        raise NoRecords("no frame pair records")
    fixed = isinstance(scale_source, FixedScale)
    if fixed and len(scale_source.values) < len(records):
        raise ValueError("scale file shorter than the record list")

    held_arc = scale_source.values[0] if fixed else scale_source.initial
    current = MotionParams(yaw=0.0, arc_length=held_arc)
    first_opts = replace(opts, fallback_grid=opts.fallback_grid
                         or default_cold_start_grid(current))
    poses = [Pose.identity()]
    outcomes = []
    for index, record in enumerate(records):
        if fixed:
            held_arc = scale_source.values[index]
        in_curve = not fixed and abs(current.yaw) >= CURVE_YAW_THRESHOLD
        current = replace(current, arc_length=held_arc, free=(
            ("yaw", "arc_length") if in_curve else ("yaw",)))
        frame_opts = first_opts if index == 0 else opts
        start = time.perf_counter()
        try:
            sets = match_sets_from_record(record, rig)
            result = estimate(rig, sets, current, frame_opts)
            if in_curve:
                if abs(result.params.yaw) < CURVE_YAW_THRESHOLD:
                    # left the curve: the arc is unobservable on a straight
                    current = replace(current, free=("yaw",))
                    result = estimate(rig, sets, current, frame_opts)
                elif result.condition_note != "scale_unobservable":
                    held_arc = result.params.arc_length
            current, error = result.params, None
        except (NoMatches, GeometryError, NonFiniteMatch) as exc:
            result, error = None, str(exc)
        runtime = (time.perf_counter() - start) * 1e3
        outcomes.append(FrameOutcome(record.t0, record.t1, current, result,
                                     error, runtime))
        poses.append(poses[-1].compose(pose_from_params(current)))
    return TrajectoryRecord(tuple(poses)), outcomes


def simulate_sequence(scenario: Scenario):
    """Generate per-frame match records and the ground-truth trajectory
    for a scenario; a fresh scene is drawn for every frame pair.

    Returns (records, TrajectoryRecord, scale values).
    """
    if scenario.sequence is not None:
        yaws = scenario.sequence.yaw_per_frame()
    else:
        yaws = [scenario.truth.yaw]
    records = []
    poses = [Pose.identity()]
    scales = []
    for k, yaw in enumerate(yaws):
        truth = replace(scenario.truth, yaw=yaw)
        scene = replace(scenario.scene, seed=scenario.scene.seed + 1000 * k)
        noise = replace(scenario.noise, seed=scenario.noise.seed + 1000 * k)
        points = generate_scene(scene)
        match_sets, _ = generate_matches(points, scenario.rig, truth, noise)
        pixels = {s.camera_id: (np.asarray(s.pixels_t0),
                                np.asarray(s.pixels_t1))
                  for s in match_sets}
        records.append(FramePairRecord(k, k + 1, pixels))
        poses.append(poses[-1].compose(pose_from_params(truth)))
        scales.append(truth.arc_length)
    return records, TrajectoryRecord(tuple(poses)), scales

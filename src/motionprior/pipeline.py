"""Per-sequence orchestration: chaining frame-pair estimates into a
trajectory, scale handling, and sequence simulation for the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .estimator import (EstimateResult, EstimatorOptions, NoMatches,
                        _estimate, default_cold_start_grid, estimate)
from .geometry import TRANSLATION_EPS, GeometryError, Pose
from .io_formats import (FramePairRecord, NoRecords, Scenario,
                         TrajectoryRecord)
from .manifold import CameraRig, MotionParams, motion_arrays, params_rows
from .metrics import MatchSet, NonFiniteMatch, RigFrame
from .simulate import generate_matches, generate_scene

# |yaw| of the previous frame at and above which FreeInCurves frees the arc
CURVE_YAW_THRESHOLD = 0.01


def _check_arc(value, name):
    """Finite and not (nearly) zero; a zero arc is a turn on the spot,
    which the epipolar energy sees only through the cameras' lever arms."""
    if not TRANSLATION_EPS <= abs(value) < np.inf:
        raise ValueError(f"{name} is {value!r}: |arc length| must be at "
                         f"least {TRANSLATION_EPS} and finite")


@dataclass(frozen=True)
class FixedScale:
    """Arc length fixed per frame pair from an external source."""

    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        for index, value in enumerate(values):
            _check_arc(value, f"scale value {index}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FreeInCurves:
    """Arc length optimized only while the prior yaw reaches
    CURVE_YAW_THRESHOLD; held at the last known value on straights. A
    curve frame keeps its free-arc solve, and updates the held value, only
    if its yaw stays at or above the threshold and its condition note is
    ok; any other (few_matches, scale_unobservable) is solved again with
    the arc held."""

    initial: float

    def __post_init__(self):
        initial = float(self.initial)
        _check_arc(initial, "initial scale")
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


def _trajectory(motions) -> TrajectoryRecord:
    """The frames' motions chained on arrays, as Pose.compose chains them."""
    rots, ts = motion_arrays(np.vstack([params_rows(p) for p in motions]))
    R, T = np.eye(3), np.zeros(3)
    poses = [Pose(R, T)]
    for r, t in zip(rots, ts):
        R, T = R @ r, R @ t + T
        poses.append(Pose(R, T))
    return TrajectoryRecord(tuple(poses))


def match_sets_from_record(record: FramePairRecord):
    return [MatchSet(cam_id, *record.pixels[cam_id])
            for cam_id in sorted(record.pixels)]


def run_sequence(rig: CameraRig, records, scale_source,
                 opts: EstimatorOptions = EstimatorOptions()):
    """Estimate every frame pair, each initialized from the previous
    result; until a pair is estimated, each also runs a cold-start grid.
    A frame that fails (no matches, geometry or non-finite data) carries
    the prior motion forward, flagged with the error. The pairs must
    chain: (0, 1), (1, 2) and so on, any step size; a gap or an overlap
    is a ValueError.

    Returns (TrajectoryRecord, list of FrameOutcome).
    """
    records = list(records)
    if not records:
        raise NoRecords("no frame pair records")
    pairs = [(int(r.t0), int(r.t1)) for r in records]
    for prev, (t0, t1) in zip([None, *pairs], pairs):
        if t1 <= t0 or prev and t0 != prev[1]:
            after = f" after {prev}" if prev else ""
            raise ValueError(f"frame pair {(t0, t1)}{after}: pairs must "
                             "chain, each t1 after its t0 and each t0 the "
                             "previous pair's t1")
    fixed = isinstance(scale_source, FixedScale)
    if fixed and len(scale_source.values) != len(records):
        raise ValueError(f"{len(scale_source.values)} scale values for "
                         f"{len(records)} frame pairs: one per pair needed")

    held_arc = scale_source.values[0] if fixed else scale_source.initial
    current = MotionParams(yaw=0.0, arc_length=held_arc)
    frame_opts = replace(opts, fallback_grid=opts.fallback_grid
                         or default_cold_start_grid(current))
    outcomes = []
    for index, record in enumerate(records):
        if fixed:
            held_arc = scale_source.values[index]
        in_curve = not fixed and abs(current.yaw) >= CURVE_YAW_THRESHOLD
        current = replace(current, arc_length=held_arc, free=(
            ("yaw", "arc_length") if in_curve else ("yaw",)))
        start = time.perf_counter()
        try:
            frame = RigFrame.from_matches(     # one lift for every solve
                rig, match_sets_from_record(record), opts.metric)
            result = estimate(rig, frame, current, frame_opts)
            if in_curve:
                if (abs(result.params.yaw) < CURVE_YAW_THRESHOLD
                        or result.condition_note != "ok"):
                    current = replace(current, free=("yaw",))
                    result = _estimate(frame, current, frame_opts)
                else:
                    held_arc = result.params.arc_length
            current, error, frame_opts = result.params, None, opts
        except (NoMatches, GeometryError, NonFiniteMatch) as exc:
            result, error = None, str(exc)
        runtime = (time.perf_counter() - start) * 1e3
        outcomes.append(FrameOutcome(record.t0, record.t1, current, result,
                                     error, runtime))
    return _trajectory([o.params for o in outcomes]), outcomes


def simulate_sequence(scenario: Scenario):
    """Generate per-frame match records and the ground-truth trajectory
    for a scenario. Frame pair k is drawn at its true yaw (the sequence's,
    else the truth's alone) from a fresh scene and noise seeded 1000 k
    past the scenario's.

    Returns (records, TrajectoryRecord, scale values).
    """
    yaws = ([scenario.truth.yaw] if scenario.sequence is None
            else scenario.sequence.yaw_per_frame())
    records, truths = [], []
    for k, yaw in enumerate(yaws):
        truth = replace(scenario.truth, yaw=yaw)
        scene = replace(scenario.scene, seed=scenario.scene.seed + 1000 * k)
        noise = replace(scenario.noise, seed=scenario.noise.seed + 1000 * k)
        match_sets, _ = generate_matches(generate_scene(scene), scenario.rig,
                                         truth, noise)
        # writeable copies of the match sets' read-only arrays, as
        # load_matches returns them
        records.append(FramePairRecord(k, k + 1, {
            s.camera_id: (s.pixels_t0.copy(), s.pixels_t1.copy())
            for s in match_sets}))
        truths.append(truth)
    return records, _trajectory(truths), [t.arc_length for t in truths]

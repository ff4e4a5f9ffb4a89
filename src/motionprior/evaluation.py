"""Segment-based trajectory error evaluation (KITTI devkit conventions)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .io_formats import TrajectoryRecord

DEFAULT_LENGTHS = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0]
START_STEP = 10


class TrajectoryTooShort(Exception):
    pass


@dataclass
class ErrorBucket:
    rotation_deg_per_m: list = field(default_factory=list)
    translation_percent: list = field(default_factory=list)

    @property
    def count(self):
        return len(self.rotation_deg_per_m)

    @property
    def mean_rotation(self):
        return float(np.mean(self.rotation_deg_per_m)) if self.count else np.nan

    @property
    def mean_translation(self):
        return float(np.mean(self.translation_percent)) if self.count else np.nan


@dataclass
class EvalReport:
    length_buckets: dict       # segment length -> ErrorBucket

    def mean_rotation(self, length):
        return self.length_buckets[length].mean_rotation

    def mean_translation(self, length):
        return self.length_buckets[length].mean_translation


def _between(rot_a, t_a, rot_b, t_b):
    """inverse(a) . b over stacks, as Pose.inverse and Pose.compose do."""
    inv = np.swapaxes(rot_a, -1, -2)
    return inv @ rot_b, (inv @ t_b[..., None] + -inv @ t_a[..., None])[..., 0]


def check_lengths(lengths):
    """The lengths; ValueError if there is none, or on the first not
    finite and positive."""
    if not len(lengths):
        raise ValueError("at least one segment length is needed")
    for length in lengths:
        if not 0 < length < np.inf:
            raise ValueError(f"segment length {length!r} must be finite "
                             "and positive")
    return lengths


def evaluate(est: TrajectoryRecord, gt: TrajectoryRecord,
             lengths=None) -> EvalReport:
    """Relative-pose error between estimate and ground truth over fixed
    segment lengths: rotation in deg/m, translation in percent. Segments
    start every START_STEP frames and end at the first frame farther along
    the ground truth than their length."""
    if len(est) != len(gt):
        raise ValueError("trajectories must have the same frame count: "
                         f"the estimate has {len(est)} poses, the ground "
                         f"truth {len(gt)}")
    # a repeated length is one bucket, not its segments twice
    lengths = check_lengths(list(dict.fromkeys(
        DEFAULT_LENGTHS if lengths is None else lengths)))
    # rotations (2, F, 3, 3) and translations (2, F, 3): estimate, truth
    rot, t = (np.array([[getattr(p, name) for p in traj.poses]
                        for traj in (est, gt)])
              for name in ("rotation", "translation"))
    dist = np.cumsum(np.append(0.0, np.linalg.norm(np.diff(t[1], axis=0),
                                                   axis=1)))
    starts = np.arange(0, len(gt), START_STEP)
    ends = np.searchsorted(dist, dist[starts, None] + np.array(lengths),
                           side="right")
    start_index, length_index = np.nonzero(ends < len(dist))  # start-major
    if not len(start_index):
        raise TrajectoryTooShort(
            "trajectory shorter than every requested segment length")
    first, last = starts[start_index], ends[start_index, length_index]
    d_rot, d_t = _between(rot[:, first], t[:, first], rot[:, last], t[:, last])
    err_rot, err_t = _between(d_rot[0], d_t[0], d_rot[1], d_t[1])
    cos = 0.5 * (np.trace(err_rot, axis1=1, axis2=2) - 1.0)
    seg = np.array(lengths, dtype=float)[length_index]
    rotation = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))) / seg
    translation = np.linalg.norm(err_t, axis=1) / seg * 100.0
    length_buckets = {l: ErrorBucket() for l in lengths}
    for j, rot, trans in zip(length_index.tolist(), rotation.tolist(),
                             translation.tolist()):
        length_buckets[lengths[j]].rotation_deg_per_m.append(rot)
        length_buckets[lengths[j]].translation_percent.append(trans)
    return EvalReport(length_buckets)

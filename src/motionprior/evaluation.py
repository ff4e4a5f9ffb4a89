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


def _cumulative_distance(poses):
    dist = [0.0]
    for prev, cur in zip(poses, poses[1:]):
        dist.append(dist[-1] + float(np.linalg.norm(
            cur.translation - prev.translation)))
    return dist


def _last_frame_for_length(dist, first, length):
    for i in range(first, len(dist)):
        if dist[i] > dist[first] + length:
            return i
    return -1


def _rotation_angle(matrix):
    d = 0.5 * (np.trace(matrix) - 1.0)
    return float(np.arccos(np.clip(d, -1.0, 1.0)))


def evaluate(est: TrajectoryRecord, gt: TrajectoryRecord,
             lengths=None) -> EvalReport:
    """Relative-pose error between estimate and ground truth over fixed
    segment lengths: rotation in deg/m, translation in percent. Segments
    start every START_STEP frames."""
    if len(est) != len(gt):
        raise ValueError("trajectories must have the same frame count")
    lengths = list(DEFAULT_LENGTHS if lengths is None else lengths)
    dist = _cumulative_distance(gt.poses)
    length_buckets = {l: ErrorBucket() for l in lengths}
    any_segment = False
    for first in range(0, len(gt), START_STEP):
        for length in lengths:
            last = _last_frame_for_length(dist, first, length)
            if last < 0:
                continue
            any_segment = True
            delta_gt = gt.poses[first].inverse().compose(gt.poses[last])
            delta_est = est.poses[first].inverse().compose(est.poses[last])
            error = delta_est.inverse().compose(delta_gt)
            rot = np.degrees(_rotation_angle(error.rotation)) / length
            trans = float(np.linalg.norm(error.translation)) / length * 100.0
            length_buckets[length].rotation_deg_per_m.append(rot)
            length_buckets[length].translation_percent.append(trans)
    if not any_segment:
        raise TrajectoryTooShort(
            "trajectory shorter than every requested segment length")
    return EvalReport(length_buckets)

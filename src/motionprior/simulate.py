"""Synthetic scenes, matches with pixel noise and uniform-image outliers,
and a brute-force grid oracle for verifying the estimator.

All randomness goes through numpy's PCG64 generator, which is seedable,
jumpable and produces the same stream on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import GridSpec
from .geometry import DegenerateTranslation, PinholeCamera
from .manifold import (PARAM_FIELDS, CameraRig, MotionParams, lowest_energy,
                       multi_camera_energy, pose_from_params)
from .metrics import MatchSet, MetricKind, RigFrame, RobustLoss


class NoVisiblePoints(Exception):
    pass


@dataclass(frozen=True)
class SceneSpec:
    num_points: int = 200
    depth_range: tuple = (5.0, 40.0)
    lateral_spread: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.num_points, (int, np.integer))
                and self.num_points >= 1):
            raise ValueError("num_points must be an integer >= 1")
        lo, hi = self.depth_range
        if not 0 < lo <= hi < np.inf:
            raise ValueError("depth_range must satisfy 0 < min <= max < inf")
        if not 0 <= self.lateral_spread < np.inf:
            raise ValueError("lateral_spread must be finite and >= 0")


@dataclass(frozen=True)
class NoiseSpec:
    pixel_sigma: float = 0.0
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.pixel_sigma < np.inf:
            raise ValueError("pixel_sigma must be finite and nonnegative")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must be in [0, 1]")


def generate_scene(spec: SceneSpec) -> np.ndarray:
    """Random 3D points in the vehicle frame at the first timestamp:
    x forward within the depth range, y/z scattered laterally."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    lo, hi = spec.depth_range
    x = rng.uniform(lo, hi, spec.num_points)
    y = rng.uniform(-spec.lateral_spread, spec.lateral_spread, spec.num_points)
    z = rng.uniform(-0.5 * spec.lateral_spread, 0.5 * spec.lateral_spread,
                    spec.num_points)
    return np.stack([x, y, z], axis=1)


def _project_visible(model, points_cam):
    """Pixels (2, n, 2) of camera-frame points (2, n, 3) at t0 and t1, and
    the mask of the points seen at both: positive depth, inside the image.
    One pass over both times; a point not in front keeps pixel (0, 0)."""
    seen = points_cam[..., 2:] > 1e-9
    homo = points_cam @ model.intrinsics.matrix.T
    pixels = np.divide(homo[..., :2], homo[..., 2:], where=seen,
                       out=np.zeros(seen.shape[:-1] + (2,)))
    if model.image_size is not None:
        seen &= ((pixels >= 0) & (pixels <= np.subtract(model.image_size, 1))
                 ).all(axis=-1, keepdims=True)
    return pixels, seen[0, :, 0] & seen[1, :, 0]


def generate_matches(points, rig: CameraRig, truth: MotionParams,
                     noise: NoiseSpec):
    """Project scene points through the true motion into every camera;
    ValueError if a camera is not a pinhole.

    Returns (match_sets, inlier_labels): one MatchSet per camera that sees
    at least one point at both timestamps, and parallel boolean arrays
    marking which matches are uncorrupted.
    """
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise NoVisiblePoints("empty scene")
    for cam in rig.cameras:
        if not isinstance(cam.model, PinholeCamera):
            raise ValueError(f"camera {cam.camera_id}: simulation needs a "
                             "pinhole camera")
    rng = np.random.Generator(np.random.PCG64(noise.seed))
    motion = pose_from_params(truth)
    rot_m, t_m = motion.rotation, motion.translation
    match_sets = []
    labels = []
    for cam in rig.cameras:
        # the camera at t0 is the extrinsic, at t1 motion . extrinsic;
        # inverse(R, t).apply(p) = p R + (-R^T t), as Pose computes it
        rot, t = cam.extrinsic.rotation, cam.extrinsic.translation
        cam_t0 = points @ rot + -rot.T @ t
        rot, t = rot_m @ rot, rot_m @ t + t_m
        pixels, visible = _project_visible(
            cam.model, np.stack([cam_t0, points @ rot + -rot.T @ t]))
        if not visible.any():
            continue
        px0, px1 = pixels[:, visible]
        n = len(px0)
        if noise.pixel_sigma > 0:
            px0 = px0 + rng.normal(0.0, noise.pixel_sigma, px0.shape)
            px1 = px1 + rng.normal(0.0, noise.pixel_sigma, px1.shape)
        inlier = np.ones(n, dtype=bool)
        n_out = int(round(noise.outlier_fraction * n))
        if n_out > 0:
            chosen = rng.choice(n, size=n_out, replace=False)
            inlier[chosen] = False
            size = cam.model.image_size or (1000, 1000)
            px1[chosen, 0] = rng.uniform(0, size[0] - 1, n_out)
            px1[chosen, 1] = rng.uniform(0, size[1] - 1, n_out)
        match_sets.append(MatchSet(cam.camera_id, px0, px1))
        labels.append(inlier)
    if not match_sets:
        raise NoVisiblePoints("no point visible in any camera at both times")
    return match_sets, labels


def grid_search_oracle(rig, match_sets, bounds: dict, resolution: int,
                       loss: RobustLoss, metric: MetricKind,
                       template: MotionParams) -> MotionParams:
    """Exhaustive minimum of the multi-camera energy over the template's
    free parameters; ties break to smallest |yaw| then smallest arc.
    ValueError on bounds that GridSpec rejects."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    rows = GridSpec({f: (*bounds[f], resolution)
                     for f in template.free}).points(template)
    frame = RigFrame.from_matches(rig, match_sets, metric)
    best = lowest_energy(rows, multi_camera_energy(rows, frame, loss))
    if best is None:
        raise DegenerateTranslation("every grid point was degenerate")
    return template.with_values(**{f: float(rows[best, PARAM_FIELDS.index(f)])
                                   for f in template.free})

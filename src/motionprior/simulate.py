"""Synthetic scenes, sparse-flow generation with noise/outliers, and a
brute-force grid oracle for verifying the estimator.

All randomness goes through numpy's PCG64 generator, which is seedable,
jumpable and produces the same stream on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import GridSpec
from .geometry import DegenerateTranslation
from .manifold import (PARAM_FIELDS, CameraRig, MotionParams, lowest_energy,
                       multi_camera_energy, pose_from_params)
from .metrics import MatchSet, MetricKind, RigFrame, RobustLoss

OUTLIER_MODES = ("uniform_image", "wrong_association")


class NoVisiblePoints(Exception):
    pass


@dataclass(frozen=True)
class SceneSpec:
    num_points: int = 200
    depth_range: tuple = (5.0, 40.0)
    lateral_spread: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.num_points < 1:
            raise ValueError("num_points must be >= 1")
        lo, hi = self.depth_range
        if not (0 < lo <= hi):
            raise ValueError("depth range must satisfy 0 < min <= max")


@dataclass(frozen=True)
class NoiseSpec:
    pixel_sigma: float = 0.0
    outlier_fraction: float = 0.0
    outlier_mode: str = "uniform_image"
    seed: int = 0

    def __post_init__(self):
        if self.pixel_sigma < 0:
            raise ValueError("pixel_sigma must be nonnegative")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must be in [0, 1]")
        if self.outlier_mode not in OUTLIER_MODES:
            raise ValueError(f"unknown outlier mode {self.outlier_mode!r}")


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
    """Pixels and a visibility mask (positive depth, inside the image)."""
    n = len(points_cam)
    visible = points_cam[:, 2] > 1e-9
    pixels = np.zeros((n, 2))
    if np.any(visible):
        pixels[visible] = model.project(points_cam[visible])
        inside = np.zeros(n, dtype=bool)
        inside[visible] = model.contains(pixels[visible])
        visible = visible & inside
    return pixels, visible


def generate_matches(points, rig: CameraRig, truth: MotionParams,
                     noise: NoiseSpec):
    """Project scene points through the true motion into every camera.

    Returns (match_sets, inlier_labels): one MatchSet per camera that sees
    at least one point at both timestamps, and parallel boolean arrays
    marking which matches are uncorrupted.
    """
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise NoVisiblePoints("empty scene")
    rng = np.random.Generator(np.random.PCG64(noise.seed))
    motion = pose_from_params(truth)
    match_sets = []
    labels = []
    for cam in rig.cameras:
        cam_t0 = cam.extrinsic.inverse().apply(points)
        cam_t1 = motion.compose(cam.extrinsic).inverse().apply(points)
        px0, vis0 = _project_visible(cam.model, cam_t0)
        px1, vis1 = _project_visible(cam.model, cam_t1)
        visible = vis0 & vis1
        if not np.any(visible):
            continue
        px0 = px0[visible]
        px1 = px1[visible]
        n = len(px0)
        if noise.pixel_sigma > 0:
            px0 = px0 + rng.normal(0.0, noise.pixel_sigma, px0.shape)
            px1 = px1 + rng.normal(0.0, noise.pixel_sigma, px1.shape)
        inlier = np.ones(n, dtype=bool)
        n_out = int(round(noise.outlier_fraction * n))
        if n_out > 0:
            chosen = rng.choice(n, size=n_out, replace=False)
            inlier[chosen] = False
            if noise.outlier_mode == "uniform_image":
                size = getattr(cam.model, "image_size", None) or (1000, 1000)
                px1[chosen, 0] = rng.uniform(0, size[0] - 1, n_out)
                px1[chosen, 1] = rng.uniform(0, size[1] - 1, n_out)
            elif n_out >= 2:
                # wrong_association: cyclically reassign t1 endpoints
                px1[chosen] = px1[np.roll(chosen, 1)]
            else:
                # a single wrong association needs a partner to steal from
                other = (chosen[0] + 1) % n
                px1[chosen[0]] = px1[other]
        match_sets.append(MatchSet(cam.camera_id, px0, px1))
        labels.append(inlier)
    if not match_sets:
        raise NoVisiblePoints("no point visible in any camera at both times")
    return match_sets, labels


def grid_search_oracle(rig, match_sets, bounds: dict, resolution: int,
                       loss: RobustLoss, metric: MetricKind,
                       template: MotionParams) -> MotionParams:
    """Exhaustive minimum of the multi-camera energy over the template's
    free parameters; ties break to smallest |yaw| then smallest arc."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    for f in template.free:
        lo, hi = bounds[f]
        if not lo <= hi:
            raise ValueError(f"invalid bounds for {f}")
    rows = GridSpec({f: (*bounds[f], resolution)
                     for f in template.free}).points(template)
    frame = RigFrame.from_matches(rig, match_sets, metric)
    best = lowest_energy(rows, multi_camera_energy(rows, frame, loss))
    if best is None:
        raise DegenerateTranslation("every grid point was degenerate")
    return template.with_values(**{f: float(rows[best, PARAM_FIELDS.index(f)])
                                   for f in template.free})

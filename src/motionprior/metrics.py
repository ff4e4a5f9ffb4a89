"""Reconstruction-free epipolar error metrics and robust losses.

Two metrics are provided: the symmetric pixel distance to epipolar lines
(pinhole only) and the sine of the angle between a line of sight and its
epipolar plane (any central camera model).

Both are num / |vec| on rays in the vehicle frame, v = Re b (plane, b
the unit bearing) or v = Re K^-1 x (line), lifted from pixels x only in
RigFrame.from_matches: v1^T M v0 over |M v0|, or over |(K^-T Re^T M v0)[:2]|
and |(K^-T Re^T M^T v1)[:2]|, all linear in a camera's M (see manifold).
A RigFrame holds these linear maps for all cameras of a frame pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import PinholeCamera

DEGENERACY_EPS = 1e-12

# Design rows per match: row 0 holds the numerator, each slice the
# divisor vector of one residual
_PLANE_ROWS = (slice(1, 4),)                   # M v0
_LINE_ROWS = (slice(1, 3), slice(3, 5))        # d1, then d0


class NonFiniteMatch(ValueError):
    """A pixel array, or the ray a pixel lifts to, holds NaN or inf."""


class MetricKind(enum.Enum):
    GEOLINE = "geoline"
    ANGLEPLANE = "angleplane"


@dataclass(frozen=True)
class RobustLoss:
    """Loss rho applied to squared residuals. width is in residual units
    (pixels for the line metric, sine-of-angle for the plane metric)."""

    kind: str = "none"
    width: float = 1.0

    KINDS = ("none", "cauchy", "huber", "tukey")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        # the losses divide by width^2, which must be non-zero and finite
        w = float(self.width)
        if not (w > 0 and 0.0 < w * w < np.inf):
            raise ValueError(f"loss width {self.width!r} must be positive "
                             "with a finite, non-zero square")

    def evaluate(self, squared: np.ndarray):
        """Return (rho(s), drho/ds) elementwise for squared residuals s."""
        s = np.asarray(squared, dtype=float)
        if self.kind == "none":
            return s.copy(), np.ones_like(s)
        w2 = self.width * self.width
        if self.kind == "cauchy":
            return w2 * np.log1p(s / w2), 1.0 / (1.0 + s / w2)
        if self.kind == "huber":
            r = np.sqrt(s)
            small = s <= w2
            value = np.where(small, s, 2.0 * self.width * r - w2)
            deriv = np.where(small, 1.0,
                             self.width / np.maximum(r, DEGENERACY_EPS))
            return value, deriv
        # tukey, normalized so rho(s) ~ s near zero
        clipped = np.minimum(s / w2, 1.0)
        value = (w2 / 3.0) * (1.0 - (1.0 - clipped) ** 3)
        deriv = np.where(s <= w2, (1.0 - clipped) ** 2, 0.0)
        return value, deriv


@dataclass(frozen=True)
class MatchSet:
    """One camera's pixel matches for a frame pair: read-only (n, 2)."""

    camera_id: int
    pixels_t0: np.ndarray
    pixels_t1: np.ndarray

    def __post_init__(self):
        for name in ("pixels_t0", "pixels_t1"):
            arr = np.asarray(getattr(self, name), float)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(f"{name} has shape {arr.shape}, not (n, 2)")
            if not np.isfinite(arr).all():
                raise NonFiniteMatch(f"{name} holds NaN or inf")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.pixels_t0) != len(self.pixels_t1):
            raise ValueError("match arrays must have equal length")

    def __len__(self):
        return len(self.pixels_t0)


@dataclass(frozen=True)
class RigFrame:
    """The N matches of the non-empty match sets, in order, for one
    metric: design (9C, q N) maps the stacked vec M of their C cameras to
    the q rows of each match (row j of match n is column j N + n);
    camera_index (N,) holds a match's camera slot, lever_arms (C, 3) its te."""

    metric: MetricKind
    lever_arms: np.ndarray
    camera_index: np.ndarray
    design: np.ndarray

    def __len__(self):
        return len(self.camera_index)

    @classmethod
    @np.errstate(invalid="ignore", divide="ignore")   # NonFiniteMatch instead
    def from_matches(cls, rig, match_sets, metric: MetricKind) -> "RigFrame":
        """Lift each non-empty set's pixels to rays (see the module).
        Raises KeyError for a camera not in the rig, ValueError for the
        line metric on a non-pinhole camera, NonFiniteMatch naming a camera
        whose ray is not finite, and the model's errors (OutOfDomain)."""
        sets = [s for s in match_sets if len(s)]
        rows = _LINE_ROWS if metric is MetricKind.GEOLINE else _PLANE_ROWS
        cams = [rig.camera(s.camera_id) for s in sets]
        sizes = [len(s) for s in sets]
        design = np.zeros((len(sets), 3, 3, rows[-1].stop, sum(sizes)))
        end = 0
        for c, (s, cam) in enumerate(zip(sets, cams)):
            start, end = end, end + len(s)
            block = design[c, ..., start:end]    # [i, j, row, match]: M_ij
            if metric is MetricKind.GEOLINE:
                if not isinstance(cam.model, PinholeCamera):
                    raise ValueError(f"camera {s.camera_id}: the geoline "
                                     "metric needs a pinhole camera")
                lift = cam.extrinsic.rotation @ cam.model.intrinsics.matrix_inv
                v0, v1 = (lift @ np.vstack([p.T, np.ones(len(s))])
                          for p in (s.pixels_t0, s.pixels_t1))
                image = lift[:, :2, None]          # [i, a]: (K^-T Re^T)_ai
                # d1: image_ai v0_j; d0: image_aj v1_i
                block[:, :, rows[0]] = image[:, None] * v0[None, :, None]
                block[:, :, rows[1]] = v1[:, None, None] * image[None]
            else:
                rays = cam.extrinsic.rotation @ cam.model.pixel_to_bearing(
                    np.concatenate([s.pixels_t0, s.pixels_t1])).T
                v0, v1 = rays[:, :len(s)], rays[:, len(s):]
                for a in range(3):                    # (M v0)_a: M_aj v0_j
                    block[a, :, rows[0].start + a] = v0
            if not (np.isfinite(v0).all() and np.isfinite(v1).all()):
                raise NonFiniteMatch(f"camera {s.camera_id}: non-finite ray")
            block[:, :, 0] = v1[:, None] * v0[None]    # v1^T M v0: v1_i v0_j
        return cls(metric, np.reshape([c.extrinsic.translation
                                       for c in cams], (-1, 3)),
                   np.repeat(np.arange(len(sets)), sizes),
                   design.reshape(9 * len(sets), rows[-1].stop * sum(sizes)))


def _ratios(m, frame: RigFrame, d_m, rows):
    """num / |vec| for each slice of divisor rows, at stacked vec M m
    (..., 9C), and valid where |vec| >= DEGENERACY_EPS; with d_m
    (..., P, 9C) also the ratio's derivatives (..., P, N)."""
    shape = (rows[-1].stop, len(frame))
    values = (m @ frame.design).reshape(m.shape[:-1] + shape)
    if d_m is not None:
        derivs = (d_m @ frame.design).reshape(d_m.shape[:-1] + shape)
    out = []
    for r in rows:
        vec = values[..., r, :]
        norm = np.sqrt(np.einsum("...in,...in->...n", vec, vec))
        valid = norm >= DEGENERACY_EPS
        norm = np.where(valid, norm, 1.0)
        ratio = values[..., 0, :] / norm
        if d_m is None:
            out.append((ratio, valid))
            continue
        # d(num / |v|) = (d_num - (num / |v|) (v . dv) / |v|) / |v|
        norm = norm[..., None, :]
        out.append((ratio, valid, (derivs[..., 0, :] - ratio[..., None, :]
                                   * np.einsum("...in,...pin->...pn", vec,
                                               derivs[..., r, :])
                                   / norm) / norm))
    return out


def geoline_residuals(m: np.ndarray, frame: RigFrame, d_m=None):
    """Per-match symmetric line distances (d1, d0) and a validity mask at
    stacked vec M m (..., 9C) of the frame's cameras, each (..., N). Given
    derivatives d_m (..., P, 9C), also those of d1 and d0, (..., P, N)."""
    (d1, ok1, *dd1), (d0, ok0, *dd0) = _ratios(m, frame, d_m, _LINE_ROWS)
    return (d1, d0, ok1 & ok0, *dd1, *dd0)


def angleplane_residuals(m: np.ndarray, frame: RigFrame, d_m=None):
    """Per-match signed plane-angle residuals and a validity mask at
    stacked vec M m (..., 9C) of the frame's cameras, each (..., N). Given
    derivatives d_m (..., P, 9C), also those of the residuals, (..., P, N)."""
    return _ratios(m, frame, d_m, _PLANE_ROWS)[0]

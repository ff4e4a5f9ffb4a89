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
    """Loss rho on squared residuals s: "none" (s) or "cauchy" (w^2 log(1
    + s / w^2)), w = width in residual units (pixels for the line metric,
    sine-of-angle for the plane metric)."""

    kind: str = "none"
    width: float = 1.0

    KINDS = ("none", "cauchy")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        # the Cauchy loss divides by width^2, which must be non-zero and finite
        w = float(self.width)
        if not (w > 0 and 0.0 < w * w < np.inf):
            raise ValueError(f"loss width {self.width!r} must be positive "
                             "with a finite, non-zero square")

    def rho(self, squared: np.ndarray) -> np.ndarray:
        """Return rho(s) elementwise for squared residuals s."""
        return self._rho_and_ratio(squared)[0]

    def evaluate(self, squared: np.ndarray):
        """Return (rho(s), drho/ds) elementwise for squared residuals s."""
        rho, ratio = self._rho_and_ratio(squared)
        if ratio is None:
            return rho, np.ones_like(rho)
        return rho, 1.0 / (1.0 + ratio)

    def _rho_and_ratio(self, squared):
        """rho(s) and, for the Cauchy loss, s / w^2 (None for "none")."""
        s = np.asarray(squared, dtype=float)
        if self.kind == "none":
            return s.copy(), None
        w2 = self.width * self.width
        ratio = s / w2
        return w2 * np.log1p(ratio), ratio


@dataclass(frozen=True)
class MatchSet:
    """One camera's pixel matches for a frame pair: read-only (n, 2)
    copies, so the caller's arrays stay writeable."""

    camera_id: int
    pixels_t0: np.ndarray
    pixels_t1: np.ndarray

    def __post_init__(self):
        for name in ("pixels_t0", "pixels_t1"):
            arr = np.array(getattr(self, name), float)
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
    """num / |vec| for each slice of divisor rows at stacked vec M m
    (..., 9C): components (..., N, c), one per slice, and valid (..., N),
    False where any |vec| < DEGENERACY_EPS (a smaller |vec| is raised to
    it); with d_m (..., P, 9C), also the derivatives (..., N, c, P)."""
    shape = (rows[-1].stop, len(frame))
    values = (m @ frame.design).reshape(m.shape[:-1] + shape)
    if d_m is not None:
        derivs = (d_m @ frame.design).reshape(d_m.shape[:-1] + shape)
    ratios, jac = [], []
    for r in rows:
        vec = values[..., r, :]
        norm = np.sqrt(np.einsum("...in,...in->...n", vec, vec))
        ok = norm >= DEGENERACY_EPS
        valid = valid & ok if ratios else ok
        np.maximum(norm, DEGENERACY_EPS, out=norm)
        ratio = values[..., 0, :] / norm
        ratios.append(ratio)
        if d_m is not None:
            # d(num / |v|) = (d_num - (num / |v|) (v . dv) / |v|) / |v|
            norm = norm[..., None, :]
            jac.append(((derivs[..., 0, :] - ratio[..., None, :]
                         * np.einsum("...in,...pin->...pn", vec,
                                     derivs[..., r, :])
                         / norm) / norm).swapaxes(-1, -2))   # (..., N, P)
    if len(rows) == 1:                  # one slice: views, no copy
        return (ratios[0][..., None], valid, *[j[..., None, :] for j in jac])
    return (np.stack(ratios, axis=-1), valid,
            *([np.stack(jac, axis=-2)] if jac else []))


def residuals(m: np.ndarray, frame: RigFrame, d_m=None):
    """The frame's metric function at m (and d_m), called by its
    module-level name, so that a wrapper installed there sees the call."""
    if frame.metric is MetricKind.GEOLINE:
        return geoline_residuals(m, frame, d_m)
    return angleplane_residuals(m, frame, d_m)


def geoline_residuals(m: np.ndarray, frame: RigFrame, d_m=None):
    """Per-match symmetric line distances at stacked vec M m (..., 9C) of
    the frame's cameras: components (..., N, 2), d1 then d0, and valid
    (..., N); given d_m (..., P, 9C), also derivatives (..., N, 2, P)."""
    return _ratios(m, frame, d_m, _LINE_ROWS)


def angleplane_residuals(m: np.ndarray, frame: RigFrame, d_m=None):
    """Per-match signed plane-angle residuals at stacked vec M m (..., 9C)
    of the frame's cameras: components (..., N, 1) and valid (..., N);
    given d_m (..., P, 9C), also derivatives (..., N, 1, P)."""
    return _ratios(m, frame, d_m, _PLANE_ROWS)

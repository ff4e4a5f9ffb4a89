"""Reconstruction-free epipolar error metrics and robust losses.

Two metrics are provided: the symmetric pixel distance to epipolar lines
(pinhole only) and the sine of the angle between a line of sight and its
epipolar plane (any central camera model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

DEGENERACY_EPS = 1e-12


class NonFiniteMatch(ValueError):
    """A pixel or bearing array holds NaN or inf."""


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
        if not self.width > 0:
            raise ValueError("loss width must be positive")

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
    """All matches of one camera for a frame pair, stored columnar."""

    camera_id: int
    pixels_t0: np.ndarray
    pixels_t1: np.ndarray
    bearings_t0: np.ndarray
    bearings_t1: np.ndarray

    def __post_init__(self):
        arrays = {name: np.atleast_2d(np.asarray(getattr(self, name), float))
                  for name in ("pixels_t0", "pixels_t1", "bearings_t0",
                               "bearings_t1")}
        p0, p1, b0, b1 = arrays.values()
        n = len(p0)
        if not (len(p1) == len(b0) == len(b1) == n):
            raise ValueError("match arrays must have equal length")
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise NonFiniteMatch(f"{name} holds NaN or inf")
        if n and (np.abs(np.linalg.norm(b0, axis=1) - 1.0).max() > 1e-9
                  or np.abs(np.linalg.norm(b1, axis=1) - 1.0).max() > 1e-9):
            raise ValueError("bearings must be unit norm")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.pixels_t0)

    @classmethod
    def from_pixels(cls, camera_id: int, model, pixels_t0, pixels_t1) -> "MatchSet":
        p0 = np.atleast_2d(np.asarray(pixels_t0, dtype=float))
        p1 = np.atleast_2d(np.asarray(pixels_t1, dtype=float))
        if len(p0) == 0:
            empty = np.empty((0, 3))
            return cls(camera_id, p0.reshape(0, 2), p1.reshape(0, 2), empty, empty)
        return cls(camera_id, p0, p1,
                   model.pixel_to_bearing(p0), model.pixel_to_bearing(p1))

    def subset(self, index) -> "MatchSet":
        return MatchSet(self.camera_id, self.pixels_t0[index],
                        self.pixels_t1[index], self.bearings_t0[index],
                        self.bearings_t1[index])


def _lift(pixels: np.ndarray) -> np.ndarray:
    pixels = np.atleast_2d(np.asarray(pixels, dtype=float))
    return np.hstack([pixels, np.ones((len(pixels), 1))])


def geoline_residuals(f: np.ndarray, s: MatchSet, d_f=None):
    """Per-match symmetric line distances (d1, d0) and a validity mask.
    For stacked matrices f (..., 3, 3) each output has shape (..., n).
    Given derivatives d_f (..., P, 3, 3) of f, also those of d1 and d0,
    each (..., P, n)."""
    h0 = _lift(s.pixels_t0)
    h1 = _lift(s.pixels_t1)
    line0 = h0 @ np.swapaxes(f, -1, -2)   # F x0, per row
    line1 = h1 @ f                        # F^T x1, per row
    den0 = np.hypot(line0[..., 0], line0[..., 1])
    den1 = np.hypot(line1[..., 0], line1[..., 1])
    valid = (den0 >= DEGENERACY_EPS) & (den1 >= DEGENERACY_EPS)
    num = np.einsum("...ij,ij->...i", line0, h1)
    den0 = np.where(valid, den0, 1.0)
    den1 = np.where(valid, den1, 1.0)
    d1 = num / den0
    d0 = num / den1
    if d_f is None:
        return d1, d0, valid
    d_line0 = h0 @ np.swapaxes(d_f, -1, -2)
    d_line1 = h1 @ d_f
    d_num = np.einsum("...ij,ij->...i", d_line0, h1)
    # d(num / den) = (d_num - (num / den) d_den) / den, d_den = l . dl / den
    dd1 = (d_num - d1[..., None, :] * _planar_dot(line0, d_line0)
           / den0[..., None, :]) / den0[..., None, :]
    dd0 = (d_num - d0[..., None, :] * _planar_dot(line1, d_line1)
           / den1[..., None, :]) / den1[..., None, :]
    return d1, d0, valid, dd1, dd0


def _planar_dot(lines, d_lines):
    """(a da + b db) of lines (..., n, 3) with d_lines (..., P, n, 3)."""
    return np.einsum("...ij,...pij->...pi", lines[..., :2], d_lines[..., :2])


def angleplane_residuals(e: np.ndarray, s: MatchSet, d_e=None):
    """Per-match signed plane-angle residuals and a validity mask. For
    stacked matrices e (..., 3, 3) both outputs have shape (..., n). Given
    derivatives d_e (..., P, 3, 3) of e, also those of the residuals,
    (..., P, n)."""
    normals = s.bearings_t0 @ np.swapaxes(e, -1, -2)
    norms = np.linalg.norm(normals, axis=-1)
    valid = norms >= DEGENERACY_EPS
    norms = np.where(valid, norms, 1.0)
    r = np.einsum("...ij,ij->...i", normals, s.bearings_t1) / norms
    if d_e is None:
        return r, valid
    # dr = (b1 . dn - r (n . dn) / |n|) / |n|, dn = dE b0
    d_normals = s.bearings_t0 @ np.swapaxes(d_e, -1, -2)
    unit = normals / norms[..., None]
    d_r = (np.einsum("...pij,ij->...pi", d_normals, s.bearings_t1)
           - r[..., None, :] * np.einsum("...ij,...pij->...pi", unit,
                                         d_normals)) / norms[..., None, :]
    return r, valid, d_r

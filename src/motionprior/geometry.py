"""Rigid transforms and camera models."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ORTHONORMALITY_TOL = 1e-9

TRANSLATION_EPS = 1e-12     # below: pure rotation, no epipolar geometry


class GeometryError(Exception):
    pass


class DegenerateTranslation(GeometryError):
    """Epipolar geometry is undefined for a pure rotation."""


class BehindCamera(GeometryError):
    pass


class OutOfDomain(GeometryError):
    pass


@dataclass(frozen=True)
class Pose:
    """Rigid transform. apply() carries points from the child frame into
    the parent frame: p_parent = R @ p_child + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotation, dtype=float).reshape(3, 3)
        t = np.array(self.translation, dtype=float).reshape(3)
        if not (np.isfinite(R).all() and np.isfinite(t).all()):
            raise ValueError("pose holds NaN or inf")
        if np.abs(R.T @ R - np.eye(3)).max() >= ORTHONORMALITY_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) >= ORTHONORMALITY_TOL:
            raise ValueError("rotation determinant is not +1")
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        """Apply `other` first, then self."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def matrix34(self) -> np.ndarray:
        return np.hstack([self.rotation, self.translation[:, None]])

    def isclose(self, other: "Pose", atol: float = 1e-12) -> bool:
        return (np.allclose(self.rotation, other.rotation, atol=atol, rtol=0.0)
                and np.allclose(self.translation, other.translation,
                                atol=atol, rtol=0.0))


def _normalized(rays: np.ndarray) -> np.ndarray:
    """The rows (n, 3) scaled to unit length, in place."""
    rays /= np.sqrt(np.einsum("ij,ij->i", rays, rays))[:, None]
    return rays


def check_image_size(size):
    """None, or (width, height) as floats; ValueError unless two finite > 0."""
    if size is not None:
        size = tuple(float(v) for v in size)
        if not (len(size) == 2 and all(0 < v < np.inf for v in size)):
            raise ValueError(f"image_size {size} needs two finite values > 0")
    return size


def skew(t) -> np.ndarray:
    """Cross-product matrix: skew(t) @ v == cross(t, v)."""
    t = np.asarray(t, dtype=float).reshape(3)
    return np.array([[0.0, -t[2], t[1]],
                     [t[2], 0.0, -t[0]],
                     [-t[1], t[0], 0.0]])


@dataclass(frozen=True)
class PinholeIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "skew"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, self.skew, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    @cached_property
    def matrix_inv(self) -> np.ndarray:
        """K^-1, computed once per instance (read-only)."""
        inv = np.linalg.inv(self.matrix)
        inv.setflags(write=False)
        return inv


class PinholeCamera:
    """Pinhole model. image_size (width, height) bounds the valid domain
    when given; used by the simulator for visibility and outlier draws."""

    def __init__(self, intrinsics: PinholeIntrinsics, image_size=None):
        self.intrinsics = intrinsics
        self.image_size = check_image_size(image_size)

    def pixel_to_bearing(self, pixels: np.ndarray) -> np.ndarray:
        """Unit rays (n, 3) of pixels (n, 2): K^-1 x normalized, positive z."""
        k_inv = self.intrinsics.matrix_inv
        rays = np.asarray(pixels, dtype=float) @ k_inv[:, :2].T + k_inv[:, 2]
        return _normalized(rays)

    def project(self, points: np.ndarray) -> np.ndarray:
        """Pixels (n, 2) of camera-frame points (n, 3)."""
        points = np.asarray(points, dtype=float)
        if np.any(points[:, 2] <= 0):
            raise BehindCamera("point has non-positive depth")
        homo = points @ self.intrinsics.matrix.T
        return homo[:, :2] / homo[:, 2:3]


class GenericCamera:
    """Tabulated camera model: a rectangular grid of ray directions with
    bilinear interpolation (output normalized to unit length). It lifts
    pixels to rays and has no inverse, so the simulator cannot project
    through it. Table entries need not be unit vectors; tabulating
    z-normalized rays makes interpolation exact for any model that is
    projective-linear in the pixel, pinholes included."""

    def __init__(self, u0, v0, du, dv, table: np.ndarray, image_size=None):
        table = np.ascontiguousarray(table, dtype=float)
        if table.ndim != 3 or table.shape[2] != 3:
            raise ValueError("bearing table must have shape (nv, nu, 3)")
        self.u0, self.v0, self.du, self.dv = float(u0), float(v0), float(du), float(dv)
        self.table = table
        self.image_size = check_image_size(image_size)
        # the lift's constants, in grid units (u, v): nodes lie on integers
        nv, nu = table.shape[:2]
        self._flat = table.reshape(-1, 3)                 # a view, not a copy
        self._origin, self._step = np.array([u0, v0]), np.array([du, dv])
        self._last = np.array([nu - 1.0, nv - 1.0])
        self._last_cell = np.array([nu - 2, nv - 2])
        slack = 1e-9 / self._step                      # 1e-9 px
        self._low, self._high = -slack, self._last + slack
        self._strides = np.array([1, nu])
        self._corners = np.array([0, 1, nu, nu + 1])[:, None]

    @classmethod
    def from_camera(cls, camera, width, height, step=8.0):
        """Tabulate another camera model on a regular pixel grid; rays are
        stored z-normalized (the model must look into the z > 0 halfspace)."""
        us = np.arange(0.0, width + 1e-9, step)
        vs = np.arange(0.0, height + 1e-9, step)
        uu, vv = np.meshgrid(us, vs)
        pix = np.stack([uu.ravel(), vv.ravel()], axis=1)
        rays = camera.pixel_to_bearing(pix)
        if np.any(rays[:, 2] <= 0):
            raise ValueError("tabulated rays must have positive z")
        rays = rays / rays[:, 2:3]
        return cls(0.0, 0.0, step, step, rays.reshape(len(vs), len(us), 3),
                   image_size=(width, height))

    def pixel_to_bearing(self, pixels: np.ndarray) -> np.ndarray:
        """Unit rays (n, 3) of pixels (n, 2); OutOfDomain for a pixel
        (NaN included) more than 1e-9 px outside the table."""
        grid = (np.asarray(pixels, dtype=float) - self._origin) / self._step
        if not ((grid >= self._low) & (grid <= self._high)).all():
            raise OutOfDomain("pixel outside the tabulated domain")
        np.clip(grid, 0.0, self._last, out=grid)
        cell = np.minimum(grid.astype(np.intp), self._last_cell)
        frac = grid - cell
        fu, fv = frac[:, :1], frac[:, 1:]
        # corners (u, v), (u+1, v), (u, v+1), (u+1, v+1): (4, n, 3)
        c = self._flat.take(cell @ self._strides + self._corners, axis=0)
        low = c[0] + fu * (c[1] - c[0])
        high = c[2] + fu * (c[3] - c[2])
        return _normalized(low + fv * (high - low))


def _axis_rotation(angle, i: int, j: int) -> np.ndarray:
    """Rotations by `angle` in the (i, j) plane: angle.shape + (3, 3)."""
    angle = np.asarray(angle, dtype=float)
    r = np.zeros(angle.shape + (3, 3))
    r[..., 3 - i - j, 3 - i - j] = 1.0
    r[..., i, i] = r[..., j, j] = np.cos(angle)
    r[..., j, i] = np.sin(angle)
    r[..., i, j] = -r[..., j, i]
    return r


def rotation_x(angle) -> np.ndarray:
    return _axis_rotation(angle, 1, 2)


def rotation_y(angle) -> np.ndarray:
    return _axis_rotation(angle, 2, 0)


def rotation_z(angle) -> np.ndarray:
    return _axis_rotation(angle, 0, 1)


# Camera axes (z forward, x right, y down) expressed in the vehicle frame
# (x forward, y left, z up), for a camera looking along the vehicle's nose.
_FORWARD_CAMERA_ROTATION = np.array([[0.0, 0.0, 1.0],
                                     [-1.0, 0.0, 0.0],
                                     [0.0, -1.0, 0.0]])


def forward_camera_extrinsic(translation) -> Pose:
    """Extrinsic pose of a forward-looking camera mounted at `translation`
    in the vehicle frame."""
    return Pose(_FORWARD_CAMERA_ROTATION, translation)

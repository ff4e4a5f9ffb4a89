"""Single-track motion manifold, the rig-frame residual kernel and the
multi-camera energy. All cameras share one vehicle motion (R, t); in the
vehicle frame a camera with lever arm te sees it only through
M = [u]x R^T, u = R^T (te - t) - te. Both are linear in the motion
features of a row (see metrics): the eight planar features
phi = kron((1, c - 1, s), (1, tx, ty))[1:], c - 1 = -2 sin^2(yaw / 2),
or, on rows with pitch or roll, the 29 tilted ones. So a row costs its
features and one product with the frame's joint map, for all cameras
at once, and the energy holds 8 floats a row of them (29 on a block
with a tilted row). A camera with |u| < TRANSLATION_EPS, u read off the
product's last 3C columns, has all its matches invalid; a row where no
camera translates is unusable. Built from phi, M keeps full precision
at pure rotation (see metrics).
The public entry points build one `RigFrame` per frame pair; below them,
code takes that frame and (K, 4) rows: `rig_residuals(rows, frame, wrt)`
and `multi_camera_energy(rows, frame, loss)`."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (TRANSLATION_EPS, Pose, rotation_x, rotation_y,
                       rotation_z, skew)
from .metrics import PLANAR_FEATURES, RigFrame, RobustLoss, residuals

PARAM_FIELDS = ("yaw", "arc_length", "pitch", "roll")

YAW_SERIES_SWITCH = 1e-6

# Rows x matches of match work, and at most this many rows of motion
# features, that multi_camera_energy evaluates at once (bounds its memory)
ENERGY_CHUNK = 16384


@dataclass(frozen=True)
class MotionParams:
    """Coordinates on the motion manifold: one frame-to-frame step is an
    arc of yaw `yaw` and length `arc_length`, optionally tilted by pitch
    and roll. `free` names the fields the optimizer may vary."""

    yaw: float = 0.0
    arc_length: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0
    free: tuple = ("yaw",)

    def __post_init__(self):
        if not abs(self.yaw) < np.pi:
            raise ValueError("per-frame yaw must lie in (-pi, pi)")
        if not (math.isfinite(self.arc_length) and math.isfinite(self.pitch)
                and math.isfinite(self.roll)):
            raise ValueError("arc_length, pitch and roll must be finite")
        unknown = set(self.free) - set(PARAM_FIELDS)
        if unknown:
            raise ValueError(f"unknown free fields: {sorted(unknown)}")
        # canonical declaration order, the order of the solver's columns
        ordered = tuple(f for f in PARAM_FIELDS if f in self.free)
        object.__setattr__(self, "free", ordered)

    def with_values(self, **kwargs) -> "MotionParams":
        return replace(self, **kwargs)


def params_rows(p: MotionParams) -> np.ndarray:
    """The (1, 4) row [yaw, arc_length, pitch, roll] of a manifold point."""
    return np.array([[p.yaw, p.arc_length, p.pitch, p.roll]])


def _chord(g, cos, sin, deriv=False):
    """The chord of a unit arc at yaws g (K,) with cosines and sines cos,
    sin, and (with `deriv`; else zero off the series) its d/dyaw:
    (2, K, 2). Closed form (2 sin^2(g/2) is exact where 1 - cos(g)
    cancels), series near zero yaw."""
    chord = np.zeros((2, len(g), 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        chord[0, :, 0] = sin / g
        chord[0, :, 1] = 2.0 * np.sin(0.5 * g) ** 2 / g
        if deriv:
            chord[1, :, 0] = (cos - chord[0, :, 0]) / g
            chord[1, :, 1] = (sin - chord[0, :, 1]) / g
    if np.count_nonzero(near := np.abs(g) < YAW_SERIES_SWITCH):
        gs = g[near]
        chord[0, near, 0] = 1.0 - gs * gs / 6.0 + gs ** 4 / 120.0
        chord[0, near, 1] = gs / 2.0 - gs ** 3 / 24.0
        chord[1, near, 0] = -gs / 3.0 + gs ** 3 / 30.0
        chord[1, near, 1] = 0.5 - gs * gs / 8.0
    return chord


def motion_arrays(rows, wrt=None):
    """Rotations (K, 3, 3) and translations (K, 3) of the vehicle frame at
    t1 in the frame at t0, for K rows [yaw, arc_length, pitch, roll]. The
    planar translation is the chord of a circular arc (a series near zero
    yaw); pitch and roll tilt only the rows where either is non-zero.
    With `wrt`, a tuple of P field names, also the derivatives of both
    over those fields, (K, P, 3, 3) and (K, P, 3)."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    g = rows[:, 0]
    cos, sin = np.cos(g), np.sin(g)
    rot = np.zeros((len(rows), 3, 3))
    rot[:, 0, 0] = rot[:, 1, 1] = cos
    rot[:, 1, 0], rot[:, 0, 1], rot[:, 2, 2] = sin, -sin, 1.0
    chord = np.zeros((2, len(rows), 3))
    chord[..., :2] = _chord(g, cos, sin, wrt is not None)
    t = chord * rows[:, 1:2]                    # [t, dt / dyaw]
    if np.count_nonzero(rows[:, 2:]):
        tilted = rows[:, 2:].any(axis=1)
        rot[tilted] = (rot[tilted] @ rotation_y(rows[tilted, 2])
                       @ rotation_x(rows[tilted, 3]))
    if wrt is None:
        return rot, t[0]
    # R = Rz Ry Rx: dR/dyaw = [ez]x R, rows -R_1, R_0, 0; dR/droll = R [ex]x
    d_rot = np.zeros((len(rows), len(wrt), 3, 3))
    d_t = np.zeros((len(rows), len(wrt), 3))
    for k, field in enumerate(wrt):
        if field == "yaw":
            np.negative(rot[:, 1], out=d_rot[:, k, 0])
            d_rot[:, k, 1] = rot[:, 0]
            d_t[:, k] = t[1]
        elif field == "arc_length":
            d_t[:, k] = chord[0]
        elif field == "pitch":
            d_rot[:, k] = (rotation_z(g) @ rotation_y(rows[:, 2])
                           @ skew([0.0, 1.0, 0.0]) @ rotation_x(rows[:, 3]))
        else:
            d_rot[:, k] = rot @ skew([1.0, 0.0, 0.0])
    return rot, t[0], d_rot, d_t


def pose_from_params(p: MotionParams) -> Pose:
    """Pose of the vehicle frame at t1 expressed in the frame at t0."""
    rot, t = motion_arrays(params_rows(p))
    return Pose(rot[0], t[0])


@dataclass(frozen=True)
class RigCamera:
    camera_id: int
    model: object
    extrinsic: Pose


@dataclass(frozen=True)
class CameraRig:
    cameras: tuple

    def __post_init__(self):
        cams = tuple(self.cameras)
        if not cams:
            raise ValueError("rig needs at least one camera")
        ids = [c.camera_id for c in cams]
        if len(set(ids)) != len(ids):
            raise ValueError("camera ids must be unique")
        object.__setattr__(self, "cameras", cams)

    def camera(self, camera_id: int) -> RigCamera:
        for c in self.cameras:
            if c.camera_id == camera_id:
                return c
        raise KeyError(f"no camera with id {camera_id}")


def _kron(a, b):
    """kron(a, b)[1:] over the last axes of a (..., 1 + A) and b
    (..., 1 + B), which broadcast: the features whose leading 1 x 1 term
    (M and u have none) is dropped."""
    prod = a[..., :, None] * b[..., None, :]
    prod = prod.reshape(prod.shape[:-2] + (prod.shape[-2] * prod.shape[-1],))
    return prod[..., 1:]


def _turn(angles, axis):
    """R^T - I (K, 3, 3) of turns by `angles` (K,) about a unit axis:
    (c - 1) (I - e e^T) - s [e]x, with c - 1 = -2 sin^2(angle / 2), so
    the identity is never subtracted."""
    e = np.eye(3)[axis]
    return (-2.0 * np.sin(0.5 * angles)[:, None, None] ** 2
            * (np.eye(3) - np.outer(e, e))
            - np.sin(angles)[:, None, None] * skew(e))


def _tilted_features(rows, wrt):
    """The 29 tilted features (K, 29), with `wrt` stacked with their
    derivatives (K, 1 + P, 29). D = Rx^T Ry^T Rz^T - I is expanded over
    the three turns' R^T - I, so it does not cancel either."""
    _, t, *d_motion = motion_arrays(rows, wrt)
    d_x, d_y, d_z = (_turn(rows[:, col], axis)
                     for col, axis in ((3, 0), (2, 1), (0, 2)))
    w = d_y + d_z + d_y @ d_z
    a = np.ones((len(rows), 10))
    a[:, 1:] = (d_x + w + d_x @ w).reshape(-1, 9)
    b = np.ones((len(rows), 3))
    b[:, 1:] = t[:, :2]
    if wrt is None:
        return _kron(a, b)
    d_rot, d_t = d_motion
    d_a = np.zeros((len(rows), len(wrt), 10))
    d_a[..., 1:] = d_rot.swapaxes(-1, -2).reshape(len(rows), len(wrt), 9)
    d_b = np.zeros((len(rows), len(wrt), 3))
    d_b[..., 1:] = d_t[..., :2]
    return np.concatenate([_kron(a, b)[:, None], _kron(d_a, b[:, None])
                           + _kron(a[:, None], d_b)], axis=1)


def _planar_row(g, arc, wrt):
    """The planar features of one row (yaw g, arc length arc) and their
    derivatives over `wrt` (yaw or arc_length), as one flat list of
    1 + P blocks of 8, from math scalars: a few microseconds, where the
    numpy build's per-call overhead alone takes tens."""
    s, c, h = math.sin(g), math.cos(g), math.sin(0.5 * g)
    d = -2.0 * (h * h)                                  # c - 1
    if abs(g) < YAW_SERIES_SWITCH:
        cx, cy = 1.0 - g * g / 6.0 + g ** 4 / 120.0, g / 2.0 - g ** 3 / 24.0
        dcx, dcy = -g / 3.0 + g ** 3 / 30.0, 0.5 - g * g / 8.0
    else:
        cx, cy = s / g, -d / g
        dcx, dcy = (c - cx) / g, (s - cy) / g
    tx, ty = cx * arc, cy * arc
    out = [tx, ty, d, d * tx, d * ty, s, s * tx, s * ty]
    for field in wrt:
        if field == "yaw":
            dd, ds, dtx, dty = -s, c, dcx * arc, dcy * arc
        else:
            dd, ds, dtx, dty = 0.0, 0.0, cx, cy
        out += [dtx, dty, dd, dd * tx + d * dtx, dd * ty + d * dty,
                ds, ds * tx + s * dtx, ds * ty + s * dty]
    return out


def motion_features(rows, wrt=None):
    """The motion features phi (K, F) of K rows [yaw, arc_length, pitch,
    roll] (see metrics): the 8 planar ones, or the 29 tilted ones if a
    row has pitch or roll or `wrt` names either; with `wrt`, a tuple of P
    field names, stacked with their derivatives (K, 1 + P, F). Rows
    without derivatives are built with numpy, planar rows with them one
    by one from math scalars (the solver's one-row call)."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    if np.count_nonzero(rows[:, 2:]) or {"pitch", "roll"} & set(wrt or ()):
        return _tilted_features(rows, wrt)
    if wrt is not None:
        return np.array([_planar_row(g, arc, wrt)
                         for g, arc in rows[:, :2].tolist()]).reshape(
            len(rows), 1 + len(wrt), PLANAR_FEATURES)
    g = rows[:, 0]
    sin = np.sin(g)
    a = np.stack([np.ones(len(g)), -2.0 * np.sin(0.5 * g) ** 2, sin], 1)
    b = np.ones((len(g), 3))
    b[:, 1:] = _chord(g, None, sin)[0] * rows[:, 1:2]
    return _kron(a, b)


def _kernel(frame: RigFrame, phi):
    """rig_residuals at motion features phi (K, F), or stacked with their
    derivatives (K, 1 + P, F): one product with the frame's joint map
    gives the match rows and, in its last 3C columns, each camera's u."""
    x = phi @ frame.joint_map(phi.shape[-1])
    x, d_x = (x, None) if x.ndim == 2 else (x[:, 0], x[:, 1:])
    u = x[:, x.shape[1] - 3 * len(frame.lever_arms):].reshape(len(x), -1, 3)
    translates = (u * u).sum(axis=-1) >= TRANSLATION_EPS ** 2
    components, valid, *jac = residuals(x, frame, d_x)
    if not translates.all():
        valid &= translates[:, frame.camera_index]
    usable = translates.any(axis=1) | (translates.shape[1] == 0)
    return (components, valid, usable, *jac)


def rig_residuals(rows, frame: RigFrame, wrt=None):
    """The batched residual kernel at K manifold points (rows [yaw,
    arc_length, pitch, roll]) over the frame's N matches. Returns
    components (K, N, c), the signed plane sine (c = 1) or line distances
    d1, d0 (c = 2); valid (K, N), False on epipole-degenerate matches and
    on every match of a camera with |u| < TRANSLATION_EPS; and usable
    (K,), False on rows where no camera translates. With `wrt`, a tuple
    of P field names, also the derivatives (K, N, c, P)."""
    return _kernel(frame, motion_features(rows, wrt))


def multi_camera_energy(rows, frame: RigFrame, loss: RobustLoss):
    """Robust epipolar energy over all cameras of a caller's frame at K
    rows [yaw, arc_length, pitch, roll]: (K,) energies, inf on rows
    outside the yaw domain or where no populated camera translates. The
    motion features are built for up to ENERGY_CHUNK rows at a time (the
    29 tilted ones for all of a block's rows if one is tilted), the match
    work done for ENERGY_CHUNK rows x matches at a time, so the memory
    beside the (K,) output does not grow with K."""
    rows = np.asarray(rows, float).reshape(-1, 4)
    step = max(1, ENERGY_CHUNK // max(1, len(frame)))
    # a block holds whole chunks, so a row's chunk, and the rounding of
    # its matrix product, do not depend on the block size
    block = step * (ENERGY_CHUNK // step)
    energies = np.empty(len(rows))
    for b in range(0, len(rows), block):
        phi = motion_features(rows[b:b + block])
        for i in range(0, len(phi), step):
            components, valid, usable = _kernel(frame, phi[i:i + step])
            usable &= np.abs(rows[b + i:b + i + step, 0]) < np.pi
            rho = loss.rho(np.einsum("...c,...c->...", components,
                                     components))
            energies[b + i:b + i + step] = np.where(
                usable, np.sum(rho, axis=-1, where=valid), np.inf)
    return energies


def lowest_energy(rows, energies):
    """Index of the lowest finite energy, ties broken by smallest |yaw|,
    then smallest arc length, then first row; None if none is finite."""
    finite = np.flatnonzero(np.isfinite(energies))
    if not len(finite):
        return None
    rows = rows[finite]
    order = np.lexsort((rows[:, 1], np.abs(rows[:, 0]), energies[finite]))
    return int(finite[order[0]])

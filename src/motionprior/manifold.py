"""Single-track motion manifold, the rig-frame residual kernel and the
multi-camera energy. All cameras share one vehicle motion (R, t); in the
vehicle frame a camera with lever arm te sees it only through
M = [u]x R^T, u = R^T (te - t) - te, computed for all cameras at once.
The public entry points build one `RigFrame` per frame pair; below them,
code takes that frame and (K, 4) rows: `rig_residuals(rows, frame, wrt)`
and `multi_camera_energy(rows, frame, loss)`."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (TRANSLATION_EPS, Pose, rotation_x, rotation_y,
                       rotation_z, skew)
from .metrics import RigFrame, RobustLoss, residuals

PARAM_FIELDS = ("yaw", "arc_length", "pitch", "roll")

YAW_SERIES_SWITCH = 1e-6

# Rows x matches of match work, and at most this many rows of row geometry,
# that multi_camera_energy evaluates at once (bounds its memory)
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


# u @ _SKEW, reshaped to (..., 3, 3), is the cross-product matrix of u;
# _AXIS_SKEW[i] is that of the i-th unit axis
_SKEW = np.stack([skew(axis).ravel() for axis in np.eye(3)])
_AXIS_SKEW = _SKEW.reshape(3, 3, 3)


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
    # chord per unit arc, then d/dyaw: closed form (rot's (cos, sin) column;
    # 2 sin^2(g/2) is exact where 1 - cos(g) cancels), series near zero yaw
    chord = np.zeros((2, len(rows), 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        chord[0, :, 0] = sin / g
        chord[0, :, 1] = 2.0 * np.sin(0.5 * g) ** 2 / g
        if wrt is not None:
            chord[1, :, :2] = (rot[:, :2, 0] - chord[0, :, :2]) / g[:, None]
    if np.count_nonzero(near := np.abs(g) < YAW_SERIES_SWITCH):
        gs = g[near]
        chord[0, near, 0] = 1.0 - gs * gs / 6.0 + gs ** 4 / 120.0
        chord[0, near, 1] = gs / 2.0 - gs ** 3 / 24.0
        chord[1, near, 0] = -gs / 3.0 + gs ** 3 / 30.0
        chord[1, near, 1] = 0.5 - gs * gs / 8.0
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
                           @ _AXIS_SKEW[1] @ rotation_x(rows[:, 3]))
        else:
            d_rot[:, k] = rot @ _AXIS_SKEW[0]
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


def _cross(u):
    """Cross-product matrices (..., 3, 3) of vectors u (..., 3)."""
    return (u @ _SKEW).reshape(u.shape[:-1] + (3, 3))


def _row_geometry(rows, frame: RigFrame, wrt=None):
    """The row geometry of the kernel: stacked vec M (K, 9C) of the
    frame's cameras at K rows, zero for a camera with |u| < TRANSLATION_EPS,
    and usable (K,), False on rows where no camera translates; with `wrt`,
    also dM (K, P, 9C), dM = [du]x R^T + [u]x dR^T, du = dR^T (te - t) -
    R^T dt."""
    rot, t, *d_motion = motion_arrays(rows, wrt)
    k_rows, cams = len(rot), len(frame.lever_arms)
    arm = frame.lever_arms - t[:, None]                 # (K, C, 3)
    u = arm @ rot - frame.lever_arms                     # R^T (te - t) - te
    cam_usable = np.einsum("kci,kci->kc", u, u) >= TRANSLATION_EPS ** 2
    rt, cross_u = rot.swapaxes(-1, -2)[:, None], _cross(u)
    m = cross_u @ rt
    m *= cam_usable[..., None, None]
    m = m.reshape(k_rows, 9 * cams)
    usable = cam_usable.any(axis=1) | (cams == 0)
    if wrt is None:
        return m, usable
    d_rot, d_t = d_motion
    du = arm[:, None] @ d_rot - (d_t @ rot)[:, :, None]
    d_m = (_cross(du) @ rt[:, None] + cross_u[:, None]
           @ d_rot.swapaxes(-1, -2)[:, :, None]).reshape(
               k_rows, len(wrt), 9 * cams)
    return m, usable, d_m


def rig_residuals(rows, frame: RigFrame, wrt=None):
    """The batched residual kernel at K manifold points (rows [yaw,
    arc_length, pitch, roll]) over the frame's N matches. Returns
    components (K, N, c), the signed plane sine (c = 1) or line distances
    d1, d0 (c = 2); valid (K, N), False on epipole-degenerate matches, as
    is every match of a camera with |u| < TRANSLATION_EPS (its M is 0);
    and usable (K,), False on rows where no camera translates. With `wrt`,
    a tuple of P field names, also the derivatives (K, N, c, P)."""
    m, usable, *d_m = _row_geometry(rows, frame, wrt)
    components, valid, *jac = residuals(m, frame, *d_m)
    return (components, valid, usable, *jac)


def multi_camera_energy(rows, frame: RigFrame, loss: RobustLoss):
    """Robust epipolar energy over all cameras of a caller's frame at K
    rows [yaw, arc_length, pitch, roll]: (K,) energies, inf on rows
    outside the yaw domain or where no populated camera translates. The
    row geometry is worked out for up to ENERGY_CHUNK rows at a time, the
    match work for ENERGY_CHUNK rows x matches at a time, so the memory
    beside the (K,) output does not grow with K."""
    rows = np.asarray(rows, float).reshape(-1, 4)
    step = max(1, ENERGY_CHUNK // max(1, len(frame)))
    # a block holds whole chunks, so a row's chunk, and the rounding of
    # its matrix product, do not depend on the block size
    block = step * (ENERGY_CHUNK // step)
    energies = np.empty(len(rows))
    for b in range(0, len(rows), block):
        block_rows = rows[b:b + block]
        m, usable = _row_geometry(block_rows, frame)
        usable &= np.abs(block_rows[:, 0]) < np.pi
        for i in range(0, len(m), step):
            components, valid = residuals(m[i:i + step], frame)
            rho = loss.rho(np.einsum("...c,...c->...", components,
                                     components))
            energies[b + i:b + i + step] = np.where(
                usable[i:i + step], np.sum(rho, axis=-1, where=valid), np.inf)
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

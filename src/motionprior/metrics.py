"""Reconstruction-free epipolar error metrics and robust losses.

Two metrics are provided: the symmetric pixel distance to epipolar lines
(pinhole only) and the sine of the angle between a line of sight and its
epipolar plane (any central camera model).

Both are num / |vec| on rays in the vehicle frame, v = Re b (plane, b
the unit bearing) or v = Re K^-1 x (line), lifted from pixels x only in
RigFrame.from_matches: v1^T M v0 over |M v0|, or over |(K^-T Re^T M v0)[:2]|
and |(K^-T Re^T M^T v1)[:2]|, all linear in a camera's M.

A camera with lever arm te sees the vehicle motion (R, t), t = (tx, ty,
0), through M = [u]x R^T, u = R^T (te - t) - te. With D = R^T - I,
M = D [te]x - [te]x D - [t]x - D [t]x and u = D te - t - D t: both are
linear in the 29 motion features kron((1, vec D), (1, tx, ty))[1:], by
the maps `feature_maps(te)`. Without pitch and roll D = (c - 1) A + s B
(c, s the cosine and sine of the yaw, A = diag(1, 1, 0), B = [[0, 1, 0],
[-1, 0, 0], [0, 0, 0]]), so eight features phi = kron((1, c - 1, s),
(1, tx, ty))[1:] suffice; PLANAR_TO_TILTED (8, 29) maps them to the 29.
A RigFrame holds, for all cameras of a frame pair, the maps from the
features to every match's rows and to each camera's u, and the metric
functions take the features phi (..., F), F = 8 or 29, never a matrix.
Built from phi, M and u do not cancel: at pure rotation they are c - 1
and s times fixed arrays, where R^T (te - t) - te loses to rounding the
digits of |te| that |u| ~ |yaw| |te| does not have.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import PinholeCamera, skew

DEGENERACY_EPS = 1e-12

# Design rows per match: row 0 holds the numerator, each slice the
# divisor vector of one residual
_PLANE_ROWS = (slice(1, 4),)                   # M v0
_LINE_ROWS = (slice(1, 3), slice(3, 5))        # d1, then d0

PLANAR_FEATURES, TILTED_FEATURES = 8, 29

# (1, c - 1, s) @ _YAW_TO_D is (1, vec D) of an untilted motion, so the
# planar features times PLANAR_TO_TILTED are the tilted ones
_YAW_TO_D = np.zeros((3, 10))
_YAW_TO_D[0, 0] = 1.0
_YAW_TO_D[1, 1:] = np.diag([1.0, 1.0, 0.0]).ravel()
_YAW_TO_D[2, 1:] = skew([0.0, 0.0, -1.0]).ravel()
PLANAR_TO_TILTED = np.kron(_YAW_TO_D, np.eye(3))[1:, 1:]


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


def _maps_at(te):
    """feature_maps at lever arm te, term by term (see there)."""
    units = np.eye(9).reshape(9, 3, 3)       # vec D's unit matrices
    arms = np.stack([te, -np.eye(3)[0], -np.eye(3)[1]])    # te, -ex, -ey
    cross = np.stack([skew(a) for a in arms])
    m, u = np.zeros((10, 3, 3, 3)), np.zeros((10, 3, 3))
    m[0, 1:], u[0, 1:] = cross[1:], arms[1:]
    m[1:, 0] = units @ cross[0] - cross[0] @ units
    m[1:, 1:] = units[:, None] @ cross[1:]
    u[1:] = np.einsum("dij,bj->dbi", units, arms)
    return np.concatenate([m.reshape(30, 9), u.reshape(30, 3)], 1)[1:]


# The feature maps are linear in te: [vec M | u] (4, F, 12) at te = 0, then
# per unit of each component of te, of the 29 tilted and the 8 planar
# features
_TILTED_BY_ARM = np.stack([_maps_at(np.zeros(3))]
                          + [_maps_at(e) - _maps_at(np.zeros(3))
                             for e in np.eye(3)])
_PLANAR_BY_ARM = PLANAR_TO_TILTED @ _TILTED_BY_ARM


def feature_maps(lever_arms, features=TILTED_FEATURES):
    """vec M (..., F, 9) and u (..., F, 3) of cameras with lever arms te
    (..., 3) as linear maps of the F = 29 tilted features (feature (a, b)
    of kron((1, vec D), (1, tx, ty)) maps to the coefficient of D_a t_b in
    M = D [te]x - [te]x D - [t]x - D [t]x and in u = D te - t - D t; see
    the module) or of the F = 8 planar ones."""
    by_arm = _PLANAR_BY_ARM if features == PLANAR_FEATURES else _TILTED_BY_ARM
    arms = np.asarray(lever_arms, dtype=float)
    maps = by_arm[0] + (arms @ by_arm[1:].reshape(3, -1)).reshape(
        arms.shape[:-1] + by_arm.shape[1:])
    return maps[..., :9], maps[..., 9:]


def _feature_design(lifts, lever_arms, features):
    """The design (F, q N) and u map (F, 3C) of F features: for each
    camera's lift (v0, v1, image), the q rows of its matches with M
    replaced by each feature's M map (see RigFrame)."""
    m_maps, u_maps = feature_maps(lever_arms, features)
    design = []
    for m, (v0, v1, image) in zip(m_maps.reshape(-1, features, 3, 3),
                                   lifts):
        m_v0 = (m.reshape(-1, 3) @ v0).reshape(features, 3, -1)   # M v0
        rows = [np.einsum("fin,in->fn", m_v0, v1)[:, None]]    # v1^T M v0
        if image is None:
            rows.append(m_v0)
        else:                                       # d1, then d0
            mt_v1 = (m.swapaxes(1, 2).reshape(-1, 3) @ v1).reshape(
                features, 3, -1)                    # M^T v1
            rows += [image.T @ m_v0, image.T @ mt_v1]
        design.append(np.concatenate(rows, axis=1))
    design = (np.concatenate(design, axis=-1) if design
              else np.empty((features, 0)))
    return (design.reshape(features, -1),
            u_maps.swapaxes(0, 1).reshape(features, -1))


@dataclass(frozen=True)
class RigFrame:
    """The N matches of the non-empty match sets, in order, for one
    metric. Lift c of `lifts` holds the rays v0, v1 (3, n_c) of camera
    slot c's matches in the vehicle frame and, for the line metric, its
    image (3, 2) = (K^-T Re^T)^T (else None). Row 0 of a match is
    v1^T M v0, rows 1-3 M v0 (plane), or rows 1-2 image^T M v0 and 3-4
    image^T M^T v1 (line). design (8, q N) maps the planar motion
    features to the q rows of all matches (row j of match n is column
    j N + n) and u_map (8, 3C) to the u of the C cameras, whose norm
    decides which cameras translate (see the module and manifold);
    camera_index (N,) holds a match's camera slot, lever_arms (C, 3) its
    te. `maps` gives the same two maps of the 29 tilted features, built
    on first use and cached."""

    metric: MetricKind
    lever_arms: np.ndarray
    camera_index: np.ndarray
    lifts: tuple
    design: np.ndarray
    u_map: np.ndarray

    def __len__(self):
        return len(self.camera_index)

    def maps(self, features: int):
        """The design and u map of PLANAR_FEATURES or TILTED_FEATURES."""
        if features == PLANAR_FEATURES:
            return self.design, self.u_map
        return self._tilted_maps

    @cached_property
    def _tilted_maps(self):
        return _feature_design(self.lifts, self.lever_arms, TILTED_FEATURES)

    @classmethod
    @np.errstate(invalid="ignore", divide="ignore")   # NonFiniteMatch instead
    def from_matches(cls, rig, match_sets, metric: MetricKind) -> "RigFrame":
        """Lift each non-empty set's pixels to rays (see the module).
        Raises KeyError for a camera not in the rig, ValueError for the
        line metric on a non-pinhole camera, NonFiniteMatch naming a camera
        whose ray is not finite, and the model's errors (OutOfDomain)."""
        sets = [s for s in match_sets if len(s)]
        cams = [rig.camera(s.camera_id) for s in sets]
        lifts = []
        for s, cam in zip(sets, cams):
            if metric is MetricKind.GEOLINE:
                if not isinstance(cam.model, PinholeCamera):
                    raise ValueError(f"camera {s.camera_id}: the geoline "
                                     "metric needs a pinhole camera")
                lift = cam.extrinsic.rotation @ cam.model.intrinsics.matrix_inv
                v0, v1 = (lift @ np.vstack([p.T, np.ones(len(s))])
                          for p in (s.pixels_t0, s.pixels_t1))
                image = lift[:, :2]
            else:
                rays = cam.extrinsic.rotation @ cam.model.pixel_to_bearing(
                    np.concatenate([s.pixels_t0, s.pixels_t1])).T
                v0, v1, image = rays[:, :len(s)], rays[:, len(s):], None
            if not (np.isfinite(v0).all() and np.isfinite(v1).all()):
                raise NonFiniteMatch(f"camera {s.camera_id}: non-finite ray")
            lifts.append((v0, v1, image))
        lever_arms = np.reshape([c.extrinsic.translation for c in cams],
                                (-1, 3))
        return cls(metric, lever_arms,
                   np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
                   tuple(lifts),
                   *_feature_design(lifts, lever_arms, PLANAR_FEATURES))


def _ratios(phi, frame: RigFrame, d_phi, rows):
    """num / |vec| for each slice of divisor rows at motion features phi
    (..., F): components (..., N, c), one per slice, and valid (..., N),
    False where any |vec| < DEGENERACY_EPS (a smaller |vec| is raised to
    it); with d_phi (..., P, F), also the derivatives (..., N, c, P)."""
    design = frame.maps(phi.shape[-1])[0]
    shape = (rows[-1].stop, len(frame))
    values = (phi @ design).reshape(phi.shape[:-1] + shape)
    if d_phi is not None:
        derivs = (d_phi @ design).reshape(d_phi.shape[:-1] + shape)
    ratios, jac = [], []
    for r in rows:
        vec = values[..., r, :]
        norm = np.sqrt(np.einsum("...in,...in->...n", vec, vec))
        ok = norm >= DEGENERACY_EPS
        valid = valid & ok if ratios else ok
        np.maximum(norm, DEGENERACY_EPS, out=norm)
        ratio = values[..., 0, :] / norm
        ratios.append(ratio)
        if d_phi is not None:
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


def residuals(phi: np.ndarray, frame: RigFrame, d_phi=None):
    """The frame's metric function at phi (and d_phi), called by its
    module-level name, so that a wrapper installed there sees the call."""
    if frame.metric is MetricKind.GEOLINE:
        return geoline_residuals(phi, frame, d_phi)
    return angleplane_residuals(phi, frame, d_phi)


def geoline_residuals(phi: np.ndarray, frame: RigFrame, d_phi=None):
    """Per-match symmetric line distances at motion features phi (..., F)
    (F = 8 planar or 29 tilted): components (..., N, 2), d1 then d0, and
    valid (..., N); given d_phi (..., P, F), also derivatives
    (..., N, 2, P)."""
    return _ratios(phi, frame, d_phi, _LINE_ROWS)


def angleplane_residuals(phi: np.ndarray, frame: RigFrame, d_phi=None):
    """Per-match signed plane-angle residuals at motion features phi
    (..., F) (F = 8 planar or 29 tilted): components (..., N, 1) and valid
    (..., N); given d_phi (..., P, F), also derivatives (..., N, 1, P)."""
    return _ratios(phi, frame, d_phi, _PLANE_ROWS)

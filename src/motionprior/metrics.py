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
A RigFrame holds, for all cameras of a frame pair, one joint map from
the features to every match's rows and then to each camera's u, and the
metric functions take its product with the features phi (..., F), F = 8
or 29, never a matrix: the caller makes that one product and reads u
off its last columns.
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
        s = np.asarray(squared, dtype=float)
        if self.kind == "none":
            return s.copy()
        w2 = self.width * self.width
        return w2 * np.log1p(s / w2)

    def evaluate(self, squared: np.ndarray):
        """Return (rho(s), drho/ds) elementwise for squared residuals s."""
        s = np.asarray(squared, dtype=float)
        if self.kind == "none":
            return s.copy(), np.ones_like(s)
        w2 = self.width * self.width
        ratio = s / w2
        return w2 * np.log1p(ratio), 1.0 / (1.0 + ratio)


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


def _joint_map(lifts, lever_arms, features):
    """The joint map (F, q N + 3C) of F features: for each camera's lift
    (v0, v1, image), the q rows of its matches with M replaced by each
    feature's M map, then the C cameras' u maps (see RigFrame)."""
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
    design = (np.concatenate(design, axis=-1).reshape(features, -1)
              if design else np.empty((features, 0)))
    return np.concatenate(
        [design, u_maps.swapaxes(0, 1).reshape(features, -1)], axis=1)


@dataclass(frozen=True)
class RigFrame:
    """The N matches of the non-empty match sets, in order, for one
    metric. Lift c of `lifts` holds the rays v0, v1 (3, n_c) of camera
    slot c's matches in the vehicle frame and, for the line metric, its
    image (3, 2) = (K^-T Re^T)^T (else None). Row 0 of a match is
    v1^T M v0, rows 1-3 M v0 (plane), or rows 1-2 image^T M v0 and 3-4
    image^T M^T v1 (line). joint (8, q N + 3C) maps the planar motion
    features to the q rows of all matches (row j of match n is column
    j N + n), then to the u of the C cameras (columns q N + 3c + i),
    whose norm decides which cameras translate: one product gives both
    (see the module and manifold). camera_index (N,) holds a match's
    camera slot, lever_arms (C, 3) its te. `joint_map` gives the same map
    of the 29 tilted features, built on first use and cached."""

    metric: MetricKind
    lever_arms: np.ndarray
    camera_index: np.ndarray
    lifts: tuple
    joint: np.ndarray

    def __len__(self):
        return len(self.camera_index)

    def joint_map(self, features: int):
        """The joint map of PLANAR_FEATURES or TILTED_FEATURES."""
        if features == PLANAR_FEATURES:
            return self.joint
        return self._tilted_joint

    @cached_property
    def _tilted_joint(self):
        return _joint_map(self.lifts, self.lever_arms, TILTED_FEATURES)

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
            pixels = np.concatenate([s.pixels_t0, s.pixels_t1])
            if metric is MetricKind.GEOLINE:
                if not isinstance(cam.model, PinholeCamera):
                    raise ValueError(f"camera {s.camera_id}: the geoline "
                                     "metric needs a pinhole camera")
                lift = cam.extrinsic.rotation @ cam.model.intrinsics.matrix_inv
                rays = lift @ np.vstack([pixels.T, np.ones(len(pixels))])
                image = lift[:, :2]
            else:
                rays = (cam.extrinsic.rotation
                        @ cam.model.pixel_to_bearing(pixels).T)
                image = None
            if not np.isfinite(rays).all():
                raise NonFiniteMatch(f"camera {s.camera_id}: non-finite ray")
            lifts.append((rays[:, :len(s)], rays[:, len(s):], image))
        lever_arms = np.array([c.extrinsic.translation for c in cams],
                              float).reshape(-1, 3)
        return cls(metric, lever_arms,
                   np.arange(len(sets)).repeat([len(s) for s in sets]),
                   tuple(lifts),
                   _joint_map(lifts, lever_arms, PLANAR_FEATURES))


def _ratios(x, frame: RigFrame, d_x, slices, length):
    """num / |vec| on the match rows of x (..., Q): row 0 the numerator,
    then `slices` divisor vectors of `length` rows. Components (..., N, c),
    one per slice, and valid (..., N), False where any |vec| <
    DEGENERACY_EPS (a smaller |vec| is raised to it); with d_x (..., P,
    Q), also the derivatives (..., N, c, P)."""
    n = len(frame)
    stop = (1 + slices * length) * n
    vecs = x[..., n:stop].reshape(x.shape[:-1] + (slices, length, n))
    norm = np.sqrt(np.einsum("...in,...in->...n", vecs, vecs))   # (..., c, N)
    valid = (norm >= DEGENERACY_EPS).all(axis=-2)
    np.maximum(norm, DEGENERACY_EPS, out=norm)
    ratio = x[..., None, :n] / norm
    if d_x is None:
        return ratio.swapaxes(-1, -2), valid
    # d(num / |v|) = (d_num - (num / |v|) (v . dv) / |v|) / |v|, (..., P, c, N)
    d_vecs = d_x[..., n:stop].reshape(d_x.shape[:-1] + (slices, length, n))
    norm = norm[..., None, :, :]
    jac = (d_x[..., None, :n] - ratio[..., None, :, :]
           * (vecs[..., None, :, :, :] * d_vecs).sum(axis=-2) / norm) / norm
    return ratio.swapaxes(-1, -2), valid, jac.swapaxes(-1, -3)


def residuals(x: np.ndarray, frame: RigFrame, d_x=None):
    """The frame's metric function at x (and d_x), called by its
    module-level name, so that a wrapper installed there sees the call."""
    if frame.metric is MetricKind.GEOLINE:
        return geoline_residuals(x, frame, d_x)
    return angleplane_residuals(x, frame, d_x)


def geoline_residuals(x: np.ndarray, frame: RigFrame, d_x=None):
    """Per-match symmetric line distances at x = phi @ the frame's joint
    map (..., Q), phi the 8 planar or 29 tilted motion features:
    components (..., N, 2), d1 then d0, and valid (..., N); given d_x =
    d_phi @ the map (..., P, Q), also derivatives (..., N, 2, P)."""
    return _ratios(x, frame, d_x, 2, 2)             # d1, then d0


def angleplane_residuals(x: np.ndarray, frame: RigFrame, d_x=None):
    """Per-match signed plane-angle residuals at x = phi @ the frame's
    joint map (..., Q), phi the 8 planar or 29 tilted motion features:
    components (..., N, 1) and valid (..., N); given d_x = d_phi @ the
    map (..., P, Q), also derivatives (..., N, 1, P)."""
    return _ratios(x, frame, d_x, 1, 3)             # M v0

"""Reference implementations the tests check the package against.

They follow the per-camera pose path: the algebra of single poses
(p_parent = R p_child + t), a pinhole projection and a ray tabulator;
the closed-form derivatives of a rotation Rz Ry Rx over its three angles;
conjugate the vehicle motion to a camera, form its essential (and, for
pixels, fundamental) matrix, and evaluate each metric on it match by
match; sigma formed from the final solver state in one pass; M of a pure
rotation in exact rational arithmetic; the per-segment Pose path of the
trajectory evaluation; the cell-by-cell match writer, the line-by-line
number parser and the simulator's projection on the Pose path, one time at
a time, through K times the point over its depth and a point-by-point
image test. None of this is on the package's paths.
"""

import math
import warnings
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from motionprior.estimator import _solver_state
from motionprior.evaluation import START_STEP, ErrorBucket, EvalReport
from motionprior.geometry import (TRANSLATION_EPS, DegenerateTranslation,
                                  GenericCamera, PinholeCamera,
                                  PinholeIntrinsics, Pose, rotation_x,
                                  rotation_y, rotation_z, skew)
from motionprior.io_formats import (MATCH_HEADER, ParseError, _lines,
                                    _write_rows)
from motionprior.manifold import (CameraRig, RigCamera, multi_camera_energy,
                                  params_rows, pose_from_params)
from motionprior.metrics import (DEGENERACY_EPS, TILTED_FEATURES, MatchSet,
                                 MetricKind, RigFrame, feature_maps)

UNIT_CAM = PinholeCamera(PinholeIntrinsics(1.0, 1.0, 0.0, 0.0))


def identity() -> Pose:
    return Pose(np.eye(3), np.zeros(3))


def compose(a: Pose, b: Pose) -> Pose:
    """a . b: apply b first, then a."""
    return Pose(a.rotation @ b.rotation,
                a.rotation @ b.translation + a.translation)


def inverse(a: Pose) -> Pose:
    inv = a.rotation.T
    return Pose(inv, -inv @ a.translation)


def apply(a: Pose, points) -> np.ndarray:
    """Points (n, 3) or (3,) carried from a's child frame into its parent:
    R p + t."""
    return np.asarray(points, dtype=float) @ a.rotation.T + a.translation


def isclose(a: Pose, b: Pose, atol=1e-12) -> bool:
    return (np.allclose(a.rotation, b.rotation, atol=atol, rtol=0.0)
            and np.allclose(a.translation, b.translation, atol=atol,
                            rtol=0.0))


def rotation_derivatives(yaw, pitch, roll) -> np.ndarray:
    """dR over yaw, pitch and roll (3, 3, 3) of R = Rz Ry Rx: [ez]x R,
    Rz Ry [ey]x Rx and R [ex]x."""
    rz, ry, rx = rotation_z(yaw), rotation_y(pitch), rotation_x(roll)
    rot = rz @ ry @ rx
    return np.stack([skew([0.0, 0.0, 1.0]) @ rot,
                     rz @ ry @ skew([0.0, 1.0, 0.0]) @ rx,
                     rot @ skew([1.0, 0.0, 0.0])])


def project(camera: PinholeCamera, points) -> np.ndarray:
    """Pixels (n, 2) of camera-frame points (n, 3): K p over its depth."""
    homo = np.asarray(points, dtype=float) @ camera.intrinsics.matrix.T
    return homo[:, :2] / homo[:, 2:3]


def tabulate(camera, width, height, step=8.0) -> GenericCamera:
    """The camera's rays on a regular pixel grid over [0, width] x
    [0, height], stored z-normalized (each must have positive z), as a
    GenericCamera."""
    us = np.arange(0.0, width + 1e-9, step)
    vs = np.arange(0.0, height + 1e-9, step)
    uu, vv = np.meshgrid(us, vs)
    rays = camera.pixel_to_bearing(np.stack([uu.ravel(), vv.ravel()], 1))
    assert (rays[:, 2] > 0).all(), "tabulated rays must have positive z"
    return GenericCamera(0.0, 0.0, step, step,
                         (rays / rays[:, 2:3]).reshape(len(vs), len(us), 3),
                         image_size=(width, height))


def bearing_set(b0, b1) -> MatchSet:
    """Matches of bearings (n, 3) or (3,), each with positive z, as the
    UNIT_CAM pixels b[:2] / b[2] that lift back to them."""
    b0, b1 = (np.atleast_2d(np.asarray(b, dtype=float)) for b in (b0, b1))
    return MatchSet(0, b0[:, :2] / b0[:, 2:], b1[:, :2] / b1[:, 2:])


def essential_from_motion(m: Pose) -> np.ndarray:
    """Essential matrix of the point transform carrying coordinates from
    the first camera frame into the second: b1^T E b0 = 0."""
    if np.linalg.norm(m.translation) < TRANSLATION_EPS:
        raise DegenerateTranslation(
            f"translation magnitude below {TRANSLATION_EPS}")
    return skew(m.translation) @ m.rotation


def fundamental_from_essential(e: np.ndarray, k0: PinholeIntrinsics,
                               k1: PinholeIntrinsics) -> np.ndarray:
    """F = K1^-T E K0^-1, for pixel correspondences x1^T F x0 = 0."""
    return k1.matrix_inv.T @ e @ k0.matrix_inv


def conjugate_to_camera(motion: Pose, extrinsic: Pose) -> Pose:
    """Propagate a motion-center motion to a camera mounted at `extrinsic`."""
    return compose(compose(inverse(extrinsic), motion), extrinsic)


def camera_point_transform(motion: Pose, extrinsic: Pose) -> Pose:
    """Point transform (t0 camera coords -> t1 camera coords) feeding the
    essential matrix for one camera."""
    return inverse(conjugate_to_camera(motion, extrinsic))


def subset(s: MatchSet, index) -> MatchSet:
    return MatchSet(s.camera_id, s.pixels_t0[index], s.pixels_t1[index])


def plane_residuals(e, b0, b1):
    """Signed sines b1 . (E b0) / |E b0| and the mask |E b0| >= eps."""
    normals = b0 @ e.T
    norms = np.linalg.norm(normals, axis=1)
    valid = norms >= DEGENERACY_EPS
    return np.einsum("ij,ij->i", normals, b1) / np.where(valid, norms,
                                                         1.0), valid


def line_residuals(f, x0, x1):
    """Distances d1 of x1 to the line F x0 and d0 of x0 to F^T x1, and
    the mask where both lines have a direction of at least eps."""
    h0 = np.hstack([x0, np.ones((len(x0), 1))])
    h1 = np.hstack([x1, np.ones((len(x1), 1))])
    line0, line1 = h0 @ f.T, h1 @ f
    den0 = np.hypot(line0[:, 0], line0[:, 1])
    den1 = np.hypot(line1[:, 0], line1[:, 1])
    valid = (den0 >= DEGENERACY_EPS) & (den1 >= DEGENERACY_EPS)
    num = np.einsum("ij,ij->i", line0, h1)
    return (num / np.where(valid, den0, 1.0),
            num / np.where(valid, den1, 1.0), valid)


def identity_frame(s: MatchSet, metric, model=UNIT_CAM) -> RigFrame:
    """Frame of one camera `model` at the vehicle origin. Through the set's
    own camera M is that camera's essential matrix; through UNIT_CAM a
    pixel is its own ray, so M is the fundamental matrix of the pixels
    (line metric) or the essential matrix of bearing_set's bearings
    (plane metric)."""
    rig = CameraRig((RigCamera(s.camera_id, model, identity()),))
    return RigFrame.from_matches(rig, [s], metric)


def origin_features(m) -> np.ndarray:
    """Tilted motion features (..., 29) at which a camera at the vehicle
    origin, as in identity_frame, has M = m (..., 3, 3). There M = -(I +
    D) [t]x, and each entry of M is one feature D_ij t_k: M_i0 is
    (D_i2, ty), M_i1 is -(D_i2, tx) and M_i2 is -(D_i0, ty), the feature
    (D_ij, t_k) at index 3 (1 + 3 i + j) + k - 1. Checks that the frame's
    feature map gives m back exactly."""
    m = np.asarray(m, dtype=float)
    phi = np.zeros(m.shape[:-2] + (TILTED_FEATURES,))
    i = np.arange(3)
    for column, j, k, sign in ((0, 2, 2, 1.0), (1, 2, 1, -1.0),
                               (2, 0, 2, -1.0)):
        phi[..., 3 * (1 + 3 * i + j) + k - 1] = sign * m[..., :, column]
    vec_m = phi @ feature_maps(np.zeros(3))[0]
    assert np.array_equal(vec_m, m.reshape(m.shape[:-2] + (9,)))
    return phi


def exact_pure_rotation(m: Fraction, lever_arms):
    """A pure rotation (arc 0) whose cosine and sine are the exact
    rationals ((1 - m^2) / (1 + m^2), 2 m / (1 + m^2)) of a Pythagorean
    pair: its yaw, their float atan2, and the matrix M = [u]x R^T,
    u = R^T te - te, of each lever arm te (float, taken exactly), as
    nested lists (3, 3) of Fractions, in exact arithmetic."""
    c, s = (1 - m * m) / (1 + m * m), 2 * m / (1 + m * m)
    rt = [[c, s, Fraction(0)], [-s, c, Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(1)]]
    ms = []
    for arm in lever_arms:
        te = [Fraction(float(x)) for x in arm]
        u = [sum(rt[i][j] * te[j] for j in range(3)) - te[i]
             for i in range(3)]
        cross = [[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]]
        ms.append([[sum(cross[i][k] * rt[k][j] for k in range(3))
                    for j in range(3)] for i in range(3)])
    return math.atan2(float(s), float(c)), ms


def exact_plane_residuals(m, v0, v1):
    """Plane sines v1^T M v0 / |M v0| of float rays v0, v1 (n, 3) at an
    exact M (3, 3) of Fractions: numerator and squared norm exact, then
    rounded once each."""
    out = []
    for a, b in zip(v0.tolist(), v1.tolist()):
        a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
        normal = [sum(m[i][j] * a[j] for j in range(3)) for i in range(3)]
        num = sum(b[i] * normal[i] for i in range(3))
        out.append(float(num) / math.sqrt(float(sum(x * x for x in normal))))
    return np.array(out)


def energy_at(p, rig, match_sets, loss, metric) -> float:
    """The multi-camera energy at one manifold point; inf where no
    populated camera translates."""
    frame = RigFrame.from_matches(rig, match_sets, metric)
    return float(multi_camera_energy(params_rows(p), frame, loss)[0])


def internal_gradient(rig, match_sets, p, loss, metric) -> np.ndarray:
    """Gradient of the robust energy from the solver's closed-form
    Jacobian: 2 J^T z."""
    frame = RigFrame.from_matches(rig, match_sets, metric)
    z, J = _solver_state(params_rows(p), p.free, frame, loss)[:2]
    return 2.0 * J.T @ z


@np.errstate(all="ignore")
def eager_sigma(z, J) -> np.ndarray:
    """Per-field sigma formed in one pass from the solver state's z and J
    rows of the valid matches, as estimate formed it for every result
    before it kept only J^T J, z^T z and m."""
    (m, p), JTJ = J.shape, J.T @ J
    tol = p * np.finfo(float).eps
    w, V = np.linalg.eigh(JTJ) if np.isfinite(JTJ).all() else (np.zeros(1), 0)
    kept = w > w[-1:] * tol
    if m <= p or not kept.any():
        return np.full(p, np.inf)
    V2 = V ** 2
    var = (V2 / np.where(kept, w, np.inf)).sum(axis=1)
    var[V2 @ ~kept > tol] = np.inf
    return np.sqrt(var * (z @ z) / (m - p))


def numeric_gradient(rig, match_sets, p, loss, metric, h) -> np.ndarray:
    """Central differences of the multi-camera energy over free params."""
    if h <= 0:
        raise ValueError("h must be positive")
    grad = np.zeros(len(p.free))
    for k, field in enumerate(p.free):
        x = getattr(p, field)
        ep = energy_at(p.with_values(**{field: x + h}), rig, match_sets,
                       loss, metric)
        em = energy_at(p.with_values(**{field: x - h}), rig, match_sets,
                       loss, metric)
        grad[k] = (ep - em) / (2.0 * h)
    return grad


def pose_path_residuals(motion: Pose, cam, s: MatchSet, metric):
    """Reference residuals of one camera's matches: conjugate the vehicle
    motion to the camera, form its essential (and fundamental) matrix and
    evaluate the metric on it. Returns components (n, c) and valid (n,);
    raises DegenerateTranslation where the camera does not translate."""
    e = essential_from_motion(camera_point_transform(motion, cam.extrinsic))
    if metric is MetricKind.GEOLINE:
        k = cam.model.intrinsics
        d1, d0, valid = line_residuals(fundamental_from_essential(e, k, k),
                                       s.pixels_t0, s.pixels_t1)
        return np.stack([d1, d0], axis=1), valid
    r, valid = plane_residuals(e, cam.model.pixel_to_bearing(s.pixels_t0),
                               cam.model.pixel_to_bearing(s.pixels_t1))
    return r[:, None], valid


def stacked(poses) -> Pose:
    """Single poses as one stacked Pose: (F, 3, 3) and (F, 3)."""
    return Pose(np.array([p.rotation for p in poses]),
                np.array([p.translation for p in poses]))


def unstacked(pose) -> list:
    """The single poses of a stacked Pose, in order."""
    return [Pose(r, t) for r, t in zip(pose.rotation, pose.translation)]


def evaluate_by_segment(est, gt, lengths) -> EvalReport:
    """evaluation.evaluate segment by segment, on Pose objects, in the
    KITTI devkit's order: find each segment's last frame by walking the
    ground-truth distance, then error = inverse(delta_est) . delta_gt.
    A repeated length is one bucket."""
    lengths = list(dict.fromkeys(lengths))
    est_poses, gt_poses = unstacked(est.poses), unstacked(gt.poses)
    dist = [0.0]
    for prev, cur in zip(gt_poses, gt_poses[1:]):
        dist.append(dist[-1] + float(np.linalg.norm(
            cur.translation - prev.translation)))
    buckets = {length: ErrorBucket() for length in lengths}
    for first in range(0, len(gt), START_STEP):
        for length in lengths:
            last = next((i for i in range(first, len(dist))
                         if dist[i] > dist[first] + length), None)
            if last is None:
                continue
            delta_gt = compose(inverse(gt_poses[first]), gt_poses[last])
            delta_est = compose(inverse(est_poses[first]), est_poses[last])
            error = compose(inverse(delta_est), delta_gt)
            cos = 0.5 * (np.trace(error.rotation) - 1.0)
            buckets[length].rotation_deg_per_m.append(
                np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))) / length)
            buckets[length].translation_percent.append(
                float(np.linalg.norm(error.translation)) / length * 100.0)
    return EvalReport(buckets)


def write_matches_by_cell(records, path):
    """io_formats.write_matches one line and one cell at a time: the ids
    and each pixel value through _cell."""
    _write_rows(path, chain([MATCH_HEADER], (
        (rec.t0, rec.t1, cam, *quad) for rec in records
        for cam in sorted(rec.pixels)
        for quad in np.hstack(rec.pixels[cam], dtype=float).tolist())), ",")


def numbers_by_lines(path, fh, row, skip=0, delimiter=None, first_line=1):
    """io_formats._numbers without np.loadtxt's own reading of the file:
    the content lines as _lines strips them, parsed together and then one
    by one to find the bad line."""
    def parse(texts):
        rows = np.loadtxt(texts, row, comments=None, delimiter=delimiter,
                          ndmin=1)
        if not all(np.isfinite(rows[name]).all() for name in rows.dtype.names):
            raise ValueError("value is NaN or inf")
        return rows

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # loadtxt warns on no lines
            return parse(text for _, text in _lines(fh))
    except (ValueError, UserWarning):
        fh.seek(0)
    for lineno, text in islice(_lines(fh, first_line), skip, None):
        try:
            parse([text])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc).split(" at row")[0])
    return np.empty(0, row)


def _pixels_seen(model, points_cam):
    """Pixels (n, 2) of camera-frame points (n, 3), by project on the
    points in front, and which of them the camera sees: positive
    depth and, if the model has an image size, within its pixel bounds."""
    seen = points_cam[:, 2] > 1e-9
    pixels = np.zeros((len(points_cam), 2))
    pixels[seen] = project(model, points_cam[seen])
    if model.image_size is not None:
        w, h = model.image_size
        for i in np.flatnonzero(seen):
            u, v = pixels[i]
            seen[i] = 0 <= u <= w - 1 and 0 <= v <= h - 1
    return pixels, seen


def pixels_by_pose(points, rig, truth):
    """simulate.generate_matches without noise, on Pose objects: camera id
    -> pixels (t0, t1) of the points that camera sees at both times, the
    camera at t0 being its extrinsic and at t1 motion . extrinsic."""
    motion = pose_from_params(truth)
    pixels = {}
    for cam in rig.cameras:
        px0, vis0 = _pixels_seen(cam.model,
                                 apply(inverse(cam.extrinsic), points))
        px1, vis1 = _pixels_seen(
            cam.model, apply(inverse(compose(motion, cam.extrinsic)), points))
        visible = vis0 & vis1
        if visible.any():
            pixels[cam.camera_id] = (px0[visible], px1[visible])
    return pixels

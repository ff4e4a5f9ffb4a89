"""Reference implementations the tests check the package against.

They follow the per-camera pose path: conjugate the vehicle motion to a
camera, form its essential (and, for pixels, fundamental) matrix, and
evaluate each metric on it match by match; sigma formed from the final
solver state in one pass; the per-segment Pose path of the trajectory
evaluation; the cell-by-cell match writer, the line-by-line number parser
and the simulator's projection on the Pose path, one time at a time,
through PinholeCamera.project and a point-by-point image test. None of
this is on the package's paths.
"""

import warnings
from itertools import chain, islice

import numpy as np

from motionprior.estimator import _solver_state
from motionprior.evaluation import START_STEP, ErrorBucket, EvalReport
from motionprior.geometry import (TRANSLATION_EPS, DegenerateTranslation,
                                  PinholeCamera, PinholeIntrinsics, Pose,
                                  skew)
from motionprior.io_formats import (MATCH_HEADER, ParseError, _lines,
                                    _write_rows)
from motionprior.manifold import (CameraRig, RigCamera, multi_camera_energy,
                                  params_rows, pose_from_params)
from motionprior.metrics import DEGENERACY_EPS, MatchSet, MetricKind, RigFrame

UNIT_CAM = PinholeCamera(PinholeIntrinsics(1.0, 1.0, 0.0, 0.0))


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
    return extrinsic.inverse().compose(motion).compose(extrinsic)


def camera_point_transform(motion: Pose, extrinsic: Pose) -> Pose:
    """Point transform (t0 camera coords -> t1 camera coords) feeding the
    essential matrix for one camera."""
    return conjugate_to_camera(motion, extrinsic).inverse()


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
    rig = CameraRig((RigCamera(s.camera_id, model, Pose.identity()),))
    return RigFrame.from_matches(rig, [s], metric)


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


def evaluate_by_segment(est, gt, lengths) -> EvalReport:
    """evaluation.evaluate segment by segment, on Pose objects, in the
    KITTI devkit's order: find each segment's last frame by walking the
    ground-truth distance, then error = inverse(delta_est) . delta_gt.
    A repeated length is one bucket."""
    lengths = list(dict.fromkeys(lengths))
    dist = [0.0]
    for prev, cur in zip(gt.poses, gt.poses[1:]):
        dist.append(dist[-1] + float(np.linalg.norm(
            cur.translation - prev.translation)))
    buckets = {length: ErrorBucket() for length in lengths}
    for first in range(0, len(gt), START_STEP):
        for length in lengths:
            last = next((i for i in range(first, len(dist))
                         if dist[i] > dist[first] + length), None)
            if last is None:
                continue
            delta_gt = gt.poses[first].inverse().compose(gt.poses[last])
            delta_est = est.poses[first].inverse().compose(est.poses[last])
            error = delta_est.inverse().compose(delta_gt)
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
    """Pixels (n, 2) of camera-frame points (n, 3), by model.project on
    the points in front, and which of them the camera sees: positive
    depth and, if the model has an image size, within its pixel bounds."""
    seen = points_cam[:, 2] > 1e-9
    pixels = np.zeros((len(points_cam), 2))
    pixels[seen] = model.project(points_cam[seen])
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
                                 cam.extrinsic.inverse().apply(points))
        px1, vis1 = _pixels_seen(
            cam.model, motion.compose(cam.extrinsic).inverse().apply(points))
        visible = vis0 & vis1
        if visible.any():
            pixels[cam.camera_id] = (px0[visible], px1[visible])
    return pixels

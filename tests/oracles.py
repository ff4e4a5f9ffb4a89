"""Reference implementations the tests check the package against.

They follow the per-camera pose path: conjugate the vehicle motion to a
camera, form its essential (and, for pixels, fundamental) matrix, and
evaluate each metric on it match by match. None of this is on the
package's solve path.
"""

import numpy as np

from motionprior.geometry import (TRANSLATION_EPS, DegenerateTranslation,
                                  PinholeCamera, PinholeIntrinsics, Pose,
                                  skew)
from motionprior.manifold import (CameraRig, RigCamera, multi_camera_energy,
                                  pack_free, params_rows, unpack_free)
from motionprior.metrics import DEGENERACY_EPS, MatchSet, MetricKind, RigFrame

UNIT_CAM = PinholeCamera(PinholeIntrinsics(1.0, 1.0, 0.0, 0.0))


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
    return MatchSet(s.camera_id, s.pixels_t0[index], s.pixels_t1[index],
                    s.bearings_t0[index], s.bearings_t1[index])


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


def identity_frame(s: MatchSet, metric) -> RigFrame:
    """Frame of one unit-intrinsics camera at the vehicle origin, where M
    is the camera's essential (plane metric) or fundamental matrix (line
    metric)."""
    rig = CameraRig((RigCamera(s.camera_id, UNIT_CAM, Pose.identity()),))
    return RigFrame.from_matches(rig, [s], metric)


def energy_at(p, rig, match_sets, loss, metric) -> float:
    """The multi-camera energy at one manifold point; inf where no
    populated camera translates."""
    frame = RigFrame.from_matches(rig, match_sets, metric)
    return float(multi_camera_energy(params_rows(p), frame, loss)[0])


def numeric_gradient(rig, match_sets, p, loss, metric, h) -> np.ndarray:
    """Central differences of the multi-camera energy over free params."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = pack_free(p)
    grad = np.zeros(len(x))
    for k in range(len(x)):
        dx = np.zeros(len(x))
        dx[k] = h
        ep = energy_at(unpack_free(x + dx, p), rig, match_sets, loss, metric)
        em = energy_at(unpack_free(x - dx, p), rig, match_sets, loss, metric)
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
    r, valid = plane_residuals(e, s.bearings_t0, s.bearings_t1)
    return r[:, None], valid

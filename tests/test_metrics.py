import numpy as np
import pytest

from motionprior.geometry import (GenericCamera, PinholeCamera,
                                  PinholeIntrinsics, Pose, rotation_z, skew)
from motionprior.manifold import CameraRig, RigCamera
from motionprior.metrics import (TILTED_FEATURES, MatchSet, MetricKind,
                                 NonFiniteMatch, RigFrame, RobustLoss,
                                 angleplane_residuals, geoline_residuals)
from oracles import (UNIT_CAM, bearing_set, essential_from_motion,
                     fundamental_from_essential, identity_frame,
                     line_residuals, origin_features, plane_residuals,
                     subset)

K = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)
CAM = PinholeCamera(K)


def synthetic_set(motion, n=100, seed=0, noise=0.0):
    """Project random points through a camera-frame motion (t0 -> t1
    point transform) and return the resulting match set."""
    rng = np.random.Generator(np.random.PCG64(seed))
    points = rng.uniform(-5, 5, size=(n, 3)) + [0, 0, 20]
    px0 = CAM.project(points)
    px1 = CAM.project(motion.apply(points))
    if noise:
        px0 = px0 + rng.normal(0, noise, px0.shape)
        px1 = px1 + rng.normal(0, noise, px1.shape)
    return MatchSet(0, px0, px1)


def geoline(f, s):
    """(d1, d0, valid) of fundamental(s) f through a unit-intrinsics
    camera at the vehicle origin, at the motion features where M = F."""
    frame = identity_frame(s, MetricKind.GEOLINE)
    components, valid = geoline_residuals(
        origin_features(f) @ frame.joint_map(TILTED_FEATURES), frame)
    return components[..., 0], components[..., 1], valid


def angleplane(e, s, model=CAM):
    """(r, valid) of essential(s) e through the set's camera `model` at
    the vehicle origin, at the motion features where M = E."""
    frame = identity_frame(s, MetricKind.ANGLEPLANE, model)
    components, valid = angleplane_residuals(
        origin_features(e) @ frame.joint_map(TILTED_FEATURES), frame)
    return components[..., 0], valid


def geoline_energy(f, s, loss):
    """Robust energy of one fundamental: rho summed over valid matches."""
    d1, d0, valid = geoline(f, s)
    value, _ = loss.evaluate(d1[valid] ** 2 + d0[valid] ** 2)
    return float(np.sum(value))


def angleplane_energy(e, s, loss, model=CAM):
    """Robust energy of one essential: rho summed over valid matches."""
    r, valid = angleplane(e, s, model)
    value, _ = loss.evaluate(r[valid] ** 2)
    return float(np.sum(value))


class TestRobustLoss:
    def test_cauchy_at_zero(self):
        loss = RobustLoss("cauchy", 0.0065)
        value, deriv = loss.evaluate(0.0)
        assert value == 0.0 and deriv == 1.0

    def test_cauchy_outlier_influence_vanishes(self):
        loss = RobustLoss("cauchy", 0.0065)
        _, deriv = loss.evaluate(1e6 * 0.0065 ** 2)
        assert deriv < 1e-5

    @pytest.mark.parametrize("kind", ["none", "cauchy"])
    def test_zero_value_and_unit_slope(self, kind):
        loss = RobustLoss(kind, 0.5)
        value, deriv = loss.evaluate(0.0)
        assert value == 0.0
        assert deriv == 1.0

    @pytest.mark.parametrize("kind", ["none", "cauchy"])
    def test_value_is_integral_of_derivative(self, kind):
        # quadrature oracle: composite Simpson over [0, s]
        loss = RobustLoss(kind, 0.3)
        for s in (0.01, 0.2, 1.5):
            grid = np.linspace(0.0, s, 2001)
            _, deriv = loss.evaluate(grid)
            integral = (s / 2000) / 3 * (deriv[0] + deriv[-1]
                                         + 4 * deriv[1::2].sum()
                                         + 2 * deriv[2:-1:2].sum())
            value, _ = loss.evaluate(s)
            assert abs(value - integral) < 1e-8

    @pytest.mark.parametrize("kind", ["none", "cauchy"])
    def test_monotone_on_squared_residuals(self, kind):
        loss = RobustLoss(kind, 0.2)
        values, _ = loss.evaluate(np.linspace(0, 5, 500))
        assert np.all(np.diff(values) >= 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RobustLoss("lorentzian", 1.0)
        with pytest.raises(ValueError):
            RobustLoss("cauchy", 0.0)

    @pytest.mark.parametrize("width", [np.inf, 1e-200, 1e200])
    def test_width_square_must_be_finite_and_non_zero(self, width):
        # each of these widths made every energy NaN
        with pytest.raises(ValueError, match="loss width"):
            RobustLoss("cauchy", width)


def line_distance_oracle(line, pixel):
    """Plain point-to-line distance for the homogeneous line (a, b, c)."""
    a, b, c = line
    return (a * pixel[0] + b * pixel[1] + c) / np.hypot(a, b)


class TestEpipolarLineDistance:
    F = skew([0.0, 0.0, 1.0])  # lateral-shift geometry, identity intrinsics

    def distance(self, f, x0, x1):
        """d1 (x1 to the epipolar line of x0) and validity of one match."""
        s = MatchSet(0, [x0], [x1])
        d1, _, valid = geoline(f, s)
        return d1[0], valid[0]

    def test_point_on_line_is_zero(self):
        # epipolar line of (1, 0) is v = 0; any (u, 0) lies on it
        assert self.distance(self.F, [1.0, 0.0], [7.0, 0.0]) == (0.0, True)

    def test_five_pixels_off_horizontal_line(self):
        d, _ = self.distance(self.F, [1.0, 0.0], [0.0, 5.0])
        line = self.F @ np.array([1.0, 0.0, 1.0])
        assert d == pytest.approx(line_distance_oracle(line, [0.0, 5.0]),
                                  abs=1e-12)
        assert abs(d) == pytest.approx(5.0)

    def test_scale_invariance(self):
        d1, _ = self.distance(self.F, [1.0, 2.0], [3.0, 5.0])
        d7, _ = self.distance(7.0 * self.F, [1.0, 2.0], [3.0, 5.0])
        assert d1 == pytest.approx(d7, abs=1e-12)

    def test_epipole_degenerate(self):
        # (0, 0) lifts to the null direction of this F
        _, valid = self.distance(self.F, [0.0, 0.0], [1.0, 1.0])
        assert not valid


class TestGeoLine:
    motion = Pose(rotation_z(0.04), [0.3, 0.1, 1.0])

    def fundamental(self):
        return fundamental_from_essential(essential_from_motion(self.motion),
                                          K, K)

    def test_noise_free_energy_is_zero(self):
        s = synthetic_set(self.motion, seed=1)
        f = self.fundamental()
        assert geoline_energy(f, s, RobustLoss("none")) < 1e-16

    def test_single_match_squared_distances(self):
        # place x1 exactly 3 px off its epipolar line and check the energy
        # against independently computed point-to-line distances
        f = self.fundamental()
        x0 = np.array([500.0, 400.0])
        line0 = f @ np.array([*x0, 1.0])
        normal = np.array([line0[0], line0[1]]) / np.hypot(line0[0], line0[1])
        foot = np.array([600.0, -(line0[2] + line0[0] * 600.0) / line0[1]])
        x1 = foot + 3.0 * normal
        d1 = line_distance_oracle(line0, x1)
        d0 = line_distance_oracle(f.T @ np.array([*x1, 1.0]), x0)
        assert abs(d1) == pytest.approx(3.0, abs=1e-9)
        s = MatchSet(0, x0[None, :], x1[None, :])
        energy = geoline_energy(f, s, RobustLoss("none"))
        assert energy == pytest.approx(d1 ** 2 + d0 ** 2, rel=1e-12)

    def test_true_motion_beats_perturbed_yaw(self):
        s = synthetic_set(self.motion, n=200, seed=3, noise=0.5)
        f_true = self.fundamental()
        perturbed = Pose(rotation_z(0.04 + 0.05) @ np.eye(3),
                         self.motion.translation)
        f_bad = fundamental_from_essential(essential_from_motion(perturbed),
                                           K, K)
        loss = RobustLoss("none")
        assert geoline_energy(f_true, s, loss) < geoline_energy(f_bad, s, loss)


class TestAnglePlane:
    def test_bearing_in_plane_is_zero(self):
        e = skew([1.0, 0.0, 0.0])
        b0 = np.array([0.0, 0.0, 1.0])
        # epipolar plane of b0 has normal E b0 = (0, -1, 0); x-z plane
        b1 = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        r, valid = angleplane(e, bearing_set(b0, b1), UNIT_CAM)
        assert valid[0]
        assert r[0] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_bearing(self):
        # b1 lies along the normal E b0 = (0, -1, -1) of b0's plane
        e = skew([1.0, 0.0, 0.0])
        r, _ = angleplane(e, bearing_set([0.0, -1.0, 1.0], [0.0, 1.0, 1.0]),
                          UNIT_CAM)
        assert r[0] == pytest.approx(-1.0)

    def test_epipole_degenerate(self):
        # b0 along the translation: E b0 = 0
        _, valid = angleplane(
            skew([0.0, 0.0, 1.0]),
            bearing_set([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]), UNIT_CAM)
        assert not valid[0]

    def test_small_angle_matches_geoline_over_focal(self):
        motion = Pose(rotation_z(0.03), [0.2, 0.05, 1.0])
        s = synthetic_set(motion, n=200, seed=4, noise=1.0)
        e = essential_from_motion(motion)
        f = fundamental_from_essential(e, K, K)
        r, valid = angleplane(e, s)
        d1, _, _ = geoline(f, s)
        # the small-angle identity needs near-axis rays and nonzero residuals
        center = np.array([K.cx, K.cy])
        near_axis = np.linalg.norm(s.pixels_t1 - center, axis=1) < 120.0
        big = (np.abs(d1) > 0.5) & near_axis
        assert big.sum() > 10
        ratio = np.abs(r[big]) / (np.abs(d1[big]) / K.fx)
        assert np.all(np.abs(ratio - 1.0) < 0.05)

    def test_scale_invariance(self):
        e = essential_from_motion(Pose(rotation_z(0.1), [1.0, 0.2, 0.1]))
        s = synthetic_set(Pose(rotation_z(0.1), [1.0, 0.2, 0.1]), seed=5)
        r1, _ = angleplane(e, s)
        r2, _ = angleplane(-3.7 * e, s)
        assert np.abs(np.abs(r1) - np.abs(r2)).max() < 1e-12

    def test_noise_free_energy(self):
        motion = Pose(rotation_z(0.05), [0.5, 0.0, 1.0])
        s = synthetic_set(motion, seed=6)
        e = essential_from_motion(motion)
        assert angleplane_energy(e, s, RobustLoss("none")) < 1e-20

    def test_cauchy_outlier_energy_value(self):
        # one exact inlier plus one residual-0.5 outlier
        e = skew([1.0, 0.0, 0.0])
        b0 = np.tile([0.0, 0.0, 1.0], (2, 1))
        inlier = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        outlier = np.array([0.0, -0.5, np.sqrt(0.75)])  # unit, y = -0.5
        s = bearing_set(b0, np.stack([inlier, outlier]))
        r, _ = angleplane(e, s, UNIT_CAM)
        assert abs(abs(r[1]) - 0.5) < 1e-15
        c = 0.0065
        energy = angleplane_energy(e, s, RobustLoss("cauchy", c), UNIT_CAM)
        expected = c * c * np.log1p(0.25 / (c * c))
        assert energy == pytest.approx(expected, rel=1e-12)
        assert energy == pytest.approx(3.6697e-4, rel=1e-3)
        assert energy < 0.25  # far below the raw squared residual

    def test_bounded_outlier_growth(self):
        c = 0.0065
        loss = RobustLoss("cauchy", c)
        inc3, _ = loss.evaluate((1e3) ** 2)
        inc6, _ = loss.evaluate((1e6) ** 2)
        assert inc6 - inc3 < 14 * c * c * np.log(10)


class TestMatchSet:
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_nan_pixel(self, side):
        pixels = [np.full((3, 2), 100.0), np.full((3, 2), 120.0)]
        pixels[side][1, 0] = np.nan
        with pytest.raises(NonFiniteMatch, match=f"pixels_t{side}"):
            MatchSet(0, *pixels)

    @pytest.mark.parametrize("shape", [(3, 3), (6,), (3, 2, 1), (2, 0)])
    def test_rejects_arrays_not_n_by_2(self, shape):
        # a (k, 3) array holds 3k/2 pixels only by accident of its size
        with pytest.raises(ValueError, match=r"pixels_t1 has shape"):
            MatchSet(0, np.zeros((3, 2)), np.zeros(shape))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            MatchSet(0, np.zeros((3, 2)), np.zeros((2, 2)))

    def test_pixels_are_read_only(self):
        s = MatchSet(0, np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            s.pixels_t0[0, 0] = 1.0

    def test_callers_arrays_stay_writeable(self):
        a = np.full((3, 2), 100.0)
        b = a.copy()
        s = MatchSet(0, a, b)
        assert a.flags.writeable and b.flags.writeable
        a[0, 0] = 1.0
        assert s.pixels_t0[0, 0] == 100.0
        for arr in (s.pixels_t0, s.pixels_t1):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_empty_allowed(self):
        s = MatchSet(0, np.zeros((0, 2)), np.zeros((0, 2)))
        assert len(s) == 0

    def test_subset(self):
        s = synthetic_set(Pose(rotation_z(0.01), [1.0, 0.0, 0.0]), n=10)
        sub = subset(s, np.arange(4))
        assert len(sub) == 4
        assert np.array_equal(sub.pixels_t0, s.pixels_t0[:4])


class TestStackedResiduals:
    """Stacked (K, 3, 3) matrices give the per-matrix results row by row,
    and those match the reference formulas on explicit E and F."""

    MOTIONS = [Pose(rotation_z(g), [1.0, 0.1 * g, 0.5]) for g in
               (-0.1, 0.0, 0.04, 0.2)]

    def test_angleplane(self):
        s = synthetic_set(self.MOTIONS[2], noise=0.5)
        es = np.stack([essential_from_motion(m) for m in self.MOTIONS])
        r, valid = angleplane(es, s)
        assert r.shape == valid.shape == (len(es), len(s))
        for k, e in enumerate(es):
            r_k, valid_k = angleplane(e, s)
            assert r_k.shape == (len(s),)
            assert np.allclose(r[k], r_k, rtol=1e-12, atol=1e-15)
            assert np.array_equal(valid[k], valid_k)
            r_ref, valid_ref = plane_residuals(
                e, CAM.pixel_to_bearing(s.pixels_t0),
                CAM.pixel_to_bearing(s.pixels_t1))
            assert np.allclose(r_k, r_ref, rtol=1e-12, atol=1e-15)
            assert np.array_equal(valid_k, valid_ref)

    def test_geoline(self):
        s = synthetic_set(self.MOTIONS[2], noise=0.5)
        fs = np.stack([fundamental_from_essential(essential_from_motion(m),
                                                  K, K)
                       for m in self.MOTIONS])
        d1, d0, valid = geoline(fs, s)
        assert d1.shape == d0.shape == valid.shape == (len(fs), len(s))
        for k, f in enumerate(fs):
            d1_k, d0_k, valid_k = geoline(f, s)
            assert d1_k.shape == (len(s),)
            assert np.allclose(d1[k], d1_k, rtol=1e-12, atol=1e-12)
            assert np.allclose(d0[k], d0_k, rtol=1e-12, atol=1e-12)
            assert np.array_equal(valid[k], valid_k)
            d1_ref, d0_ref, valid_ref = line_residuals(f, s.pixels_t0,
                                                       s.pixels_t1)
            assert np.allclose(d1_k, d1_ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(d0_k, d0_ref, rtol=1e-12, atol=1e-12)
            assert np.array_equal(valid_k, valid_ref)


class TestRigFrame:
    def test_length_is_match_count(self):
        s = synthetic_set(Pose(rotation_z(0.01), [1.0, 0.0, 0.0]), n=10)
        empty = MatchSet(1, np.zeros((0, 2)), np.zeros((0, 2)))
        rig = CameraRig((RigCamera(0, CAM, Pose.identity()),
                         RigCamera(1, CAM, Pose.identity())))
        for metric in MetricKind:
            frame = RigFrame.from_matches(rig, [s, empty, s], metric)
            assert len(frame) == 20
            assert np.array_equal(frame.camera_index, np.repeat([0, 1], 10))

    def test_geoline_needs_pinhole(self):
        table = GenericCamera.from_camera(CAM, 1280, 960, step=160.0)
        rig = CameraRig((RigCamera(0, CAM, Pose.identity()),
                         RigCamera(7, table, Pose.identity())))
        s = synthetic_set(Pose(rotation_z(0.01), [1.0, 0.0, 0.0]), n=10)
        moved = MatchSet(7, s.pixels_t0, s.pixels_t1)
        RigFrame.from_matches(rig, [s, moved], MetricKind.ANGLEPLANE)
        with pytest.raises(ValueError, match="camera 7"):
            RigFrame.from_matches(rig, [s, moved], MetricKind.GEOLINE)

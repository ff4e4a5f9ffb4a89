import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionprior.estimator import EstimatorOptions, estimate
from motionprior.geometry import (GenericCamera, PinholeCamera,
                                  PinholeIntrinsics, Pose,
                                  forward_camera_extrinsic, rotation_y,
                                  rotation_z)
from motionprior.manifold import (CameraRig, MotionParams, RigCamera,
                                  pose_from_params)
from motionprior.metrics import MetricKind, RobustLoss
from motionprior.simulate import (NoiseSpec, NoVisiblePoints, SceneSpec,
                                  generate_matches, generate_scene,
                                  grid_search_oracle)
from oracles import (camera_point_transform, essential_from_motion,
                     pixels_by_pose, plane_residuals)

INTR = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)


def make_rig(offsets):
    cams = tuple(RigCamera(i, PinholeCamera(INTR, (1280, 960)),
                           forward_camera_extrinsic(offset))
                 for i, offset in enumerate(offsets))
    return CameraRig(cams)


RIG1 = make_rig([[2.0, 0.0, 0.0]])


class TestGenerateScene:
    def test_single_forced_point(self):
        spec = SceneSpec(num_points=1, depth_range=(10.0, 10.0),
                         lateral_spread=0.0, seed=42)
        points = generate_scene(spec)
        assert np.allclose(points, [[10.0, 0.0, 0.0]])

    def test_deterministic(self):
        spec = SceneSpec(num_points=50, seed=7)
        assert np.array_equal(generate_scene(spec), generate_scene(spec))

    def test_different_seeds_differ(self):
        a = generate_scene(SceneSpec(num_points=50, seed=7))
        b = generate_scene(SceneSpec(num_points=50, seed=8))
        assert not np.array_equal(a, b)

    def test_depth_coverage(self):
        spec = SceneSpec(num_points=10_000, depth_range=(5.0, 40.0), seed=1)
        depths = generate_scene(spec)[:, 0]
        assert depths.min() <= 5.0 + 0.05 * 35.0
        assert depths.max() >= 40.0 - 0.05 * 35.0
        assert (depths.max() - depths.min()) >= 0.9 * 35.0

    def test_points_within_ranges(self):
        spec = SceneSpec(num_points=1000, depth_range=(3.0, 9.0),
                         lateral_spread=4.0, seed=2)
        pts = generate_scene(spec)
        assert pts[:, 0].min() >= 3.0 and pts[:, 0].max() <= 9.0
        assert np.abs(pts[:, 1]).max() <= 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(num_points=0)
        with pytest.raises(ValueError):
            SceneSpec(depth_range=(-1.0, 5.0))

    @pytest.mark.parametrize("field, value", [
        ("depth_range", (5.0, np.inf)), ("depth_range", (np.nan, 40.0)),
        ("lateral_spread", np.nan), ("lateral_spread", np.inf),
        ("lateral_spread", -3.0), ("num_points", 2.5)],
        ids=["depth-inf", "depth-nan", "spread-nan", "spread-inf",
             "spread-negative", "points-fractional"])
    def test_non_finite_or_fractional_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SceneSpec(**{field: value})


class TestGenerateMatches:
    truth = MotionParams(yaw=0.05, arc_length=1.0)

    def test_noise_free_epipolar_constraint(self):
        points = generate_scene(SceneSpec(300, seed=3))
        sets, labels = generate_matches(points, RIG1, self.truth,
                                        NoiseSpec(seed=4))
        pose = pose_from_params(self.truth)
        for s in sets:
            cam = RIG1.camera(s.camera_id)
            e = essential_from_motion(camera_point_transform(pose,
                                                             cam.extrinsic))
            r, valid = plane_residuals(
                e, cam.model.pixel_to_bearing(s.pixels_t0),
                cam.model.pixel_to_bearing(s.pixels_t1))
            assert valid.all()
            assert np.abs(r).max() < 1e-10
        assert all(lbl.all() for lbl in labels)

    def test_all_outliers_labelled(self):
        points = generate_scene(SceneSpec(100, seed=5))
        _, labels = generate_matches(points, RIG1, self.truth,
                                     NoiseSpec(outlier_fraction=1.0, seed=6))
        assert all((~lbl).all() for lbl in labels)

    def test_outlier_fraction_count(self):
        points = generate_scene(SceneSpec(200, seed=7))
        sets, labels = generate_matches(points, RIG1, self.truth,
                                        NoiseSpec(outlier_fraction=0.3, seed=8))
        for s, lbl in zip(sets, labels):
            assert (~lbl).sum() == round(0.3 * len(s))

    def test_noise_magnitude_statistics(self):
        sigma = 0.5
        points = generate_scene(SceneSpec(500, seed=11))
        sets, _ = generate_matches(points, RIG1, self.truth,
                                   NoiseSpec(pixel_sigma=sigma, seed=12))
        pose = pose_from_params(self.truth)
        cam = RIG1.camera(sets[0].camera_id)
        e = essential_from_motion(camera_point_transform(pose, cam.extrinsic))
        r, _ = plane_residuals(e, cam.model.pixel_to_bearing(sets[0].pixels_t0),
                               cam.model.pixel_to_bearing(sets[0].pixels_t1))
        mean_abs = np.abs(r).mean()
        expected = sigma / INTR.fx
        assert expected / 2 < mean_abs < expected * 2

    def test_determinism(self):
        points = generate_scene(SceneSpec(100, seed=13))
        spec = NoiseSpec(pixel_sigma=0.5, outlier_fraction=0.2, seed=14)
        a, la = generate_matches(points, RIG1, self.truth, spec)
        b, lb = generate_matches(points, RIG1, self.truth, spec)
        assert np.array_equal(a[0].pixels_t1, b[0].pixels_t1)
        assert np.array_equal(la[0], lb[0])

    def test_no_visible_points(self):
        behind = np.array([[-50.0, 0.0, 0.0]])
        with pytest.raises(NoVisiblePoints):
            generate_matches(behind, RIG1, self.truth, NoiseSpec(seed=15))
        with pytest.raises(NoVisiblePoints):
            generate_matches(np.zeros((0, 3)), RIG1, self.truth,
                             NoiseSpec(seed=16))

    def test_generic_camera_rejected(self):
        cam = RIG1.cameras[0]
        rig = CameraRig((RigCamera(0, GenericCamera.from_camera(
            cam.model, 1280, 960), cam.extrinsic),))
        points = generate_scene(SceneSpec(50, seed=17))
        with pytest.raises(ValueError, match="camera 0: simulation needs a "
                                             "pinhole camera"):
            generate_matches(points, rig, self.truth, NoiseSpec(seed=18))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.5, 0.5), st.floats(-3.0, 3.0), st.floats(-0.1, 0.1),
           st.floats(-0.1, 0.1), st.floats(-np.pi, np.pi),
           st.integers(0, 2**32 - 1))
    def test_pixels_bit_identical_to_pose_path(self, yaw, arc, pitch, roll,
                                               mount_yaw, seed):
        # a forward camera and one turned and tilted on its mount
        rig = CameraRig((
            RigCamera(0, PinholeCamera(INTR, (1280, 960)),
                      forward_camera_extrinsic([2.0, 0.3, 1.1])),
            RigCamera(5, PinholeCamera(INTR, (1280, 960)),
                      Pose(rotation_z(mount_yaw) @ rotation_y(0.2)
                           @ forward_camera_extrinsic([0, 0, 0]).rotation,
                           [-0.5, -0.8, 1.4]))))
        truth = MotionParams(yaw=yaw, arc_length=arc, pitch=pitch, roll=roll)
        points = generate_scene(SceneSpec(150, seed=seed))
        expected = pixels_by_pose(points, rig, truth)
        if not expected:
            with pytest.raises(NoVisiblePoints):
                generate_matches(points, rig, truth, NoiseSpec(seed=seed))
            return
        sets, _ = generate_matches(points, rig, truth, NoiseSpec(seed=seed))
        assert [s.camera_id for s in sets] == list(expected)
        for s in sets:
            px0, px1 = expected[s.camera_id]
            assert s.pixels_t0.tobytes() == px0.tobytes()
            assert s.pixels_t1.tobytes() == px1.tobytes()

    def test_random_draws_in_documented_order(self):
        # camera 3 looks backwards, sees no point and so draws nothing
        back = Pose(rotation_z(np.pi)
                    @ forward_camera_extrinsic([0, 0, 0]).rotation,
                    [0.0, 0.0, 1.0])
        rig = CameraRig((RigCamera(3, PinholeCamera(INTR, (1280, 960)), back),
                         *make_rig([[2.0, 0.0, 0.0],
                                    [1.0, -0.8, -0.2]]).cameras))
        points = generate_scene(SceneSpec(200, seed=21))
        noise = NoiseSpec(pixel_sigma=0.7, outlier_fraction=0.25, seed=22)
        sets, labels = generate_matches(points, rig, self.truth, noise)
        clean = pixels_by_pose(points, rig, self.truth)
        assert [s.camera_id for s in sets] == list(clean) == [0, 1]
        # per camera: t0 noise, t1 noise, outlier choice, outlier u, v
        rng = np.random.Generator(np.random.PCG64(noise.seed))
        for s, inlier in zip(sets, labels):
            px0, px1 = clean[s.camera_id]
            px0 = px0 + rng.normal(0.0, noise.pixel_sigma, px0.shape)
            px1 = px1 + rng.normal(0.0, noise.pixel_sigma, px1.shape)
            n_out = round(noise.outlier_fraction * len(px0))
            chosen = rng.choice(len(px0), size=n_out, replace=False)
            px1[chosen, 0] = rng.uniform(0, 1279, n_out)
            px1[chosen, 1] = rng.uniform(0, 959, n_out)
            assert n_out > 0
            assert s.pixels_t0.tobytes() == px0.tobytes()
            assert s.pixels_t1.tobytes() == px1.tobytes()
            assert np.array_equal(np.flatnonzero(~inlier), np.sort(chosen))

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(pixel_sigma=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(outlier_fraction=1.5)

    @pytest.mark.parametrize("field, value", [
        ("pixel_sigma", np.nan), ("pixel_sigma", np.inf),
        ("outlier_fraction", np.nan)])
    def test_non_finite_noise_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            NoiseSpec(**{field: value})


class TestGridSearchOracle:
    def test_noise_free_truth_inside_bounds(self):
        truth = MotionParams(yaw=0.06, arc_length=1.0, free=("yaw",))
        points = generate_scene(SceneSpec(200, seed=20))
        sets, _ = generate_matches(points, RIG1, truth, NoiseSpec(seed=21))
        best = grid_search_oracle(RIG1, sets, {"yaw": (-0.3, 0.3)}, 41,
                                  RobustLoss("none"), MetricKind.ANGLEPLANE,
                                  truth)
        cell = 0.6 / 40
        assert abs(best.yaw - truth.yaw) <= cell

    def test_bounds_excluding_truth(self):
        truth = MotionParams(yaw=0.2, arc_length=1.0, free=("yaw",))
        points = generate_scene(SceneSpec(200, seed=22))
        sets, _ = generate_matches(points, RIG1, truth, NoiseSpec(seed=23))
        best = grid_search_oracle(RIG1, sets, {"yaw": (-0.1, 0.1)}, 21,
                                  RobustLoss("none"), MetricKind.ANGLEPLANE,
                                  truth)
        # argmin sits on the boundary nearest the excluded truth
        assert best.yaw == pytest.approx(0.1)

    def test_agrees_with_estimator(self):
        for seed in range(20):
            rng = np.random.Generator(np.random.PCG64(seed + 100))
            truth = MotionParams(yaw=rng.uniform(-0.25, 0.25),
                                 arc_length=1.0, free=("yaw",))
            points = generate_scene(SceneSpec(150, seed=seed))
            sets, _ = generate_matches(points, RIG1, truth,
                                       NoiseSpec(pixel_sigma=0.3,
                                                 seed=seed + 1))
            oracle = grid_search_oracle(RIG1, sets, {"yaw": (-0.3, 0.3)}, 41,
                                        RobustLoss("cauchy", 0.0065),
                                        MetricKind.ANGLEPLANE, truth)
            result = estimate(RIG1, sets, truth.with_values(yaw=oracle.yaw),
                              EstimatorOptions())
            assert abs(result.params.yaw - oracle.yaw) <= 0.6 / 40

    @pytest.mark.parametrize("bounds", [(np.nan, 0.1), (-0.1, np.nan),
                                        (-np.inf, 0.1), (-0.1, np.inf),
                                        (0.1, -0.1)])
    def test_bounds_must_be_finite_and_ordered(self, bounds):
        truth = MotionParams(yaw=0.0, arc_length=1.0, free=("yaw",))
        with pytest.raises(ValueError, match="invalid bounds for yaw"):
            grid_search_oracle(RIG1, [], {"yaw": bounds}, 5,
                               RobustLoss("none"), MetricKind.ANGLEPLANE,
                               truth)

    def test_resolution_validation(self):
        truth = MotionParams(yaw=0.0, arc_length=1.0, free=("yaw",))
        with pytest.raises(ValueError):
            grid_search_oracle(RIG1, [], {"yaw": (-0.1, 0.1)}, 1,
                               RobustLoss("none"), MetricKind.ANGLEPLANE,
                               truth)

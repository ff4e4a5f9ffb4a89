import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionprior.geometry import (TRANSLATION_EPS, DegenerateTranslation,
                                  PinholeCamera, PinholeIntrinsics, Pose,
                                  forward_camera_extrinsic, rotation_x,
                                  rotation_y, rotation_z)
from motionprior.manifold import (ENERGY_CHUNK, PARAM_FIELDS, CameraRig,
                                  MotionParams, RigCamera, lowest_energy,
                                  motion_arrays, multi_camera_energy,
                                  params_rows, pose_from_params,
                                  rig_residuals)
from motionprior.metrics import MatchSet, MetricKind, RigFrame, RobustLoss
from motionprior.simulate import (NoiseSpec, SceneSpec, generate_matches,
                                  generate_scene)
from oracles import (UNIT_CAM, bearing_set, camera_point_transform,
                     conjugate_to_camera, energy_at, essential_from_motion,
                     plane_residuals, pose_path_residuals, subset)

LOSS = RobustLoss("none")
INTR = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)


def make_rig(offsets):
    cams = tuple(RigCamera(i, PinholeCamera(INTR, (1280, 960)),
                           forward_camera_extrinsic(offset))
                 for i, offset in enumerate(offsets))
    return CameraRig(cams)


def noise_free_sets(rig, truth, seed=0, num_points=150):
    points = generate_scene(SceneSpec(num_points, (5.0, 40.0), 8.0, seed=seed))
    sets, _ = generate_matches(points, rig, truth, NoiseSpec(seed=seed + 1))
    return sets


class TestMotionParams:
    def test_yaw_bounds(self):
        with pytest.raises(ValueError):
            MotionParams(yaw=np.pi)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["arc_length", "pitch", "roll"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            MotionParams(**{field: value})

    def test_free_normalized_to_declaration_order(self):
        p = MotionParams(free=("arc_length", "yaw"))
        assert p.free == ("yaw", "arc_length")

    def test_unknown_free_field(self):
        with pytest.raises(ValueError):
            MotionParams(free=("speed",))


class TestPoseFromParams:
    def test_straight_motion(self):
        pose = pose_from_params(MotionParams(yaw=0.0, arc_length=2.0))
        assert np.allclose(pose.rotation, np.eye(3))
        assert np.allclose(pose.translation, [2.0, 0.0, 0.0])

    def test_quarter_turn_unit_radius(self):
        pose = pose_from_params(MotionParams(yaw=np.pi / 2,
                                             arc_length=np.pi / 2))
        assert np.allclose(pose.rotation, rotation_z(np.pi / 2))
        assert np.allclose(pose.translation, [1.0, 1.0, 0.0])

    def test_continuity_across_series_switch(self):
        near = pose_from_params(MotionParams(yaw=1e-9, arc_length=1.0))
        exact = pose_from_params(MotionParams(yaw=0.0, arc_length=1.0))
        assert np.abs(near.translation - exact.translation).max() <= 1e-9
        assert np.abs(near.rotation - exact.rotation).max() <= 1e-9
        # the series branch agrees with the closed form at the same yaw
        # oracle: cancellation-free closed form (1-cos g)/g = 2 sin^2(g/2)/g
        for g in (0.99e-6, 0.5e-6, 1e-8):
            pose = pose_from_params(MotionParams(yaw=g, arc_length=1.0))
            closed = np.array([np.sin(g) / g, 2 * np.sin(g / 2) ** 2 / g, 0.0])
            assert np.abs(pose.translation - closed).max() < 1e-15

    def test_planar_for_zero_pitch_roll(self):
        pose = pose_from_params(MotionParams(yaw=0.3, arc_length=2.0))
        assert pose.translation[2] == 0.0
        # rotation axis is z: z basis vector is fixed
        assert np.allclose(pose.rotation @ [0, 0, 1], [0, 0, 1])

    def test_arc_length_scales_translation_linearly(self):
        for k in (2.0, 10.0):
            t1 = pose_from_params(MotionParams(yaw=0.2, arc_length=1.5)).translation
            tk = pose_from_params(MotionParams(yaw=0.2, arc_length=1.5 * k)).translation
            assert np.allclose(tk, k * t1)

    def test_pitch_roll_composition(self):
        p = MotionParams(yaw=0.1, arc_length=1.0, pitch=0.05, roll=-0.02)
        pose = pose_from_params(p)
        planar = pose_from_params(MotionParams(yaw=0.1, arc_length=1.0))
        assert np.allclose(pose.translation, planar.translation)
        from motionprior.geometry import rotation_x, rotation_y
        expected = rotation_z(0.1) @ rotation_y(0.05) @ rotation_x(-0.02)
        assert np.allclose(pose.rotation, expected)


class TestConjugation:
    def test_identity_extrinsic(self):
        motion = pose_from_params(MotionParams(yaw=0.1, arc_length=1.0))
        assert conjugate_to_camera(motion, Pose.identity()).isclose(motion)

    def test_identity_motion(self):
        ext = forward_camera_extrinsic([2.0, 1.0, 0.5])
        assert conjugate_to_camera(Pose.identity(), ext).isclose(
            Pose.identity(), atol=1e-14)

    def test_lever_arm_magnitude(self):
        # pure rotation at the motion center excites 2 d sin(yaw/2) of
        # translation at a camera offset laterally by d
        gamma, d = 0.2, 1.5
        motion = Pose(rotation_z(gamma), np.zeros(3))
        ext = Pose(np.eye(3), [0.0, d, 0.0])
        conj = conjugate_to_camera(motion, ext)
        assert np.linalg.norm(conj.translation) == pytest.approx(
            2 * d * np.sin(gamma / 2))


class TestCameraRig:
    def test_duplicate_ids_rejected(self):
        cam = RigCamera(0, PinholeCamera(INTR), Pose.identity())
        with pytest.raises(ValueError):
            CameraRig((cam, cam))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CameraRig(())

    def test_lookup(self):
        rig = make_rig([[2.0, 1.0, 0.0], [2.0, -1.0, 0.0]])
        assert rig.camera(1).camera_id == 1
        with pytest.raises(KeyError):
            rig.camera(5)


class TestMultiCameraEnergy:
    def test_single_identity_camera_reduces_to_plain_energy(self):
        # bearings constructed directly in the motion-center frame, above
        # it so that the unit camera sees them
        rig = CameraRig((RigCamera(0, UNIT_CAM, Pose.identity()),))
        truth = MotionParams(yaw=0.05, arc_length=1.0)
        pose = pose_from_params(truth)
        rng = np.random.Generator(np.random.PCG64(1))
        points = rng.uniform(-5, 5, size=(50, 3)) + [0, 0, 10]
        b0 = points / np.linalg.norm(points, axis=1, keepdims=True)
        moved = pose.inverse().apply(points)
        b1 = moved / np.linalg.norm(moved, axis=1, keepdims=True)
        s = bearing_set(b0, b1)
        for p in (truth, truth.with_values(yaw=0.08, arc_length=1.5)):
            e = essential_from_motion(camera_point_transform(
                pose_from_params(p), Pose.identity()))
            r, valid = plane_residuals(e, b0, b1)
            direct = np.sum(LOSS.evaluate(r[valid] ** 2)[0])
            assert energy_at(p, rig, [s], LOSS, MetricKind.ANGLEPLANE) == \
                pytest.approx(direct, rel=1e-12)

    def test_noise_free_two_cameras(self):
        rig = make_rig([[2.0, 1.0, 0.0], [2.0, -1.0, 0.0]])
        truth = MotionParams(yaw=0.1, arc_length=1.0)
        sets = noise_free_sets(rig, truth, seed=2)
        assert energy_at(truth, rig, sets, LOSS,
                         MetricKind.ANGLEPLANE) < 1e-18

    def test_split_matchset_additivity(self):
        rig = make_rig([[2.0, 0.0, 0.0]])
        truth = MotionParams(yaw=0.05, arc_length=1.0)
        sets = noise_free_sets(rig, truth, seed=3)
        s = sets[0]
        half = len(s) // 2
        split = [subset(s, np.arange(half)), subset(s, np.arange(half, len(s)))]
        whole = energy_at(truth, rig, sets, LOSS, MetricKind.ANGLEPLANE)
        parts = energy_at(truth, rig, split, LOSS, MetricKind.ANGLEPLANE)
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_empty_matchset_contributes_zero(self):
        rig = make_rig([[2.0, 1.0, 0.0], [2.0, -1.0, 0.0]])
        truth = MotionParams(yaw=0.1, arc_length=1.0)
        sets = noise_free_sets(rig, truth, seed=4)
        empty = MatchSet(1, np.zeros((0, 2)), np.zeros((0, 2)))
        full = energy_at(truth, rig, sets, LOSS, MetricKind.ANGLEPLANE)
        with_empty = energy_at(truth, rig, [sets[0], empty], LOSS,
                               MetricKind.ANGLEPLANE)
        only_first = energy_at(truth, rig, [sets[0]], LOSS,
                               MetricKind.ANGLEPLANE)
        assert with_empty == only_first
        assert full >= only_first

    def test_degenerate_when_stationary(self):
        rig = CameraRig((RigCamera(0, PinholeCamera(INTR), Pose.identity()),))
        truth = MotionParams(yaw=0.05, arc_length=1.0)
        sets = [MatchSet(0, np.zeros((1, 2)), np.zeros((1, 2)))]
        assert energy_at(MotionParams(yaw=0.0, arc_length=0.0), rig, sets,
                         LOSS, MetricKind.ANGLEPLANE) == np.inf

    def test_single_camera_scale_blindness(self):
        rig = make_rig([[0.0, 0.0, 0.0]])
        truth = MotionParams(yaw=0.05, arc_length=1.0)
        sets = noise_free_sets(rig, truth, seed=5)
        base = MotionParams(yaw=0.08, arc_length=1.0)  # off-truth: nonzero energy
        e1 = energy_at(base, rig, sets, LOSS, MetricKind.ANGLEPLANE)
        for k in (0.5, 2.0, 7.0):
            ek = energy_at(base.with_values(arc_length=k), rig, sets, LOSS,
                           MetricKind.ANGLEPLANE)
            assert abs(ek - e1) <= 1e-12 * max(e1, 1.0)

    def test_curve_scale_observability(self):
        rig = make_rig([[2.0, 1.0, 0.0], [2.0, -1.0, 0.0]])
        truth = MotionParams(yaw=0.1, arc_length=1.0)
        sets = noise_free_sets(rig, truth, seed=6)
        at_truth = energy_at(truth, rig, sets, LOSS, MetricKind.ANGLEPLANE)
        for factor in (0.9, 1.1):
            off = energy_at(truth.with_values(arc_length=factor), rig, sets,
                            LOSS, MetricKind.ANGLEPLANE)
            assert off - at_truth > 1e-12

    def test_smooth_across_zero_yaw(self):
        rig = make_rig([[2.0, 1.0, 0.0]])
        truth = MotionParams(yaw=0.0, arc_length=1.0)
        sets = noise_free_sets(rig, truth, seed=7)
        def energy(g):
            return energy_at(truth.with_values(yaw=g), rig, sets, LOSS,
                             MetricKind.ANGLEPLANE)

        # first differences vary smoothly through the series handover: a
        # branch discontinuity would spike one of them
        for sign in (1.0, -1.0):
            yaws = sign * np.linspace(0.9e-6, 1.1e-6, 21)
            diffs = np.abs(np.diff([energy(g) for g in yaws]))
            assert diffs.max() < 3.0 * diffs.min()


def test_geoline_metric_through_multi_camera_energy():
    rig = make_rig([[2.0, 0.0, 0.0]])
    truth = MotionParams(yaw=0.05, arc_length=1.0)
    sets = noise_free_sets(rig, truth, seed=8)
    assert energy_at(truth, rig, sets, LOSS, MetricKind.GEOLINE) < 1e-12
    off = energy_at(truth.with_values(yaw=0.1), rig, sets, LOSS,
                    MetricKind.GEOLINE)
    assert off > 1.0


# Batched kernel against the per-point reference path. Rows are
# [yaw, arc_length, pitch, roll]; yaws include the series branch.
KERNEL_RIG = CameraRig((
    RigCamera(0, PinholeCamera(INTR, (1280, 960)),
              forward_camera_extrinsic([2.0, 1.0, 0.0])),
    RigCamera(1, PinholeCamera(INTR, (1280, 960)),
              Pose(forward_camera_extrinsic([0.0, 0.0, 0.0]).rotation
                   @ rotation_x(0.1), [1.5, -0.8, 0.3]))))
KERNEL_SETS = generate_matches(
    generate_scene(SceneSpec(120, seed=3)), KERNEL_RIG,
    MotionParams(yaw=0.08, arc_length=1.2, pitch=0.01),
    NoiseSpec(pixel_sigma=0.5, outlier_fraction=0.1, seed=4))[0]
CAUCHY = RobustLoss("cauchy", 0.0065)

yaws = st.one_of(st.floats(-0.5, 0.5), st.floats(-2e-6, 2e-6),
                 st.just(0.0))
tilts = st.one_of(st.just(0.0), st.floats(-0.05, 0.05))
kernel_rows = st.tuples(yaws, st.floats(-3.0, 3.0), tilts, tilts)


KERNEL_FRAMES = {
    metric: RigFrame.from_matches(KERNEL_RIG, KERNEL_SETS, metric)
    for metric in MetricKind}


def scalar_energy(row, metric):
    return energy_at(MotionParams(*map(float, row)), KERNEL_RIG, KERNEL_SETS,
                     CAUCHY, metric)


class TestBatchedKernel:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(kernel_rows, min_size=1, max_size=12))
    def test_rows_match_scalar_calls(self, rows):
        # the last row has zero motion, so no camera translates
        rows = np.array(rows + [(0.0, 0.0, 0.0, 0.0)])
        for metric in MetricKind:
            batch = multi_camera_energy(rows, KERNEL_FRAMES[metric], CAUCHY)
            scalar = [scalar_energy(row, metric) for row in rows]
            assert batch[-1] == np.inf
            assert np.allclose(batch, scalar, rtol=1e-12, atol=0.0)

    def test_more_rows_than_one_chunk(self):
        matches = sum(len(s) for s in KERNEL_SETS)
        k = 2 * (ENERGY_CHUNK // matches) + 3
        rng = np.random.Generator(np.random.PCG64(11))
        rows = np.stack([rng.uniform(-0.3, 0.3, k), rng.uniform(0.5, 2, k),
                         np.where(np.arange(k) % 3, 0.0, 0.02),
                         np.zeros(k)], axis=1)
        for metric in MetricKind:
            batch = multi_camera_energy(rows, KERNEL_FRAMES[metric], CAUCHY)
            scalar = [scalar_energy(row, metric) for row in rows]
            assert np.allclose(batch, scalar, rtol=1e-12, atol=0.0)

    def test_motion_arrays_match_closed_form(self):
        rows = np.array([[0.1, 1.5, 0.0, 0.0], [-0.2, 2.0, 0.03, 0.0],
                         [0.3, 0.5, 0.0, -0.04], [0.05, 1.0, 0.02, 0.01]])
        rot, t = motion_arrays(rows)
        for (g, arc, pitch, roll), r_k, t_k in zip(rows, rot, t):
            expected = rotation_z(g) @ rotation_y(pitch) @ rotation_x(roll)
            assert np.allclose(r_k, expected, rtol=0.0, atol=1e-15)
            chord = arc * np.array([np.sin(g) / g, (1 - np.cos(g)) / g, 0.0])
            assert np.allclose(t_k, chord, rtol=0.0, atol=1e-15)

    def test_chord_full_precision_at_small_yaw(self):
        # just above the series switch the series is still exact to eps
        g = np.array([1.5e-6, 1e-5, 1e-4])
        rows = np.stack([g, np.ones(3), np.zeros(3), np.zeros(3)], axis=1)
        _, t = motion_arrays(rows)
        assert np.allclose(t[:, 1], g / 2 - g ** 3 / 24 + g ** 5 / 720,
                           rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_lowest_energy_tie_breaks(self):
        rows = np.array([[0.1, 0.5, 0, 0], [-0.05, 2.0, 0, 0],
                         [0.05, 1.0, 0, 0], [0.05, 1.0, 0, 0],
                         [0.0, 0.1, 0, 0], [0.0, 0.1, 0, 0]])
        energies = np.array([1.0, 1.0, 1.0, 1.0, 2.0, np.inf])
        # equal energy: smallest |yaw|, then smallest arc, then first row
        assert lowest_energy(rows, energies) == 2
        assert lowest_energy(rows, np.full(6, np.inf)) is None

    def test_out_of_domain_yaw_is_inf(self):
        rows = np.array([[np.pi, 1.0, 0.0, 0.0], [0.1, 1.0, 0.0, 0.0]])
        energies = multi_camera_energy(
            rows, KERNEL_FRAMES[MetricKind.ANGLEPLANE], CAUCHY)
        assert energies[0] == np.inf and np.isfinite(energies[1])

    @settings(max_examples=50, deadline=None)
    @given(kernel_rows)
    @example((0.0, 0.99e-12, 0.0, 0.0))
    @example((0.0, 1e-12, 0.0, 0.0))
    @example((0.0, 1.01e-12, 0.0, 0.0))
    def test_rig_frame_matches_pose_path(self, row):
        p = MotionParams(*map(float, row))
        motion = pose_from_params(p)
        for metric in MetricKind:
            frame = RigFrame.from_matches(KERNEL_RIG, KERNEL_SETS, metric)
            components, valid, usable = rig_residuals(params_rows(p), frame)
            translates = []
            for c, s in enumerate(KERNEL_SETS):
                cam = KERNEL_RIG.camera(s.camera_id)
                own = frame.camera_index == c
                # both paths cancel the lever arm te, so the camera
                # translation carries an absolute rounding error of a few
                # ulps of |te|
                rounding = 8 * np.finfo(float).eps * np.linalg.norm(
                    cam.extrinsic.translation)
                reference = np.linalg.norm(camera_point_transform(
                    motion, cam.extrinsic).translation)
                if abs(reference - TRANSLATION_EPS) <= rounding:
                    translates.append(None)
                    continue  # on the threshold either decision is correct
                translates.append(reference >= TRANSLATION_EPS)
                try:
                    expected, ok = pose_path_residuals(motion, cam, s, metric)
                except DegenerateTranslation:
                    assert not valid[0, own].any()
                    continue
                assert np.array_equal(valid[0, own], ok)
                if reference < 1e-3:
                    continue  # the direction of t rounds at |te| eps / |t|
                kernel = components[0, own][ok]
                assert np.allclose(kernel, expected[ok], rtol=0.0,
                                   atol=1e-12 * np.abs(expected).max())
            if None not in translates:
                assert usable[0] == any(translates)


# Closed-form Jacobian against central differences of the residual vector.
# The rig adds a camera at the motion centre, which has no lever arm. Both
# chord branches are exact to rounding at the series switch, so a stencil
# may straddle it.
JAC_RIG = CameraRig(KERNEL_RIG.cameras + (
    RigCamera(2, PinholeCamera(INTR, (1280, 960)),
              forward_camera_extrinsic([0.0, 0.0, 0.0])),))
JAC_SETS = generate_matches(
    generate_scene(SceneSpec(90, seed=5)), JAC_RIG,
    MotionParams(yaw=0.08, arc_length=1.2, pitch=0.01),
    NoiseSpec(pixel_sigma=0.5, outlier_fraction=0.1, seed=6))[0]
JAC_STEP = 1e-6

jac_rows = st.tuples(
    yaws, st.one_of(st.floats(0.2, 3.0), st.floats(-3.0, -0.2)), tilts,
    tilts)


class TestJacobian:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(jac_rows, min_size=1, max_size=6))
    @example([(5e-7, 1.0, 0.0, 0.0), (0.0, -1.5, 0.02, -0.03),
              (1.5e-6, 0.8, 0.0, 0.01), (-1e-4, 2.0, 0.0, 0.0),
              (0.0, 2.375, -0.015625, -0.01171875),
              (0.0, 0.203125, 0.021484375, 0.0),
              (0.0, -2.34375, -0.05, 0.0)])
    def test_matches_central_differences(self, rows):
        rows = np.array(rows)
        assert {s.camera_id for s in JAC_SETS} == {0, 1, 2}
        for metric in MetricKind:
            frame = RigFrame.from_matches(JAC_RIG, JAC_SETS, metric)
            components, valid, _, jac = rig_residuals(rows, frame,
                                                      PARAM_FIELDS)

            def central(k, h):
                step = np.zeros(4)
                step[k] = h
                plus = rig_residuals(rows + step, frame)
                minus = rig_residuals(rows - step, frame)
                return ((plus[0] - minus[0]) / (2 * h))[valid]

            # pixel residuals round at ~eps x pixel coordinates, which the
            # difference quotient amplifies by 1 / JAC_STEP: their scale is
            # floored at the image width
            floor = 1280.0 if metric is MetricKind.GEOLINE else 1.0
            for k in range(4):
                # Richardson step: matches near the epipole vary fast, and
                # this cancels the quotient's O(JAC_STEP^2) error
                reference = (4 * central(k, JAC_STEP / 2)
                             - central(k, JAC_STEP)) / 3
                scale = max(np.abs(reference).max(), floor)
                assert np.allclose(jac[..., k][valid], reference, rtol=1e-5,
                                   atol=1e-5 * scale), (metric, k)

    def test_subset_of_fields_in_order(self):
        rows = np.array([[0.1, 1.2, 0.01, 0.0], [-4e-7, 0.8, 0.0, 0.02]])
        frame = RigFrame.from_matches(JAC_RIG, JAC_SETS, MetricKind.GEOLINE)
        full = rig_residuals(rows, frame, PARAM_FIELDS)
        part = rig_residuals(rows, frame, ("arc_length", "roll"))
        for a, b in zip(full[:3], part[:3]):
            assert np.array_equal(a, b)
        assert np.array_equal(part[3], full[3][..., [1, 3]])
        assert rig_residuals(rows, frame, ())[3].shape == full[0].shape + (0,)


def kernel_at(row, match_sets, metric):
    """rig_residuals at one row, and the energy, for these match sets."""
    frame = RigFrame.from_matches(JAC_RIG, match_sets, metric)
    out = rig_residuals(np.array([row]), frame)
    return out, multi_camera_energy(np.array([row]), frame, CAUCHY)[0]


def assert_same_kernel(a, b, order):
    """b equals a with its matches taken in `order`, to 1e-12 relative."""
    (components, valid, usable), energy = a
    (components_b, valid_b, usable_b), energy_b = b
    assert np.array_equal(valid[:, order], valid_b)
    assert np.array_equal(usable, usable_b)
    scale = np.abs(components).max()
    assert np.allclose(components[:, order], components_b, rtol=1e-12,
                       atol=1e-12 * scale)
    assert energy_b == pytest.approx(energy, rel=1e-12, abs=0.0)


class TestInvariance:
    """The one-pass kernel concatenates every camera's matches: neither
    the order of matches within a set nor the order of the sets (the
    cameras) may change a residual or the energy."""

    @settings(max_examples=20, deadline=None)
    @given(jac_rows, st.tuples(*[st.permutations(range(len(s)))
                                 for s in JAC_SETS]))
    def test_match_order_within_sets(self, row, orders):
        permuted = [subset(s, list(o)) for s, o in zip(JAC_SETS, orders)]
        starts = np.cumsum([0] + [len(s) for s in JAC_SETS])
        order = np.concatenate([start + np.array(o)
                                for start, o in zip(starts, orders)])
        for metric in MetricKind:
            assert_same_kernel(kernel_at(row, JAC_SETS, metric),
                               kernel_at(row, permuted, metric), order)

    @settings(max_examples=20, deadline=None)
    @given(jac_rows, st.permutations(range(len(JAC_SETS))))
    def test_camera_order(self, row, cameras):
        permuted = [JAC_SETS[c] for c in cameras]
        starts = np.cumsum([0] + [len(s) for s in JAC_SETS])
        order = np.concatenate([np.arange(starts[c], starts[c + 1])
                                for c in cameras])
        for metric in MetricKind:
            assert_same_kernel(kernel_at(row, JAC_SETS, metric),
                               kernel_at(row, permuted, metric), order)


def rig_energies(rig, match_sets, rows, metric):
    frame = RigFrame.from_matches(rig, match_sets, metric)
    return multi_camera_energy(np.array(rows), frame, CAUCHY)


class RotatedModel:
    """A camera model whose bearings are those of `model` rotated by q."""

    def __init__(self, model, q):
        self.model, self.q = model, q

    def pixel_to_bearing(self, pixels):
        return self.model.pixel_to_bearing(pixels) @ self.q.T


def with_extrinsic(rig, camera_id, extrinsic):
    return CameraRig(tuple(
        RigCamera(c.camera_id, c.model, extrinsic)
        if c.camera_id == camera_id else c for c in rig.cameras))


untilted_rows = st.tuples(
    yaws, st.one_of(st.floats(0.2, 3.0), st.floats(-3.0, -0.2)),
    st.just(0.0), st.just(0.0))
angles = st.floats(-np.pi, np.pi)


class TestRigFrameInvariance:
    """Changes of the rig frame that the motion cannot see leave the
    energy unchanged, to 1e-12 relative."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(untilted_rows, min_size=1, max_size=6),
           st.floats(-2.0, 2.0))
    def test_common_vertical_lever_arm_offset(self, rows, offset):
        # a motion without pitch or roll turns about the vertical axis and
        # moves horizontally, so every mounting height sees it alike; with
        # pitch or roll it does not
        shifted = JAC_RIG
        for c in JAC_RIG.cameras:
            shifted = with_extrinsic(shifted, c.camera_id, Pose(
                c.extrinsic.rotation,
                c.extrinsic.translation + [0.0, 0.0, offset]))
        for metric in MetricKind:
            before = rig_energies(JAC_RIG, JAC_SETS, rows, metric)
            after = rig_energies(shifted, JAC_SETS, rows, metric)
            assert np.isfinite(before).all()
            assert after == pytest.approx(before, rel=1e-12, abs=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(jac_rows, min_size=1, max_size=6),
           st.sampled_from(JAC_SETS), st.tuples(angles, angles, angles))
    def test_camera_frame_rotation(self, rows, s, zyx):
        # extrinsic rotation R_e Q^T and a model lifting to bearings Q b:
        # the same rays in the vehicle frame
        q = rotation_z(zyx[0]) @ rotation_y(zyx[1]) @ rotation_x(zyx[2])
        cam = JAC_RIG.camera(s.camera_id)
        rig = CameraRig(tuple(
            RigCamera(c.camera_id, RotatedModel(c.model, q), Pose(
                c.extrinsic.rotation @ q.T, c.extrinsic.translation))
            if c is cam else c for c in JAC_RIG.cameras))
        before = rig_energies(JAC_RIG, JAC_SETS, rows, MetricKind.ANGLEPLANE)
        after = rig_energies(rig, JAC_SETS, rows, MetricKind.ANGLEPLANE)
        assert np.isfinite(before).all()
        assert after == pytest.approx(before, rel=1e-12, abs=0.0)

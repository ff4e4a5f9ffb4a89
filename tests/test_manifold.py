import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionprior import manifold
from motionprior.geometry import (TRANSLATION_EPS, DegenerateTranslation,
                                  PinholeCamera, PinholeIntrinsics, Pose,
                                  forward_camera_extrinsic, rotation_x,
                                  rotation_y, rotation_z, skew)
from motionprior.estimator import DEFAULT_LOSS, _solver_state, estimate
from motionprior.manifold import (ENERGY_CHUNK, PARAM_FIELDS,
                                  YAW_SERIES_SWITCH, CameraRig,
                                  MotionParams, RigCamera, lowest_energy,
                                  motion_arrays, motion_features,
                                  multi_camera_energy, params_rows,
                                  pose_from_params, rig_residuals)
from motionprior.metrics import (PLANAR_TO_TILTED, MatchSet, MetricKind,
                                 RigFrame, RobustLoss, feature_maps)
from motionprior.simulate import (NoiseSpec, SceneSpec, generate_matches,
                                  generate_scene)
from oracles import (UNIT_CAM, apply, bearing_set, camera_point_transform,
                     conjugate_to_camera, energy_at, essential_from_motion,
                     exact_plane_residuals, exact_pure_rotation, identity,
                     inverse, isclose, plane_residuals, pose_path_residuals,
                     subset)

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
        assert isclose(conjugate_to_camera(motion, identity()), motion)

    def test_identity_motion(self):
        ext = forward_camera_extrinsic([2.0, 1.0, 0.5])
        assert isclose(conjugate_to_camera(identity(), ext), identity(),
                       atol=1e-14)

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
        cam = RigCamera(0, PinholeCamera(INTR), identity())
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
        rig = CameraRig((RigCamera(0, UNIT_CAM, identity()),))
        truth = MotionParams(yaw=0.05, arc_length=1.0)
        pose = pose_from_params(truth)
        rng = np.random.Generator(np.random.PCG64(1))
        points = rng.uniform(-5, 5, size=(50, 3)) + [0, 0, 10]
        b0 = points / np.linalg.norm(points, axis=1, keepdims=True)
        moved = apply(inverse(pose), points)
        b1 = moved / np.linalg.norm(moved, axis=1, keepdims=True)
        s = bearing_set(b0, b1)
        for p in (truth, truth.with_values(yaw=0.08, arc_length=1.5)):
            e = essential_from_motion(camera_point_transform(
                pose_from_params(p), identity()))
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
        rig = CameraRig((RigCamera(0, PinholeCamera(INTR), identity()),))
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

    def test_row_blocks_equal_chunks_and_rows(self, monkeypatch):
        # 6 matches and ENERGY_CHUNK 20: chunks of 3 rows, geometry blocks
        # of 18, so 44 rows span three blocks and end on a 2-row chunk.
        # BLAS rounds a product differently for different row counts, so
        # the energies equal one-chunk calls bit for bit and single-row
        # calls to 1e-12
        sets = [subset(s, slice(3)) for s in KERNEL_SETS]
        monkeypatch.setattr(manifold, "ENERGY_CHUNK", 20)
        rng = np.random.Generator(np.random.PCG64(12))
        k = 44
        rows = np.stack([rng.uniform(-0.3, 0.3, k), rng.uniform(0.5, 2, k),
                         np.where(np.arange(k) % 3, 0.0, 0.02),
                         np.zeros(k)], axis=1)
        rows[25] = 0.0                    # no camera translates
        rows[40, 0] = np.pi               # outside the yaw domain
        rows[41, 0] = -4.0
        for metric in MetricKind:
            frame = RigFrame.from_matches(KERNEL_RIG, sets, metric)
            batch = multi_camera_energy(rows, frame, CAUCHY)
            chunks = [multi_camera_energy(rows[i:i + 3], frame, CAUCHY)
                      for i in range(0, k, 3)]
            single = [multi_camera_energy(row[None], frame, CAUCHY)[0]
                      for row in rows]
            assert np.array_equal(batch, np.concatenate(chunks))
            assert np.allclose(batch, single, rtol=1e-12, atol=0.0)
            assert np.flatnonzero(np.isinf(batch)).tolist() == [25, 40, 41]

    def test_energy_memory_is_bounded_in_rows(self, monkeypatch):
        # beside its 8-byte-per-row output the energy holds at most two
        # blocks of motion features (one being replaced; 29 or 8 a row)
        # and one chunk of match work, whatever the row count: at 20
        # matches 4096 rows are four blocks of 1020, and 64 KiB of slack
        # covers the tracer's own objects
        frame = RigFrame.from_matches(
            KERNEL_RIG, [subset(s, slice(10)) for s in KERNEL_SETS],
            MetricKind.ANGLEPLANE)
        monkeypatch.setattr(manifold, "ENERGY_CHUNK", 1024)

        def peak(k, pitch):
            rows = np.tile([[0.1, 1.2, pitch, 0.0]], (k, 1))
            tracemalloc.start()
            try:
                multi_camera_energy(rows, frame, CAUCHY)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        k = 4096
        for pitch in (0.01, 0.0):           # tilted and planar features
            assert peak(8 * k, pitch) - peak(k, pitch) <= 8 * 7 * k + 64 * 1024

    def test_motion_arrays_match_closed_form(self):
        rows = np.array([[0.1, 1.5, 0.0, 0.0], [-0.2, 2.0, 0.03, 0.0],
                         [0.3, 0.5, 0.0, -0.04], [0.05, 1.0, 0.02, 0.01]])
        rot, t = motion_arrays(rows)
        for (g, arc, pitch, roll), r_k, t_k in zip(rows, rot, t):
            expected = rotation_z(g) @ rotation_y(pitch) @ rotation_x(roll)
            assert np.allclose(r_k, expected, rtol=0.0, atol=1e-15)
            chord = arc * np.array([np.sin(g) / g, (1 - np.cos(g)) / g, 0.0])
            assert np.allclose(t_k, chord, rtol=0.0, atol=1e-15)

    def test_batch_equals_rows_and_closed_form(self):
        # closed-form, series and zero-yaw rows, tilted and untilted: each
        # row of a batch equals, bit for bit, the row evaluated alone, and
        # the rotations and translations do not depend on `wrt`
        rows = np.array([[0.1, 1.5, 0.0, 0.0], [5e-7, 2.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0], [-0.2, 0.5, 0.03, 0.0],
                         [-3e-7, 1.2, 0.0, -0.04], [0.0, 0.8, 0.02, 0.01],
                         [1e-6, -1.0, 0.0, 0.0], [3.1, 0.7, -0.01, 0.0]])
        plain = motion_arrays(rows)
        for wrt in (None, PARAM_FIELDS, ("yaw",), ("arc_length", "roll")):
            batch = motion_arrays(rows, wrt)
            for a, b in zip(plain, batch):
                assert np.array_equal(a, b)
            for k, row in enumerate(rows):
                for a, b in zip(batch, motion_arrays(row[None], wrt)):
                    assert np.array_equal(a[k], b[0])
        rot, t, d_rot, d_t = motion_arrays(rows, PARAM_FIELDS)
        axes = np.stack([skew(axis) for axis in np.eye(3)])
        for k, (g, arc, pitch, roll) in enumerate(rows):
            rz, ry, rx = rotation_z(g), rotation_y(pitch), rotation_x(roll)
            expected = rz @ ry @ rx
            assert np.allclose(rot[k], expected, rtol=0.0, atol=1e-15)
            # [ez]x R, 0, Rz Ry [ey]x Rx, R [ex]x
            for d, want in zip(d_rot[k], (axes[2] @ expected, 0.0,
                                          rz @ ry @ axes[1] @ rx,
                                          expected @ axes[0])):
                assert np.allclose(d, want, rtol=0.0, atol=1e-15)
            if abs(g) < YAW_SERIES_SWITCH:
                # the series' limit at zero yaw, to first order in g
                chord = np.array([1.0, g / 2])
                d_chord = np.array([-g / 3, 0.5])
                atol = 1e-12
            else:
                chord = np.array([np.sin(g), 2 * np.sin(g / 2) ** 2]) / g
                d_chord = (np.array([np.cos(g), np.sin(g)]) - chord) / g
                atol = 1e-15
            assert np.allclose(t[k, :2], arc * chord, rtol=0.0, atol=atol)
            assert np.allclose(d_t[k, 1, :2], chord, rtol=0.0, atol=atol)
            assert np.allclose(d_t[k, 0, :2], arc * d_chord, rtol=0.0,
                               atol=atol)
            assert t[k, 2] == 0.0 and not d_t[k, :2, 2].any()
            assert not d_t[k, 2:].any() and not d_rot[k, 1].any()

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


class TestSolverEnergy:
    """The solver's one-row energy is the dense energy of the same row:
    both come from the one kernel, through a (1 + P, F) and a (K, F)
    product with the joint map and two sums of the valid rho, which may
    round apart in the last bits only."""

    @settings(max_examples=40, deadline=None)
    @given(jac_rows)
    @example((1e-8, 1.0, 0.0, 0.0))
    @example((-1e-8, 0.0, 0.0, 0.0))       # turning on the spot
    @example((0.05, 0.0, 0.0, 0.0))        # camera 2 does not translate
    @example((0.05, 5e-13, 0.0, 0.0))      # ... though its rho is not 0
    @example((0.05, 0.0, 0.01, -0.02))
    @example((1e-8, -0.5, 0.0, 0.03))
    def test_equals_dense_energy(self, row):
        row = np.array([row])
        free = PARAM_FIELDS if row[0, 2:].any() else ("yaw", "arc_length")
        for metric in MetricKind:
            frame = RigFrame.from_matches(JAC_RIG, JAC_SETS, metric)
            loss = DEFAULT_LOSS[metric]
            *_, valid, energy = _solver_state(row, free, frame, loss)
            dense = multi_camera_energy(row, frame, loss)[0]
            assert energy == pytest.approx(dense, rel=1e-14, abs=0.0)
            if abs(row[0, 1]) < TRANSLATION_EPS:
                assert not valid[frame.camera_index == 2].any()


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


# Motion features: the solver's one-row scalar build, the numpy build of
# many rows and the 29 tilted features, against each other, against
# central differences and against M and u formed from motion_arrays.
EPS = np.finfo(float).eps
SWITCH_YAWS = (0.0, 0.5 * YAW_SERIES_SWITCH, 0.99 * YAW_SERIES_SWITCH,
               1.01 * YAW_SERIES_SWITCH, 2 * YAW_SERIES_SWITCH, 0.3)


def m_and_u_from_motion(rows, lever_arm):
    """vec M (K, 9) and u (K, 3) of one lever arm te, formed as
    u = R^T (te - t) - te and M = [u]x R^T from motion_arrays."""
    rot, t = motion_arrays(rows)
    u = np.einsum("ki,kij->kj", lever_arm - t, rot) - lever_arm
    m = np.stack([skew(u_k) @ r_k.T for u_k, r_k in zip(u, rot)])
    return m.reshape(-1, 9), u


class TestMotionFeatures:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("wrt", [("yaw", "arc_length"), PARAM_FIELDS])
    def test_derivatives_match_central_differences(self, sign, wrt):
        # at zero yaw and on both sides of the series switch; the
        # stencil's O(h^2) error and its rounding, eps / h, both stay
        # below 1e-9 at h = 1e-5 for features of size ~1
        rows = np.array([[sign * g, 1.3, 0.0, 0.0] for g in SWITCH_YAWS])
        if "pitch" in wrt:
            rows[1::2, 2:] = [0.02, -0.03]
        stacked = motion_features(rows, wrt)
        phi, d_phi = stacked[:, 0], stacked[:, 1:]
        assert phi.shape[1] == (8 if len(wrt) == 2 else 29)
        h = 1e-5
        for k, field in enumerate(wrt):
            step = np.zeros(4)
            step[PARAM_FIELDS.index(field)] = h
            plus = motion_features(rows + step, wrt)[:, 0]
            minus = motion_features(rows - step, wrt)[:, 0]
            assert np.allclose(d_phi[:, k], (plus - minus) / (2 * h),
                               rtol=0.0, atol=1e-9), field

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(yaws, st.floats(-3.0, 3.0)), min_size=1,
                    max_size=8))
    @example([(0.0, 1.0), (0.99e-6, -2.0), (1.01e-6, 0.5), (-0.4, 0.0),
              (2.3148326704715444e-157, 0.0)])
    def test_scalar_row_equals_numpy_rows(self, rows):
        # the two builds differ only in math's and numpy's sin and cos,
        # which may round a last bit apart: each feature, a product of at
        # most three such terms, agrees to 16 ulps, or below 1e-300, where
        # products lose their relative precision to underflow
        rows = np.array([(g, arc, 0.0, 0.0) for g, arc in rows])
        numpy_phi = motion_features(rows)
        stacked = motion_features(rows, ())
        assert stacked.shape == (len(rows), 1, 8)
        scalar_phi = stacked[:, 0]
        assert np.allclose(scalar_phi, numpy_phi, rtol=16 * EPS, atol=1e-300)

    @pytest.mark.parametrize("lever_arm", [[2.0, 1.0, 0.0],
                                           [1.5, -0.8, 0.3],
                                           [0.0, 0.0, 0.0]])
    def test_tilted_features_give_motion_arrays_m_and_u(self, lever_arm):
        rows = np.array([[0.1, 1.5, 0.02, 0.0], [-0.2, 0.5, 0.0, -0.04],
                         [3e-7, 1.2, 0.03, 0.01], [0.3, 0.0, -0.05, 0.02],
                         [0.0, -1.0, 0.01, 0.01]])
        phi = motion_features(rows)
        assert phi.shape == (len(rows), 29)
        m_map, u_map = feature_maps(lever_arm)
        m, u = m_and_u_from_motion(rows, np.array(lever_arm))
        assert np.allclose(phi @ m_map, m, rtol=0.0, atol=1e-15)
        assert np.allclose(phi @ u_map, u, rtol=0.0, atol=1e-15)

    def test_planar_features_are_the_untilted_tilted_ones(self):
        # the planar features times PLANAR_TO_TILTED are the tilted ones
        # of the same rows, and give motion_arrays' M of every arm
        rows = np.array([[g, arc, 0.0, 0.0] for g in SWITCH_YAWS
                         for arc in (0.0, 1.0, -2.5)])
        phi = motion_features(rows)
        tilted = motion_features(rows, ("pitch",))[:, 0]
        assert phi.shape[1] == 8 and tilted.shape[1] == 29
        assert np.allclose(phi @ PLANAR_TO_TILTED, tilted, rtol=0.0,
                           atol=1e-16)
        for arm in ([2.0, 1.0, 0.0], [1.5, -0.8, 0.3]):
            m, _ = m_and_u_from_motion(rows, np.array(arm))
            m_map, _ = feature_maps(arm, 8)
            assert np.allclose(phi @ m_map, m, rtol=0.0, atol=1e-15)


# Pure rotation: the drive rig's two lever arms plus an off-axis one.
# u = R^T (te - t) - te cancels |te| down to |u| ~ |yaw| |te|, so formed
# that way M is off by ~eps / |yaw|; from the features it is not.
PURE_RIG = make_rig([[2.0, 1.0, 0.0], [2.0, -1.0, 0.0], [1.5, -0.8, 0.3]])
PURE_SETS = generate_matches(
    generate_scene(SceneSpec(120, seed=9)), PURE_RIG,
    MotionParams(yaw=0.05, arc_length=1.0),
    NoiseSpec(pixel_sigma=0.5, seed=10))[0]


class TestPureRotationPrecision:
    @pytest.mark.parametrize("yaw", [1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_angleplane_residuals_match_exact_m(self, yaw):
        # the pair's m is the tangent of half its angle, ~ yaw / 2
        yaw, exact_m = exact_pure_rotation(Fraction(yaw / 2),
                                           [c.extrinsic.translation
                                            for c in PURE_RIG.cameras])
        frame = RigFrame.from_matches(PURE_RIG, PURE_SETS,
                                      MetricKind.ANGLEPLANE)
        row = np.array([[yaw, 0.0, 0.0, 0.0]])
        for wrt in (None, ("yaw", "arc_length")):
            components, valid, usable, *_ = rig_residuals(row, frame, wrt)
            assert usable[0] and valid.all()
            for c, s in enumerate(PURE_SETS):
                cam = PURE_RIG.camera(s.camera_id)
                rays = [cam.extrinsic.rotation
                        @ cam.model.pixel_to_bearing(p).T
                        for p in (s.pixels_t0, s.pixels_t1)]
                expected = exact_plane_residuals(exact_m[cam.camera_id],
                                                 rays[0].T, rays[1].T)
                kernel = components[0, frame.camera_index == c, 0]
                # relative to the largest residual: a sine near zero
                # carries the rounding of its O(1) terms
                assert np.abs(kernel - expected).max() <= \
                    1e-13 * np.abs(expected).max()


class TestDegenerateCamera:
    """A camera at the motion centre (te = 0) translates by the vehicle's
    t only: as the arc tends to 0 and at pure rotation |u| <
    TRANSLATION_EPS, and all its matches are invalid in both builds of
    the features."""

    CENTRE = JAC_RIG.camera(2)
    ROWS = [(0.05, 0.99e-12), (0.05, -0.5e-12), (-3e-7, 1e-13),
            (0.05, 0.0), (-0.2, 0.0), (0.5e-6, 0.0)]

    @pytest.mark.parametrize("yaw, arc", ROWS)
    def test_centre_camera_matches_invalid(self, yaw, arc):
        assert not self.CENTRE.extrinsic.translation.any()
        row = np.array([[yaw, arc, 0.0, 0.0]])
        for metric in MetricKind:
            frame = RigFrame.from_matches(JAC_RIG, JAC_SETS, metric)
            centre = frame.camera_index == 2
            for wrt in (None, ("yaw", "arc_length")):
                _, valid, usable, *_ = rig_residuals(row, frame, wrt)
                assert usable[0]        # the cameras with lever arms move
                assert not valid[0, centre].any()
                assert valid[0, ~centre].any()
        # an arc just above the threshold: the camera translates again
        _, valid, _ = rig_residuals(np.array([[yaw, 2e-12, 0.0, 0.0]]),
                                    frame)
        assert valid[0, centre].any()

    @pytest.mark.parametrize("wrt", [None, ("yaw", "arc_length")])
    def test_rule_holds_where_the_epipole_test_passes(self, wrt):
        # line vectors grow with the ray, here |K^-1 x| ~ 1e3, so at |u|
        # just below TRANSLATION_EPS they clear DEGENERACY_EPS: the rule
        # alone makes the centre camera's matches invalid
        rng = np.random.Generator(np.random.PCG64(13))
        pixels = rng.uniform(-1000.0, 1000.0, (4, 20, 2))
        rig = CameraRig((
            RigCamera(0, UNIT_CAM, forward_camera_extrinsic([0.0, 0.0, 0.0])),
            RigCamera(1, UNIT_CAM, forward_camera_extrinsic([2.0, 1.0, 0.0]))))
        sets = [MatchSet(0, *pixels[:2]), MatchSet(1, *pixels[2:])]
        frame = RigFrame.from_matches(rig, sets, MetricKind.GEOLINE)
        _, valid, usable, *_ = rig_residuals(
            np.array([[0.05, 0.99e-12, 0.0, 0.0]]), frame, wrt)
        assert usable[0]
        assert not valid[0, :20].any() and valid[0, 20:].all()

    @pytest.mark.parametrize("yaw, arc", ROWS)
    def test_centre_camera_alone_is_degenerate(self, yaw, arc):
        rig = CameraRig((self.CENTRE,))
        sets = [s for s in JAC_SETS if s.camera_id == 2]
        row = np.array([[yaw, arc, 0.0, 0.0]])
        for metric in MetricKind:
            frame = RigFrame.from_matches(rig, sets, metric)
            assert multi_camera_energy(row, frame, CAUCHY)[0] == np.inf
            assert not rig_residuals(row, frame, ("yaw",))[2][0]
            with pytest.raises(DegenerateTranslation,
                               match="zero translation"):
                estimate(rig, sets, MotionParams(yaw=yaw, arc_length=arc,
                                                 free=("yaw",)))

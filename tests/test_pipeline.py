import numpy as np
import pytest

from motionprior.estimator import EstimatorOptions
from motionprior.geometry import (GenericCamera, PinholeCamera,
                                  PinholeIntrinsics, forward_camera_extrinsic)
from motionprior.io_formats import (FramePairRecord, NoRecords, Scenario,
                                    SequenceProfile)
from motionprior.manifold import (CameraRig, MotionParams, RigCamera,
                                  pose_from_params)
from motionprior.metrics import MetricKind, RigFrame
from motionprior.pipeline import (FixedScale, FreeInCurves,
                                  match_sets_from_record, run_sequence,
                                  simulate_sequence)
from motionprior.simulate import (NoiseSpec, SceneSpec, generate_matches,
                                  generate_scene)

INTR = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)


def make_rig(offsets):
    cams = tuple(RigCamera(i, PinholeCamera(INTR, (1280, 960)),
                           forward_camera_extrinsic(offset))
                 for i, offset in enumerate(offsets))
    return CameraRig(cams)


RIG1 = make_rig([[2.0, 0.0, 0.0]])
RIG2 = make_rig([[2.0, 0.0, 0.0], [1.0, 0.8, 0.2]])


def make_records(rig, yaws, arc=1.0, seed=0, noise=NoiseSpec(seed=1)):
    records = []
    for k, yaw in enumerate(yaws):
        truth = MotionParams(yaw=yaw, arc_length=arc)
        points = generate_scene(SceneSpec(150, seed=seed + k))
        sets, _ = generate_matches(points, rig, truth, noise)
        pixels = {s.camera_id: (np.asarray(s.pixels_t0),
                                np.asarray(s.pixels_t1)) for s in sets}
        records.append(FramePairRecord(k, k + 1, pixels))
    return records


class TestMatchSetsFromRecord:
    def test_frame_lifts_pixels_through_camera_model(self):
        records = make_records(RIG2, [0.02])
        sets = match_sets_from_record(records[0])
        assert [s.camera_id for s in sets] == [0, 1]
        for s in sets:
            assert np.array_equal(s.pixels_t0,
                                  records[0].pixels[s.camera_id][0])
        frame = RigFrame.from_matches(RIG2, sets, MetricKind.ANGLEPLANE)
        cam = RIG2.camera(1)
        expected = (cam.extrinsic.rotation
                    @ cam.model.pixel_to_bearing(sets[1].pixels_t0).T)
        # camera slot 1's M_0j rows, at each of its matches' (M v0)_0
        # row, hold the rays Re b0
        n0, n = len(sets[0]), len(frame)
        assert np.array_equal(frame.design[9:12, n + n0:2 * n], expected)


class TestRunSequence:
    def test_fixed_scale_noise_free_recovery(self):
        yaws = [0.03, 0.03, -0.02, 0.0, 0.01]
        records = make_records(RIG1, yaws)
        traj, outcomes = run_sequence(RIG1, records,
                                      FixedScale([1.0] * len(yaws)))
        assert len(traj) == len(yaws) + 1
        assert not any(o.failed for o in outcomes)
        for o, yaw in zip(outcomes, yaws):
            assert o.params.arc_length == 1.0
            assert abs(o.params.yaw - yaw) < 1e-6

    def test_fixed_scale_values_respected(self):
        records = make_records(RIG1, [0.02, 0.02], arc=1.3)
        traj, outcomes = run_sequence(RIG1, records, FixedScale([1.3, 1.3]))
        truth = pose_from_params(MotionParams(yaw=0.02, arc_length=1.3))
        step = traj.poses[0].inverse().compose(traj.poses[1])
        assert step.isclose(truth, atol=1e-5)

    def test_scale_file_too_short(self):
        records = make_records(RIG1, [0.02, 0.02])
        with pytest.raises(ValueError):
            run_sequence(RIG1, records, FixedScale([1.0]))

    def test_scale_file_too_long(self):
        # a longer file belongs to other records: no frame pair is solved
        records = make_records(RIG1, [0.02, 0.02])
        with pytest.raises(ValueError,
                           match="3 scale values for 2 frame pairs"):
            run_sequence(RIG1, records, FixedScale([1.0] * 3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fixed_scale_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            FixedScale([1.0, value])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_free_in_curves_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            FreeInCurves(value)

    def test_empty_records(self):
        with pytest.raises(NoRecords):
            run_sequence(RIG1, [], FixedScale([]))

    def test_free_in_curves_holds_arc_on_straights(self):
        yaws = [0.0, 0.0, 0.0]
        records = make_records(RIG2, yaws, arc=1.5)
        _, outcomes = run_sequence(RIG2, records, FreeInCurves(1.2))
        for o in outcomes:
            assert o.params.arc_length == 1.2
            assert "arc_length" not in o.params.free

    def test_free_in_curves_recovers_scale_in_curve(self):
        # straight frames to build up a yaw prior, then a curve where the
        # two-camera lever arm makes the true arc length observable
        yaws = [0.0, 0.04, 0.04, 0.04]
        records = make_records(RIG2, yaws, arc=1.5)
        _, outcomes = run_sequence(RIG2, records, FreeInCurves(1.0))
        assert outcomes[0].params.arc_length == 1.0
        last = outcomes[-1]
        assert "arc_length" in last.params.free
        assert abs(last.params.arc_length - 1.5) < 1e-3

    def test_free_in_curves_held_arc_persists_after_curve(self):
        yaws = [0.0, 0.04, 0.04, 0.04, 0.0, 0.0]
        records = make_records(RIG2, yaws, arc=1.5)
        _, outcomes = run_sequence(RIG2, records, FreeInCurves(1.0))
        # once the curve fixed the scale, later straight frames hold it
        final = outcomes[-1]
        assert "arc_length" not in final.params.free
        assert abs(final.params.arc_length - 1.5) < 1e-3

    def test_failed_frame_carries_prior(self):
        records = make_records(RIG1, [0.02, 0.02])
        # second record has no matches at all
        records[1] = FramePairRecord(1, 2, {0: (np.zeros((0, 2)),
                                                np.zeros((0, 2)))})
        traj, outcomes = run_sequence(RIG1, records, FixedScale([1.0, 1.0]))
        assert not outcomes[0].failed and outcomes[1].failed
        assert outcomes[1].error
        # the carried-forward motion repeats the last good estimate
        step1 = traj.poses[0].inverse().compose(traj.poses[1])
        step2 = traj.poses[1].inverse().compose(traj.poses[2])
        assert step1.isclose(step2, atol=1e-12)

    def test_out_of_domain_pixel_fails_only_its_frame(self):
        records = make_records(RIG1, [0.02] * 5)
        pin = RIG1.cameras[0].model
        rig = CameraRig((RigCamera(
            0, GenericCamera.from_camera(pin, 1280, 960),
            RIG1.cameras[0].extrinsic),))
        px0, px1 = records[2].pixels[0]
        px1 = px1.copy()
        px1[0, 0] = 1280.5
        records[2] = FramePairRecord(2, 3, {0: (px0, px1)})
        _, outcomes = run_sequence(rig, records, FixedScale([1.0] * 5))
        assert [o.failed for o in outcomes] == [False, False, True, False,
                                                False]
        assert "tabulated domain" in outcomes[2].error

    def test_geoline_on_generic_camera_is_rejected(self):
        # the line metric is pinhole-only: a configuration error, not a
        # frame-local failure
        records = make_records(RIG1, [0.02] * 3)
        rig = CameraRig((RigCamera(
            0, GenericCamera.from_camera(RIG1.cameras[0].model, 1280, 960),
            RIG1.cameras[0].extrinsic),))
        opts = EstimatorOptions(metric=MetricKind.GEOLINE)
        with pytest.raises(ValueError, match="camera 0"):
            run_sequence(rig, records, FixedScale([1.0] * 3), opts)

    def test_non_finite_frame_fails_only_itself(self):
        records = make_records(RIG1, [0.02] * 4)
        px0, px1 = records[1].pixels[0]
        px0 = px0.copy()
        px0[3, 1] = np.nan
        records[1] = FramePairRecord(1, 2, {0: (px0, px1)})
        _, outcomes = run_sequence(RIG1, records, FixedScale([1.0] * 4))
        assert [o.failed for o in outcomes] == [False, True, False, False]
        assert "pixels_t0" in outcomes[1].error

    def test_zero_ray_fails_only_the_frame_that_hits_it(self):
        # a table node holding a zero ray lifts the pixel on it to NaN
        records = make_records(RIG1, [0.02] * 4)
        cam = RIG1.cameras[0]
        table = GenericCamera.from_camera(cam.model, 1280, 960)
        rays = table.table.copy()
        rays[30, 20] = 0.0
        rig = CameraRig((RigCamera(0, GenericCamera(
            table.u0, table.v0, table.du, table.dv, rays, table.image_size),
            cam.extrinsic),))
        px0, px1 = records[1].pixels[0]
        px0 = px0.copy()
        px0[3] = [20 * table.du, 30 * table.dv]
        records[1] = FramePairRecord(1, 2, {0: (px0, px1)})
        _, outcomes = run_sequence(rig, records, FixedScale([1.0] * 4))
        assert [o.failed for o in outcomes] == [False, True, False, False]
        assert "camera 0: non-finite ray" in outcomes[1].error

    def test_chained_trajectory_matches_truth(self):
        yaws = [0.01, 0.02, 0.03]
        records = make_records(RIG1, yaws)
        traj, _ = run_sequence(RIG1, records, FixedScale([1.0] * 3))
        expected = pose_from_params(MotionParams(yaw=yaws[0], arc_length=1.0))
        for yaw in yaws[1:]:
            expected = expected.compose(
                pose_from_params(MotionParams(yaw=yaw, arc_length=1.0)))
        assert traj.poses[-1].isclose(expected, atol=1e-5)

    def test_runtime_recorded(self):
        records = make_records(RIG1, [0.02])
        _, outcomes = run_sequence(RIG1, records, FixedScale([1.0]))
        assert outcomes[0].runtime_ms > 0.0


class TestSimulateSequence:
    def scenario(self, segments):
        return Scenario(
            scene=SceneSpec(120, seed=3),
            noise=NoiseSpec(seed=4),
            truth=MotionParams(yaw=0.0, arc_length=1.0, free=("yaw",)),
            rig=RIG2,
            sequence=SequenceProfile(segments))

    def test_frame_count_and_scales(self):
        records, gt, scales = simulate_sequence(self.scenario(((3, 0.0),
                                                               (2, 0.05))))
        assert len(records) == 5
        assert len(gt) == 6
        assert scales == [1.0] * 5

    def test_ground_truth_geometry(self):
        _, gt, _ = simulate_sequence(self.scenario(((2, 0.0),)))
        assert np.allclose(gt.poses[2].translation, [2.0, 0.0, 0.0],
                           atol=1e-12)

    def test_fresh_scene_per_frame(self):
        records, _, _ = simulate_sequence(self.scenario(((2, 0.0),)))
        assert not np.array_equal(records[0].pixels[0][0],
                                  records[1].pixels[0][0])

    def test_round_trip_with_estimator(self):
        records, gt, _ = simulate_sequence(self.scenario(((2, 0.0),
                                                          (3, 0.04))))
        traj, outcomes = run_sequence(RIG2, records, FreeInCurves(1.0))
        assert not any(o.failed for o in outcomes)
        assert traj.poses[-1].isclose(gt.poses[-1], atol=1e-4)

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motionprior import estimator, pipeline
from motionprior.estimator import EstimatorOptions
from motionprior.geometry import (TRANSLATION_EPS, GenericCamera,
                                  PinholeCamera, PinholeIntrinsics,
                                  forward_camera_extrinsic)
from motionprior.io_formats import (FramePairRecord, NoRecords, Scenario,
                                    SequenceProfile)
from motionprior.manifold import (YAW_SERIES_SWITCH, CameraRig, MotionParams,
                                  RigCamera, pose_from_params)
from motionprior.metrics import MetricKind, RigFrame
from motionprior.pipeline import (FixedScale, FreeInCurves, _trajectory,
                                  match_sets_from_record, run_sequence,
                                  simulate_sequence)
from motionprior.simulate import (NoiseSpec, SceneSpec, generate_matches,
                                  generate_scene)
from test_estimator import RIG_FB
from test_evaluation import chain

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
        # camera slot 1's lift holds the rays Re b0 of its matches
        assert np.array_equal(frame.lifts[1][0], expected)


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
        with pytest.raises(ValueError, match="scale value 1 is"):
            FixedScale([1.0, value])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_free_in_curves_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            FreeInCurves(value)

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.5 * TRANSLATION_EPS])
    def test_fixed_scale_rejects_zero_arc(self, value):
        # a zero arc is a turn on the spot, seen only through the lever
        # arm: a straight solved under it converges to a wrong yaw
        with pytest.raises(ValueError, match="scale value 1 is"):
            FixedScale([1.0, value, 1.0])

    @pytest.mark.parametrize("value", [0.0, -0.5 * TRANSLATION_EPS])
    def test_free_in_curves_rejects_zero_arc(self, value):
        with pytest.raises(ValueError, match="initial scale is"):
            FreeInCurves(value)

    def test_negative_arc_allowed(self):
        assert FixedScale([-1.0]).values == (-1.0,)
        assert FreeInCurves(-1.0).initial == -1.0

    @pytest.mark.parametrize("pairs,message", [
        ([(0, 1), (2, 3)], r"frame pair \(2, 3\) after \(0, 1\)"),
        ([(0, 1), (0, 1)], r"frame pair \(0, 1\) after \(0, 1\)"),
        ([(0, 2), (1, 3)], r"frame pair \(1, 3\) after \(0, 2\)"),
        ([(1, 1), (1, 2)], r"frame pair \(1, 1\):"),
        ([(0, 1), (1, 0)], r"frame pair \(1, 0\) after \(0, 1\)")])
    def test_pairs_must_chain(self, pairs, message):
        records = [replace(r, t0=t0, t1=t1) for r, (t0, t1) in
                   zip(make_records(RIG1, [0.02, 0.02]), pairs)]
        with pytest.raises(ValueError, match=message):
            run_sequence(RIG1, records, FixedScale([1.0, 1.0]))

    def test_pairs_may_step_by_more_than_one(self):
        records = [replace(r, t0=2 * k, t1=2 * k + 2) for k, r in
                   enumerate(make_records(RIG1, [0.02, 0.02]))]
        _, outcomes = run_sequence(RIG1, records, FixedScale([1.0, 1.0]))
        assert [(o.t0, o.t1) for o in outcomes] == [(0, 2), (2, 4)]

    def test_record_pixels_stay_writeable(self):
        records = [FramePairRecord(r.t0, r.t1, {
            cam: (p0.copy(), p1.copy()) for cam, (p0, p1) in r.pixels.items()})
            for r in make_records(RIG1, [0.02, 0.02])]
        run_sequence(RIG1, records, FixedScale([1.0, 1.0]))
        for r in records:
            for arrays in r.pixels.values():
                assert all(a.flags.writeable for a in arrays)

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

    def test_scale_unobservable_curve_frame_is_solved_again_held(self):
        # a forward and a backward camera, 10 % outliers: two curve frames
        # whose free arc is scale_unobservable ran off to ~4.5e4 m when
        # their free-arc solve was kept
        records, _, _ = simulate_sequence(Scenario(
            SceneSpec(300, seed=7), NoiseSpec(0.5, 0.1, seed=8),
            MotionParams(yaw=0.0, arc_length=1.0), RIG_FB,
            SequenceProfile(((30, 0.0), (30, 0.03), (30, 0.0)))))
        _, outcomes = run_sequence(RIG_FB, records, FreeInCurves(1.0))
        assert all(o.result.converged for o in outcomes)
        assert all(o.result.condition_note == "ok" for o in outcomes)
        # arcs of up to 10.7 m from wrong basins that read "ok" remain
        assert max(abs(o.params.arc_length) for o in outcomes) < 20.0

    def test_solved_again_on_the_pair_s_one_frame(self, monkeypatch):
        # one camera at the motion centre: a curve frame's arc is
        # unobservable, so pairs 2 and 3 (after a turning pair) are each
        # solved again with the arc held, on the frame of their first solve
        rig = make_rig([[0.0, 0.0, 0.0]])
        records = make_records(rig, [0.0, 0.04, 0.04, 0.04], arc=1.5)
        built, again = [], []
        from_matches, resolve = RigFrame.from_matches, pipeline._estimate

        def counted(cls, *args):
            built.append(from_matches(*args))
            return built[-1]

        def counted_resolve(frame, prior, opts):
            again.append(frame)
            return resolve(frame, prior, opts)
        monkeypatch.setattr(RigFrame, "from_matches", classmethod(counted))
        monkeypatch.setattr(pipeline, "_estimate", counted_resolve)
        _, outcomes = run_sequence(rig, records, FreeInCurves(1.0))
        assert len(built) == len(records)
        assert len(again) == 2
        assert all(a is b for a, b in zip(again, built[2:]))
        assert all(o.params.free == ("yaw",) for o in outcomes)

    @pytest.mark.parametrize("seed", range(4))
    def test_few_matches_curve_frame_is_solved_again_held(self, seed):
        # a curve frame cut to 3 matches per camera reads few_matches; when
        # its free-arc solve was kept, it set the held arc (0.85 to 7350 m
        # against a true 1.5 m) for itself and the straight after it
        records = make_records(RIG2, [0.0, 0.04, 0.04, 0.04, 0.0, 0.0],
                               arc=1.5, seed=10 * seed,
                               noise=NoiseSpec(pixel_sigma=1.0,
                                               seed=seed + 1))
        cut = records[3]
        records[3] = FramePairRecord(cut.t0, cut.t1, {
            cam: (p0[:3], p1[:3]) for cam, (p0, p1) in cut.pixels.items()})
        _, outcomes = run_sequence(RIG2, records, FreeInCurves(1.0))
        assert outcomes[3].result.condition_note == "few_matches"
        held = outcomes[2].params.arc_length
        assert abs(held - 1.5) < 0.2
        for o in outcomes[3:]:
            assert "arc_length" not in o.params.free
            assert o.params.arc_length == held

    @pytest.mark.parametrize("scale", [FixedScale([1.5] * 6),
                                       FreeInCurves(1.0)],
                             ids=["fixed-scale", "free-in-curves"])
    def test_sigma_computed_when_note_or_caller_reads_it(self, monkeypatch,
                                                         scale):
        # only a free arc's condition note reads sigma; any other sigma is
        # computed when a caller first reads it, and then only once
        records = make_records(RIG2, [0.0, 0.04, 0.04, 0.04, 0.0, 0.0],
                               arc=1.5)
        sigma_calls, arc_free = [], []

        def counted_sigma(*args):
            sigma_calls.append(args)
            return real_sigma(*args)

        def counted_estimate(rig, sets, prior, opts):
            arc_free.append("arc_length" in prior.free)
            return real_estimate(rig, sets, prior, opts)

        real_sigma, real_estimate = estimator._sigma, pipeline.estimate
        monkeypatch.setattr(estimator, "_sigma", counted_sigma)
        monkeypatch.setattr(pipeline, "estimate", counted_estimate)
        _, outcomes = run_sequence(RIG2, records, scale)
        assert len(sigma_calls) == sum(arc_free)
        assert sum(arc_free) == (0 if isinstance(scale, FixedScale) else 3)
        for _ in range(2):
            assert all(o.result.sigma for o in outcomes)
        held = sum("arc_length" not in o.params.free for o in outcomes)
        assert len(sigma_calls) == sum(arc_free) + held

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

    @pytest.mark.parametrize("yaw, seed", [(0.2, 3), (0.25, 2), (0.29, 3)])
    def test_cold_start_grid_until_a_pair_is_estimated(self, yaw, seed):
        # pair 0 fails on a NaN pixel; from yaw 0 without the grid, pair 1
        # stops in a false basin near yaw 0.01-0.03 at these seeds
        rig = make_rig([[2.0, 1.0, 0.0], [2.0, -1.0, 0.0]])
        records = make_records(rig, [yaw, yaw], seed=seed,
                               noise=NoiseSpec(pixel_sigma=0.5, seed=seed))
        px0, px1 = records[0].pixels[0]
        px0 = px0.copy()
        px0[0, 0] = np.nan
        records[0] = FramePairRecord(0, 1, {**records[0].pixels,
                                            0: (px0, px1)})
        _, outcomes = run_sequence(rig, records, FixedScale([1.0, 1.0]))
        assert outcomes[0].failed
        assert abs(outcomes[1].params.yaw - yaw) < 1e-3

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

    def test_records_are_writeable_and_independent(self):
        records, _, _ = simulate_sequence(self.scenario(((3, 0.0),)))
        kept = [np.hstack(r.pixels[0]) for r in records]
        for px in records[0].pixels[0]:
            assert px.flags.writeable
            px += 10.0
        assert not np.array_equal(np.hstack(records[0].pixels[0]), kept[0])
        for r, before in zip(records[1:], kept[1:]):
            assert np.array_equal(np.hstack(r.pixels[0]), before)

    def test_frame_k_seeded_1000_k_past_the_scenario(self):
        scenario = replace(self.scenario(((2, 0.0), (2, 0.05))),
                           noise=NoiseSpec(0.5, 0.2, seed=4))
        records, _, _ = simulate_sequence(scenario)
        for k, yaw in enumerate([0.0, 0.0, 0.05, 0.05]):
            sets, _ = generate_matches(
                generate_scene(replace(scenario.scene, seed=3 + 1000 * k)),
                RIG2, replace(scenario.truth, yaw=yaw),
                replace(scenario.noise, seed=4 + 1000 * k))
            assert (records[k].t0, records[k].t1) == (k, k + 1)
            assert sorted(records[k].pixels) == [s.camera_id for s in sets]
            for s in sets:
                px0, px1 = records[k].pixels[s.camera_id]
                assert px0.tobytes() == s.pixels_t0.tobytes()
                assert px1.tobytes() == s.pixels_t1.tobytes()

    def test_round_trip_with_estimator(self):
        records, gt, _ = simulate_sequence(self.scenario(((2, 0.0),
                                                          (3, 0.04))))
        traj, outcomes = run_sequence(RIG2, records, FreeInCurves(1.0))
        assert not any(o.failed for o in outcomes)
        assert traj.poses[-1].isclose(gt.poses[-1], atol=1e-4)


# yaws on both sides of the series switch, arcs of either sign, and tilt
chain_rows = st.builds(
    MotionParams,
    yaw=st.one_of(st.floats(-0.5, 0.5),
                  st.floats(-YAW_SERIES_SWITCH, YAW_SERIES_SWITCH)),
    arc_length=st.floats(-3.0, 3.0),
    pitch=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
    roll=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)))


class TestTrajectoryChain:
    @given(st.lists(chain_rows, min_size=1, max_size=20))
    def test_equals_pose_compose_chain_bitwise(self, motions):
        poses = chain([pose_from_params(p) for p in motions])
        chained = _trajectory(motions).poses
        assert len(chained) == len(poses)
        for got, want in zip(chained, poses):
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)

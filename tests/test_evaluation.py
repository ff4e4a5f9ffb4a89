import numpy as np
import pytest

from motionprior.evaluation import (TrajectoryTooShort, evaluate)
from motionprior.geometry import Pose, rotation_z
from motionprior.io_formats import TrajectoryRecord


def chain(steps):
    poses = [Pose.identity()]
    for step in steps:
        poses.append(poses[-1].compose(step))
    return poses


def straight_line(n, step=1.0):
    return chain([Pose(np.eye(3), [step, 0.0, 0.0])] * n)


class TestEvaluate:
    def test_perfect_estimate_zero_error(self):
        poses = chain([Pose(rotation_z(0.002), [1.0, 0.01, 0.0])] * 150)
        traj = TrajectoryRecord(tuple(poses))
        report = evaluate(traj, traj, lengths=[100.0])
        bucket = report.length_buckets[100.0]
        assert bucket.count > 0
        # arccos near 1 carries sqrt(eps) noise
        assert bucket.mean_rotation == pytest.approx(0.0, abs=1e-6)
        assert bucket.mean_translation == pytest.approx(0.0, abs=1e-12)

    def test_known_rotation_error(self):
        # gt straight; estimate turns 0.001 rad per 1 m frame, so the
        # relative rotation error over any 100 m segment is 0.1 rad
        n = 150
        gt = TrajectoryRecord(tuple(straight_line(n)))
        est = TrajectoryRecord(tuple(chain(
            [Pose(rotation_z(0.001), [1.0, 0.0, 0.0])] * n)))
        report = evaluate(est, gt, lengths=[100.0])
        expected = np.degrees(0.001 * 101) / 100.0
        assert report.mean_rotation(100.0) == pytest.approx(expected, rel=1e-9)

    def test_known_translation_error(self):
        # estimate overshoots every 1 m step by 2 cm: 2 percent everywhere
        n = 150
        gt = TrajectoryRecord(tuple(straight_line(n, 1.0)))
        est = TrajectoryRecord(tuple(straight_line(n, 1.02)))
        report = evaluate(est, gt, lengths=[100.0])
        assert report.mean_translation(100.0) == pytest.approx(
            2.0 * 101 / 100, rel=1e-9)

    def test_segment_count_and_start_step(self):
        # 1 m frames, 250 frames: 100 m segments fit from starts 0..140,
        # sampled every 10 frames -> 15 segments (first frame past 100 m
        # is index start+101)
        gt = TrajectoryRecord(tuple(straight_line(250)))
        report = evaluate(gt, gt, lengths=[100.0])
        assert report.length_buckets[100.0].count == 15

    def test_repeated_length_counts_once(self):
        gt = TrajectoryRecord(tuple(straight_line(250)))
        report = evaluate(gt, gt, lengths=[100.0, 100.0])
        assert list(report.length_buckets) == [100.0]
        assert report.length_buckets[100.0].count == 15
        # the first of each length, in the caller's order
        report = evaluate(gt, gt, lengths=[200.0, 100.0, 200.0])
        assert list(report.length_buckets) == [200.0, 100.0]
        assert report.length_buckets[100.0].count == 15

    def test_multiple_lengths(self):
        gt = TrajectoryRecord(tuple(straight_line(350)))
        report = evaluate(gt, gt, lengths=[100.0, 200.0, 300.0])
        counts = {l: report.length_buckets[l].count
                  for l in (100.0, 200.0, 300.0)}
        assert counts[100.0] > counts[200.0] > counts[300.0] > 0

    def test_too_short(self):
        gt = TrajectoryRecord(tuple(straight_line(20)))
        with pytest.raises(TrajectoryTooShort):
            evaluate(gt, gt, lengths=[100.0])

    def test_partial_lengths_allowed(self):
        # 150 m trajectory: 100 m segments exist, 800 m ones do not, and
        # that alone must not raise
        gt = TrajectoryRecord(tuple(straight_line(150)))
        report = evaluate(gt, gt, lengths=[100.0, 800.0])
        assert report.length_buckets[100.0].count > 0
        assert report.length_buckets[800.0].count == 0
        assert np.isnan(report.mean_rotation(800.0))

    @pytest.mark.parametrize("length", [0.0, -5.0, np.nan, np.inf])
    def test_length_must_be_finite_and_positive(self, length):
        gt = TrajectoryRecord(tuple(straight_line(150)))
        with pytest.raises(ValueError, match="finite and positive"):
            evaluate(gt, gt, lengths=[100.0, length])

    def test_length_mismatch(self):
        a = TrajectoryRecord(tuple(straight_line(10)))
        b = TrajectoryRecord(tuple(straight_line(11)))
        with pytest.raises(ValueError, match="the estimate has 11 poses, "
                           "the ground truth 12"):
            evaluate(a, b)

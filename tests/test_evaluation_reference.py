"""The batched segment evaluation against the per-segment Pose loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionprior.evaluation import TrajectoryTooShort, evaluate
from motionprior.io_formats import TrajectoryRecord
from motionprior.manifold import MotionParams, pose_from_params
from oracles import evaluate_by_segment, stacked
from test_evaluation import chain

REL_TOL = 1e-12

# a curvy drive: per-frame yaw and arc, and the estimate's errors on both
steps = st.tuples(st.floats(-0.08, 0.08), st.floats(0.3, 2.0),
                  st.floats(-2e-3, 2e-3), st.floats(-0.05, 0.05))


def trajectory(motions):
    return TrajectoryRecord(stacked(chain(map(pose_from_params, motions))))


@settings(max_examples=40, deadline=None)
@given(st.lists(steps, min_size=30, max_size=120),
       st.lists(st.sampled_from([5.0, 12.5, 20.0, 40.0, 75.0]), min_size=1,
                max_size=4))
def test_batched_evaluate_equals_segment_loop(frames, lengths):
    gt = trajectory(MotionParams(yaw=g, arc_length=l)
                    for g, l, _, _ in frames)
    est = trajectory(MotionParams(yaw=g + dg, arc_length=l * (1.0 + dl))
                     for g, l, dg, dl in frames)
    want = evaluate_by_segment(est, gt, lengths)
    if not any(b.count for b in want.length_buckets.values()):
        with pytest.raises(TrajectoryTooShort):
            evaluate(est, gt, lengths)
        return
    got = evaluate(est, gt, lengths)
    assert got.length_buckets.keys() == want.length_buckets.keys()
    for length, bucket in want.length_buckets.items():
        other = got.length_buckets[length]
        assert other.count == bucket.count
        for name in ("rotation_deg_per_m", "translation_percent"):
            a = np.array(getattr(other, name))
            b = np.array(getattr(bucket, name))
            assert np.all(np.abs(a - b) <= REL_TOL * np.abs(b)), name

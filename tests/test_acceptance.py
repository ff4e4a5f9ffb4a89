"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured quantity."""

import time

import numpy as np

from motionprior.estimator import (EstimatorOptions, default_cold_start_grid,
                                   estimate)
from motionprior.evaluation import evaluate
from motionprior.geometry import (PinholeCamera, PinholeIntrinsics, Pose,
                                  forward_camera_extrinsic, skew)
from motionprior.io_formats import Scenario, SequenceProfile
from motionprior.manifold import (CameraRig, MotionParams, RigCamera,
                                  pose_from_params)
from motionprior.metrics import MetricKind, RobustLoss
from motionprior.pipeline import FreeInCurves, run_sequence, simulate_sequence
from motionprior.simulate import (NoiseSpec, SceneSpec, generate_matches,
                                  generate_scene, grid_search_oracle)
from oracles import (energy_at, essential_from_motion, internal_gradient,
                     numeric_gradient)

INTR = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)
CAUCHY = RobustLoss("cauchy", 0.0065)
ANGLE = MetricKind.ANGLEPLANE


def make_rig(offsets):
    cams = tuple(RigCamera(i, PinholeCamera(INTR, (1280, 960)),
                           forward_camera_extrinsic(offset))
                 for i, offset in enumerate(offsets))
    return CameraRig(cams)


RIG1 = make_rig([[2.0, 0.0, 0.0]])
RIG2 = make_rig([[2.0, 1.0, 0.0], [2.0, -1.0, 0.0]])
# camera at the motion center: no lever arm, so monocular scale blindness
# holds even in a curve
RIG_CENTER = make_rig([[0.0, 0.0, 0.0]])


def report(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {number} ({label}): "
              f"{'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number}: {detail}"


def curve_scenario(seed, rig=RIG2):
    """Seeded noise-free two-camera curve with both yaw and arc free."""
    rng = np.random.Generator(np.random.PCG64(seed))
    truth = MotionParams(yaw=rng.uniform(0.05, 0.25) * rng.choice([-1, 1]),
                         arc_length=rng.uniform(0.8, 1.6),
                         free=("yaw", "arc_length"))
    points = generate_scene(SceneSpec(200, seed=seed))
    sets, _ = generate_matches(points, rig, truth, NoiseSpec(seed=seed + 1))
    return truth, sets


def test_criterion_1_noise_free_recovery(capsys):
    truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
    points = generate_scene(SceneSpec(200, seed=11))
    sets, _ = generate_matches(points, RIG1, truth, NoiseSpec(seed=12))
    prior = truth.with_values(yaw=0.0)
    start = time.perf_counter()
    result = estimate(RIG1, sets, prior, EstimatorOptions())
    elapsed_ms = (time.perf_counter() - start) * 1e3
    err = abs(result.params.yaw - truth.yaw)
    ok = err < 1e-6 and result.final_energy < 1e-18 and elapsed_ms < 20.0
    report(capsys, 1, "noise-free recovery", ok,
           f"|yaw err|={err:.2e} rad, energy={result.final_energy:.2e}, "
           f"runtime={elapsed_ms:.1f} ms")


def test_criterion_2_low_feature_robustness(capsys):
    errors_robust, errors_plain = [], []
    truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
    for seed in range(20):
        # close scene: the flow signal has to dominate the 0.5 px noise
        points = generate_scene(SceneSpec(150, depth_range=(3.0, 15.0),
                                          lateral_spread=6.0, seed=seed))
        sets, _ = generate_matches(
            points, RIG1, truth,
            NoiseSpec(pixel_sigma=0.5, outlier_fraction=0.3,
                      outlier_mode="uniform_image", seed=seed + 500))
        prior = truth.with_values(yaw=0.0)
        grid = default_cold_start_grid(prior)
        robust = estimate(RIG1, sets, prior,
                          EstimatorOptions(loss=CAUCHY, fallback_grid=grid))
        plain = estimate(RIG1, sets, prior,
                         EstimatorOptions(loss=RobustLoss("none"),
                                          fallback_grid=grid))
        errors_robust.append(abs(robust.params.yaw - truth.yaw))
        errors_plain.append(abs(plain.params.yaw - truth.yaw))
    hits = sum(e < 1e-3 for e in errors_robust)
    med_robust = float(np.median(errors_robust))
    med_plain = float(np.median(errors_plain))
    ok = hits >= 18 and med_plain > med_robust
    report(capsys, 2, "low-feature robustness", ok,
           f"{hits}/20 seeds < 1e-3 rad, median robust={med_robust:.2e} "
           f"vs plain={med_plain:.2e}")


def test_criterion_3_oracle_equivalence(capsys):
    worst_cells = 0.0
    for seed in range(20):
        truth, sets = curve_scenario(seed + 30)
        bounds = {"yaw": (truth.yaw - 0.3, truth.yaw + 0.3),
                  "arc_length": (0.5 * truth.arc_length,
                                 1.5 * truth.arc_length)}
        oracle = grid_search_oracle(RIG2, sets, bounds, 41, CAUCHY, ANGLE,
                                    truth)
        prior = truth.with_values(yaw=truth.yaw + 0.01,
                                  arc_length=truth.arc_length * 1.1)
        result = estimate(RIG2, sets, prior, EstimatorOptions())
        cell_yaw = 0.6 / 40
        cell_arc = truth.arc_length / 40
        worst_cells = max(worst_cells,
                          abs(result.params.yaw - oracle.yaw) / cell_yaw,
                          abs(result.params.arc_length - oracle.arc_length)
                          / cell_arc)
    ok = worst_cells <= 1.0
    report(capsys, 3, "oracle equivalence", ok,
           f"worst disagreement {worst_cells:.3f} grid cells over 20 seeds")


def test_criterion_4_scale_observability(capsys):
    truth = MotionParams(yaw=0.1, arc_length=1.2,
                         free=("yaw", "arc_length"))
    points = generate_scene(SceneSpec(200, seed=70))
    sets, _ = generate_matches(points, RIG2, truth, NoiseSpec(seed=71))
    prior = truth.with_values(arc_length=1.0)
    result = estimate(RIG2, sets, prior, EstimatorOptions())
    rel_err = abs(result.params.arc_length - truth.arc_length) \
        / truth.arc_length

    mono_sets, _ = generate_matches(points, RIG_CENTER, truth,
                                    NoiseSpec(seed=72))
    energies = [energy_at(truth.with_values(arc_length=l), RIG_CENTER,
                          mono_sets, CAUCHY, ANGLE)
                for l in np.linspace(0.5 * truth.arc_length,
                                     2.0 * truth.arc_length, 9)]
    scale = energy_at(truth.with_values(yaw=truth.yaw + 0.05), RIG_CENTER,
                      mono_sets, CAUCHY, ANGLE)
    variation = (max(energies) - min(energies)) / scale
    mono = estimate(RIG_CENTER, mono_sets, prior, EstimatorOptions())
    ok = (rel_err < 0.02 and variation < 1e-12
          and mono.condition_note == "scale_unobservable")
    report(capsys, 4, "scale observability in curves", ok,
           f"two-camera arc err={rel_err * 100:.3f}%, single-camera "
           f"energy variation={variation:.1e}, note={mono.condition_note!r}")


def test_criterion_5_metric_generalization(capsys):
    worst_cells = 0.0
    for seed in range(20):
        truth, sets = curve_scenario(seed + 30)
        bounds = {"yaw": (truth.yaw - 0.3, truth.yaw + 0.3),
                  "arc_length": (0.5 * truth.arc_length,
                                 1.5 * truth.arc_length)}
        argmins = [grid_search_oracle(RIG2, sets, bounds, 41, CAUCHY, metric,
                                      truth)
                   for metric in (MetricKind.ANGLEPLANE, MetricKind.GEOLINE)]
        cell_yaw = 0.6 / 40
        cell_arc = truth.arc_length / 40
        worst_cells = max(worst_cells,
                          abs(argmins[0].yaw - argmins[1].yaw) / cell_yaw,
                          abs(argmins[0].arc_length - argmins[1].arc_length)
                          / cell_arc)
    ok = worst_cells <= 1.0
    report(capsys, 5, "metric generalization", ok,
           f"argmin gap {worst_cells:.3f} grid cells over 20 seeds")


def test_criterion_6_gradient_correctness(capsys):
    truth = MotionParams(yaw=0.05, arc_length=1.0)
    points = generate_scene(SceneSpec(150, seed=80))
    sets, _ = generate_matches(points, RIG2, truth,
                               NoiseSpec(pixel_sigma=0.5,
                                         outlier_fraction=0.2, seed=81))
    rng = np.random.Generator(np.random.PCG64(82))
    worst = 0.0
    for _ in range(100):
        p = MotionParams(yaw=rng.uniform(-0.2, 0.2),
                         arc_length=rng.uniform(0.7, 1.5),
                         pitch=rng.uniform(-0.02, 0.02),
                         roll=rng.uniform(-0.02, 0.02),
                         free=("yaw", "arc_length", "pitch", "roll"))
        g_analytic = internal_gradient(RIG2, sets, p, CAUCHY, ANGLE)
        g_num = numeric_gradient(RIG2, sets, p, CAUCHY, ANGLE, 1e-6)
        tol = np.maximum(1e-6, 1e-4 * np.abs(g_num))
        worst = max(worst, float(np.max(np.abs(g_analytic - g_num) / tol)))
    ok = worst <= 1.0
    report(capsys, 6, "gradient correctness", ok,
           f"worst |analytic-numeric|/tol = {worst:.3f} over 100 points")


def test_criterion_7_geometry_invariants(capsys):
    rng = np.random.Generator(np.random.PCG64(90))
    checks = []
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-np.pi, np.pi)
        K = skew(axis)
        R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K
        m = Pose(R, rng.normal(size=3))
        # pose group: inverse and associativity
        checks.append(m.compose(m.inverse()).isclose(Pose.identity(),
                                                     atol=1e-12))
        # essential matrix rank and paired singular values
        e = essential_from_motion(m)
        s = np.linalg.svd(e, compute_uv=False)
        checks.append(s[2] < 1e-9 * s[0] and abs(s[0] - s[1]) < 1e-9 * s[0])
        # noise-free epipolar constraint
        pts = rng.uniform(-10, 10, size=(30, 3)) + [0, 0, 25]
        b0 = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        moved = m.apply(pts)
        b1 = moved / np.linalg.norm(moved, axis=1, keepdims=True)
        checks.append(np.abs(np.einsum("ij,jk,ik->i", b1, e, b0)).max()
                      < 1e-10)
    # translation continuity across the small-yaw series switch
    gammas = np.concatenate([np.linspace(-2e-6, 2e-6, 201), [0.0]])
    trans = np.array([pose_from_params(
        MotionParams(yaw=g, arc_length=1.0)).translation for g in gammas])
    straight = pose_from_params(MotionParams(yaw=0.0, arc_length=1.0))
    checks.append(np.allclose(trans[-1], straight.translation))
    checks.append(np.abs(trans[:, 1]).max() < 2e-6)
    ok = all(checks)
    report(capsys, 7, "geometry invariants", ok,
           f"{sum(checks)}/{len(checks)} property checks hold")


def test_criterion_8_end_to_end_sequence(capsys):
    # 500 one-metre frames: straight, one 90 degree curve, straight
    curve_frames = 60
    curve_yaw = (np.pi / 2) / curve_frames
    scenario = Scenario(
        scene=SceneSpec(150, seed=100),
        noise=NoiseSpec(pixel_sigma=0.25, seed=101),
        truth=MotionParams(yaw=0.0, arc_length=1.0, free=("yaw",)),
        rig=RIG2,
        sequence=SequenceProfile(((220, 0.0), (curve_frames, curve_yaw),
                                  (220, 0.0))))
    start = time.perf_counter()
    records, gt, _ = simulate_sequence(scenario)
    est, outcomes = run_sequence(RIG2, records, FreeInCurves(1.0))
    report_eval = evaluate(est, gt, lengths=[100.0])
    elapsed = time.perf_counter() - start
    rot = report_eval.mean_rotation(100.0)
    trans = report_eval.mean_translation(100.0)
    failed = sum(o.failed for o in outcomes)
    ok = rot < 0.005 and trans < 5.0 and elapsed < 30.0 and failed == 0
    report(capsys, 8, "end-to-end sequence", ok,
           f"rotation error {rot:.5f} deg/m, translation error "
           f"{trans:.2f}% on 100 m segments "
           f"({report_eval.length_buckets[100.0].count} segments), "
           f"{failed} failed frames, {elapsed:.1f} s total")

import numpy as np
import pytest

from motionprior.estimator import (CONVERGED_TERMINATIONS,
                                   ENERGY_DECREASE_REL_TOL, EstimateResult,
                                   EstimatorOptions, GridSpec, Landscape,
                                   LandscapeGrid, NoMatches, classify_inliers,
                                   energy_landscape, estimate)
from motionprior.geometry import (DegenerateTranslation, PinholeCamera,
                                  PinholeIntrinsics, forward_camera_extrinsic)
from motionprior.manifold import CameraRig, MotionParams, RigCamera
from motionprior.metrics import MetricKind, RigFrame, RobustLoss
from motionprior.simulate import (NoiseSpec, SceneSpec, generate_matches,
                                  generate_scene)
from oracles import energy_at, internal_gradient, numeric_gradient, subset

INTR = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)
ANGLE = MetricKind.ANGLEPLANE
CAUCHY = RobustLoss("cauchy", 0.0065)
NONE = RobustLoss("none")


def make_rig(offsets):
    cams = tuple(RigCamera(i, PinholeCamera(INTR, (1280, 960)),
                           forward_camera_extrinsic(offset))
                 for i, offset in enumerate(offsets))
    return CameraRig(cams)


RIG1 = make_rig([[2.0, 0.0, 0.0]])
RIG2 = make_rig([[2.0, 1.0, 0.0], [2.0, -1.0, 0.0]])
YAW_GRID = GridSpec({"yaw": (-0.3, 0.3, 41)})


def simulated(rig, truth, seed=0, sigma=0.0, outliers=0.0, num_points=200):
    points = generate_scene(SceneSpec(num_points, (5.0, 40.0), 8.0, seed=seed))
    noise = NoiseSpec(pixel_sigma=sigma, outlier_fraction=outliers,
                      seed=seed + 1)
    return generate_matches(points, rig, truth, noise)


class TestEstimate:
    def test_noise_free_recovery_yaw_only(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=1)
        prior = truth.with_values(yaw=0.07)
        result = estimate(RIG1, sets, prior, EstimatorOptions())
        assert abs(result.params.yaw - 0.05) < 1e-6
        assert result.converged

    def test_no_matches(self):
        with pytest.raises(NoMatches):
            estimate(RIG1, [], MotionParams(yaw=0.0, arc_length=1.0))

    def test_prior_at_minimum_is_fixed_point(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=2)
        result = estimate(RIG1, sets, truth, EstimatorOptions())
        assert result.converged
        assert result.iterations <= 3
        assert abs(result.params.yaw - truth.yaw) < 1e-9

    def test_robust_beats_plain_loss_with_outliers(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=3, sigma=0.5, outliers=0.3)
        prior = truth.with_values(yaw=0.07)
        robust = estimate(RIG1, sets, prior,
                          EstimatorOptions(loss=CAUCHY))
        plain = estimate(RIG1, sets, prior,
                         EstimatorOptions(loss=NONE))
        err_robust = abs(robust.params.yaw - truth.yaw)
        err_plain = abs(plain.params.yaw - truth.yaw)
        assert err_robust < 1e-3
        assert err_plain > err_robust

    def test_final_energy_not_above_prior_energy(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=4, sigma=1.0)
        prior = truth.with_values(yaw=0.09)
        opts = EstimatorOptions()
        result = estimate(RIG1, sets, prior, opts)
        prior_energy = energy_at(prior, RIG1, sets, opts.loss, opts.metric)
        assert result.final_energy <= prior_energy

    def test_deterministic_bit_identical(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=5, sigma=0.5, outliers=0.2)
        prior = truth.with_values(yaw=0.06)
        a = estimate(RIG1, sets, prior, EstimatorOptions())
        b = estimate(RIG1, sets, prior, EstimatorOptions())
        assert a.params == b.params
        assert a.final_energy == b.final_energy
        assert a.iterations == b.iterations
        assert np.array_equal(a.residuals, b.residuals, equal_nan=True)

    @pytest.mark.parametrize("offset", [-0.05, -0.02, 0.02, 0.05])
    def test_prior_basin_of_attraction(self, offset):
        truth = MotionParams(yaw=0.03, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=6)
        prior = truth.with_values(yaw=truth.yaw + offset)
        result = estimate(RIG1, sets, prior, EstimatorOptions())
        assert abs(result.params.yaw - truth.yaw) < 1e-6

    def test_fixed_fields_bit_equal(self):
        truth = MotionParams(yaw=0.05, arc_length=1.2345678901234567,
                             pitch=0.001, roll=-0.002, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=7, sigma=0.5)
        result = estimate(RIG1, sets, truth, EstimatorOptions())
        assert result.params.arc_length == truth.arc_length
        assert result.params.pitch == truth.pitch
        assert result.params.roll == truth.roll

    def test_scale_recovery_two_cameras_in_curve(self):
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9)
        prior = truth.with_values(yaw=0.08, arc_length=1.3)
        result = estimate(RIG2, sets, prior, EstimatorOptions())
        assert abs(result.params.arc_length - 1.0) < 0.02
        assert result.condition_note == "ok"

    def test_scale_unobservable_single_camera(self):
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        rig = make_rig([[0.0, 0.0, 0.0]])
        sets, _ = simulated(rig, truth, seed=10)
        prior = truth.with_values(yaw=0.08, arc_length=1.3)
        result = estimate(rig, sets, prior, EstimatorOptions())
        assert result.condition_note == "scale_unobservable"

    def test_few_matches_note(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=11)
        small = [subset(sets[0], np.arange(4))]
        result = estimate(RIG1, small, truth, EstimatorOptions())
        assert result.condition_note == "few_matches"

    def test_cold_start_grid(self):
        truth = MotionParams(yaw=0.12, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=12)
        # deliberately bad prior on the wrong side of zero
        prior = truth.with_values(yaw=-0.25)
        opts = EstimatorOptions(fallback_grid=GridSpec({"yaw": (-0.3, 0.3, 41)}))
        result = estimate(RIG1, sets, prior, opts)
        assert abs(result.params.yaw - truth.yaw) < 1e-6

    def test_one_frame_per_solve(self, monkeypatch):
        # the grid fallback, the LM loop and the scale probe share a frame
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9)
        built = []
        from_matches = RigFrame.from_matches

        def counted(cls, *args):
            built.append(args)
            return from_matches(*args)
        monkeypatch.setattr(RigFrame, "from_matches", classmethod(counted))
        grid = GridSpec({"yaw": (-0.3, 0.3, 41)})
        result = estimate(RIG2, sets, truth.with_values(yaw=0.0),
                          EstimatorOptions(fallback_grid=grid))
        # not "few_matches", so the scale probe ran
        assert result.condition_note == "ok"
        assert len(built) == 1

    def test_one_motion_params_per_solve(self, monkeypatch):
        # the grid fallback, the LM trials and the scale probe take rows;
        # only the result is a MotionParams
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9)
        prior = truth.with_values(yaw=0.0)
        opts = EstimatorOptions(fallback_grid=YAW_GRID)
        built = []
        post_init = MotionParams.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(MotionParams, "__post_init__", counted)
        result = estimate(RIG2, sets, prior, opts)
        assert result.iterations > 1 and result.condition_note == "ok"
        assert built == [result.params]

    def test_no_free_fields_with_fallback_grid_returns_prior(self):
        truth = MotionParams(yaw=0.1, arc_length=1.0, free=())
        sets, _ = simulated(RIG2, truth, seed=9)
        prior = truth.with_values(yaw=0.05)
        opts = EstimatorOptions(fallback_grid=YAW_GRID)
        result = estimate(RIG2, sets, prior, opts)
        assert result.params == prior
        assert (result.termination, result.iterations) == ("grad_tol", 0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_prior_next_to_yaw_limit(self, sign):
        # steps past |yaw| = pi are rejected trials, not errors
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9)
        prior = truth.with_values(yaw=sign * (np.pi - 1e-3))
        result = estimate(RIG2, sets, prior, EstimatorOptions())
        assert abs(result.params.yaw) < np.pi
        assert result.termination in CONVERGED_TERMINATIONS

    def test_non_finite_start_energy_is_not_converged(self):
        # width^2 = 2.25e-308: r^2 / width^2 overflows, so the energy is inf
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9)
        opts = EstimatorOptions(metric=MetricKind.GEOLINE,
                                loss=RobustLoss("cauchy", 1.5e-154))
        with np.errstate(over="ignore"):
            result = estimate(RIG2, sets, truth.with_values(yaw=0.09), opts)
        assert result.final_energy == np.inf
        assert (result.termination, result.iterations) == ("non_finite", 0)
        assert not result.converged
        assert result.condition_note == "ok"

    def test_termination_reason(self):
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9, sigma=0.5)
        prior = truth.with_values(yaw=0.08, arc_length=1.3)
        result = estimate(RIG2, sets, prior, EstimatorOptions())
        assert result.termination in CONVERGED_TERMINATIONS
        assert result.converged
        cut = estimate(RIG2, sets, prior, EstimatorOptions(max_iterations=1))
        assert (cut.termination, cut.converged) == ("max_iter", False)
        held = estimate(RIG2, sets, prior.with_values(free=()))
        assert (held.termination, held.iterations) == ("grad_tol", 0)
        assert held.converged

    def test_stops_at_rounding_level_decrease(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=4, sigma=1.0)
        prior = truth.with_values(yaw=0.09)
        result = estimate(RIG1, sets, prior, EstimatorOptions())
        shorter = estimate(RIG1, sets, prior, EstimatorOptions(
            max_iterations=result.iterations - 1))
        assert result.termination == "energy_tol"
        decrease = shorter.final_energy - result.final_energy
        assert 0.0 <= decrease <= (ENERGY_DECREASE_REL_TOL
                                   * shorter.final_energy)

    def test_geoline_matches_reference_minimum(self):
        # the default loss width carried to pixels at the focal length;
        # pinned values: the minimum located to ~1e-10 rad by Gauss-Newton
        # on sqrt(rho)-weighted residuals with a central-difference Jacobian
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=40, sigma=0.5)
        opts = EstimatorOptions(metric=MetricKind.GEOLINE,
                                loss=RobustLoss("cauchy", 0.0065 * INTR.fx))
        result = estimate(RIG2, sets, truth.with_values(yaw=0.09,
                                                        arc_length=1.1), opts)
        assert result.converged
        assert abs(result.params.yaw - 0.0999654494809861) <= 1e-8
        assert abs(result.params.arc_length - 0.9900788159032858) <= 1e-6
        assert result.final_energy == pytest.approx(353.5029509041608,
                                                     rel=1e-9, abs=0.0)


class TestGradients:
    def test_numeric_gradient_zero_at_minimum(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=20)
        g = numeric_gradient(RIG1, sets, truth, NONE, ANGLE, h=1e-6)
        assert np.abs(g).max() < 1e-8

    def test_internal_matches_numeric(self):
        truth = MotionParams(yaw=0.06, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=21, sigma=0.5)
        rng = np.random.Generator(np.random.PCG64(22))
        for _ in range(20):
            p = truth.with_values(yaw=rng.uniform(-0.2, 0.2),
                                  arc_length=rng.uniform(0.5, 2.0))
            gi = internal_gradient(RIG2, sets, p, CAUCHY, ANGLE)
            gn = numeric_gradient(RIG2, sets, p, CAUCHY, ANGLE, h=1e-7)
            tol = np.maximum(1e-6, 1e-4 * np.abs(gn))
            assert np.all(np.abs(gi - gn) <= tol)

    def test_internal_matches_numeric_geoline(self):
        truth = MotionParams(yaw=0.06, arc_length=1.0, pitch=0.01,
                             free=("yaw", "arc_length", "pitch", "roll"))
        sets, _ = simulated(RIG2, truth, seed=25, sigma=0.5, outliers=0.1)
        loss = RobustLoss("cauchy", 2.0)
        rng = np.random.Generator(np.random.PCG64(26))
        for _ in range(10):
            p = truth.with_values(yaw=rng.uniform(-0.2, 0.2),
                                  arc_length=rng.uniform(0.5, 2.0),
                                  roll=rng.uniform(-0.02, 0.02))
            gi = internal_gradient(RIG2, sets, p, loss, MetricKind.GEOLINE)
            gn = numeric_gradient(RIG2, sets, p, loss, MetricKind.GEOLINE,
                                  h=1e-7)
            assert np.allclose(gi, gn, rtol=1e-4, atol=1e-3)

    def test_step_halving_consistency(self):
        truth = MotionParams(yaw=0.06, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=23, sigma=0.5)
        p = truth.with_values(yaw=0.09)
        g_h = numeric_gradient(RIG1, sets, p, NONE, ANGLE, h=1e-5)
        g_h2 = numeric_gradient(RIG1, sets, p, NONE, ANGLE, h=5e-6)
        # central differences have O(h^2) error: halving h shrinks the
        # discrepancy to the Richardson limit by ~4x
        g_h4 = numeric_gradient(RIG1, sets, p, NONE, ANGLE, h=2.5e-6)
        err1 = np.abs(g_h - g_h4).max()
        err2 = np.abs(g_h2 - g_h4).max()
        assert err2 < err1

    def test_invalid_h(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=24)
        with pytest.raises(ValueError):
            numeric_gradient(RIG1, sets, truth, NONE, ANGLE, h=0.0)


class TestLandscape:
    def test_two_camera_curve_argmin_near_truth(self):
        truth = MotionParams(yaw=0.1, arc_length=1.0)
        sets, _ = simulated(RIG2, truth, seed=30)
        # the yaw/arc valley is strongly correlated, so the grid must be
        # fine enough in yaw to sample near the truth for arc to resolve
        grid = LandscapeGrid((-0.2, 0.2), 41, (0.5, 1.5), 41)
        land = energy_landscape(RIG2, sets, grid, truth, NONE, ANGLE)
        i, j = land.argmin()
        cell_yaw = 0.4 / 40
        cell_arc = 1.0 / 40
        assert abs(land.yaw_values[i] - 0.1) <= cell_yaw + 1e-12
        assert abs(land.arc_values[j] - 1.0) <= cell_arc + 1e-12

    def test_single_camera_rows_constant_in_arc(self):
        rig = make_rig([[0.0, 0.0, 0.0]])
        truth = MotionParams(yaw=0.0, arc_length=1.0)
        sets, _ = simulated(rig, truth, seed=31)
        grid = LandscapeGrid((-0.1, 0.1), 5, (0.5, 2.0), 7)
        land = energy_landscape(rig, sets, grid, truth, NONE, ANGLE)
        for i in range(5):
            row = land.energies[i][~land.degenerate[i]]
            assert row.max() - row.min() <= 1e-12 * max(row.max(), 1.0)

    def test_percent_normalization(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0)
        sets, _ = simulated(RIG1, truth, seed=32, sigma=0.5)
        grid = LandscapeGrid((-0.2, 0.2), 11, (0.8, 1.2), 3)
        land = energy_landscape(RIG1, sets, grid, truth, NONE, ANGLE,
                                normalize=True)
        assert land.energies[~land.degenerate].max() == pytest.approx(100.0)

    def test_argmin_tie_break_matches_lowest_energy(self):
        # equal energies: the smaller |yaw| wins, as in lowest_energy
        land = Landscape(np.array([-0.2, 0.1]), np.array([1.5, 1.0]),
                         np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
        assert land.argmin() == (1, 1)
        # a degenerate cell counts as inf, whatever value it stores
        land = Landscape(np.array([-0.2, 0.1]), np.array([1.0]),
                         np.array([[0.0], [5.0]]), np.array([[True], [False]]))
        assert land.argmin() == (1, 0)
        with pytest.raises(DegenerateTranslation):
            Landscape(land.yaw_values, land.arc_values, land.energies,
                      np.ones((2, 1), dtype=bool)).argmin()


class TestClassifyInliers:
    def make_result(self, residuals):
        truth = MotionParams(yaw=0.0, arc_length=1.0)
        return EstimateResult(truth, 0.0, 0, "grad_tol",
                              np.asarray(residuals, dtype=float), 0, "ok")

    def test_infinite_threshold(self):
        result = self.make_result([0.1, -5.0, 100.0])
        assert classify_inliers(result, np.inf).all()

    def test_tiny_threshold(self):
        result = self.make_result([0.0, 1e-9, -1e-9, 0.5])
        mask = classify_inliers(result, 1e-12)
        assert list(mask) == [True, False, False, False]

    def test_skipped_matches_never_inliers(self):
        result = self.make_result([0.1, np.nan])
        assert list(classify_inliers(result, np.inf)) == [True, False]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            classify_inliers(self.make_result([0.0]), 0.0)

    def test_separates_labelled_outliers(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sigma = 0.5
        sets, labels = simulated(RIG1, truth, seed=33, sigma=sigma,
                                 outliers=0.3)
        result = estimate(RIG1, sets, truth, EstimatorOptions())
        mask = classify_inliers(result, 3.0 * sigma / INTR.fx)
        inliers = labels[0]
        assert np.mean(mask[inliers]) >= 0.95
        assert np.mean(~mask[~inliers]) >= 0.95


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorOptions(max_iterations=0)

    def test_defaults(self):
        opts = EstimatorOptions()
        assert opts.metric is ANGLE
        assert opts.loss == RobustLoss("cauchy", 0.0065)
        assert opts.max_iterations == 100

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionprior import estimator
from motionprior.estimator import (CONVERGED_TERMINATIONS, DAMPING_INIT,
                                   ENERGY_DECREASE_REL_TOL, EstimateResult,
                                   EstimatorOptions, GridSpec, Landscape,
                                   LandscapeGrid, NoMatches, _damped_step,
                                   _sigma, _solver_state, classify_inliers,
                                   energy_landscape, estimate)
from motionprior.geometry import (DegenerateTranslation, PinholeCamera,
                                  PinholeIntrinsics, Pose,
                                  forward_camera_extrinsic)
from motionprior.manifold import (CameraRig, MotionParams, RigCamera,
                                  motion_arrays, params_rows)
from motionprior.metrics import MatchSet, MetricKind, RigFrame, RobustLoss
from motionprior.simulate import (NoiseSpec, SceneSpec, generate_matches,
                                  generate_scene)
from oracles import (eager_sigma, energy_at, internal_gradient,
                     numeric_gradient, project, subset)

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
# one camera facing forward, one backward
RIG_FB = CameraRig((
    RigCamera(0, PinholeCamera(INTR, (1280, 960)),
              forward_camera_extrinsic([1.5, 0.5, 0.0])),
    RigCamera(1, PinholeCamera(INTR, (1280, 960)),
              Pose(np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                             [0.0, -1.0, 0.0]]), [-1.0, -0.5, 0.0]))))
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
        # the grid fallback and the LM loop share a frame
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
        # not "few_matches", so sigma was judged
        assert result.condition_note == "ok"
        assert len(built) == 1

    def test_frame_in_place_of_match_sets(self):
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9, sigma=0.5)
        prior = truth.with_values(yaw=0.08, arc_length=1.3)
        frame = RigFrame.from_matches(RIG2, sets, ANGLE)
        a, b = estimate(RIG2, sets, prior), estimate(RIG2, frame, prior)
        assert (a.params, a.final_energy, a.iterations) == (
            b.params, b.final_energy, b.iterations)
        with pytest.raises(ValueError, match="metric"):
            estimate(RIG2, frame, prior,
                     EstimatorOptions(metric=MetricKind.GEOLINE))
        empty = RigFrame.from_matches(RIG2, [subset(sets[0], [])], ANGLE)
        with pytest.raises(NoMatches):
            estimate(RIG2, empty, prior)

    def test_one_motion_params_per_solve(self, monkeypatch):
        # the grid fallback and the LM trials take rows; only the result
        # is a MotionParams
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

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError,
                                       DegenerateTranslation])
    def test_every_trial_rejected_is_no_descent(self, monkeypatch, error):
        # every trial fails as a singular, off-manifold or degenerate one:
        # each damping up to the bound is tried once, then the prior stays
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9, sigma=0.5)
        prior = truth.with_values(yaw=0.08, arc_length=1.3)
        rows = []

        def failing_trials(row, *args):
            rows.append(row)
            if len(rows) > 1:
                raise error("rejected trial")
            return _solver_state(row, *args)
        monkeypatch.setattr("motionprior.estimator._solver_state",
                            failing_trials)
        result = estimate(RIG2, sets, prior)
        dampings, lam = 0, DAMPING_INIT
        while lam <= 1e15:
            dampings, lam = dampings + 1, lam * 10.0
        assert dampings == 20
        assert len(rows) - 1 == dampings
        assert (result.termination, result.iterations) == ("no_descent", 1)
        assert result.params == prior

    def test_singular_solve_is_a_rejected_trial(self, monkeypatch):
        # noise-free, so both solves end on the gradient at the minimum
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9)
        prior = truth.with_values(yaw=0.08, arc_length=1.3)
        undisturbed = estimate(RIG2, sets, prior)
        calls = []
        solve = estimator._damped_step

        def singular_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(*args)
        monkeypatch.setattr(estimator, "_damped_step", singular_once)
        result = estimate(RIG2, sets, prior)
        assert len(calls) > 1
        assert result.termination == undisturbed.termination == "grad_tol"
        assert abs(result.params.yaw - undisturbed.params.yaw) <= 1e-9

    @pytest.mark.parametrize("pivot", [0.0, -1.0, np.nan, np.inf])
    def test_bad_pivot_is_a_rejected_trial(self, monkeypatch, pivot):
        # the first damped system's first pivot is set to `pivot`: the
        # step raises, the trial is rejected and the next damping tried
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9)
        prior = truth.with_values(yaw=0.08, arc_length=1.3)
        undisturbed = estimate(RIG2, sets, prior)
        dampings, raised = [], []
        step = estimator._damped_step

        def bad_pivot_once(JTJ, JTz, lam):
            dampings.append(lam)
            if len(dampings) == 1:
                JTJ = JTJ.copy()
                JTJ[0, 0] = pivot - lam         # pivot JTJ[0, 0] + lam
            try:
                return step(JTJ, JTz, lam)
            except np.linalg.LinAlgError:
                raised.append(lam)
                raise
        monkeypatch.setattr(estimator, "_damped_step", bad_pivot_once)
        result = estimate(RIG2, sets, prior)
        assert raised == [DAMPING_INIT]
        assert dampings[1] == 10.0 * DAMPING_INIT
        assert result.termination == undisturbed.termination == "grad_tol"
        assert abs(result.params.yaw - undisturbed.params.yaw) <= 1e-9

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
        assert result.condition_note == "ok" and result.sigma == {}

    def test_termination_reason(self, monkeypatch):
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=9, sigma=0.5)
        prior = truth.with_values(yaw=0.08, arc_length=1.3)
        result = estimate(RIG2, sets, prior, EstimatorOptions())
        assert result.termination in CONVERGED_TERMINATIONS
        assert result.converged
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
        cut = estimate(RIG2, sets, prior, EstimatorOptions())
        assert (cut.termination, cut.converged) == ("max_iter", False)
        held = estimate(RIG2, sets, prior.with_values(free=()))
        assert (held.termination, held.iterations) == ("grad_tol", 0)
        assert held.converged

    def test_stops_at_rounding_level_decrease(self, monkeypatch):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=4, sigma=1.0)
        prior = truth.with_values(yaw=0.09)
        result = estimate(RIG1, sets, prior, EstimatorOptions())
        monkeypatch.setattr(estimator, "MAX_ITERATIONS",
                            result.iterations - 1)
        shorter = estimate(RIG1, sets, prior, EstimatorOptions())
        assert result.termination == "energy_tol"
        decrease = shorter.final_energy - result.final_energy
        assert 0.0 <= decrease <= (ENERGY_DECREASE_REL_TOL
                                   * shorter.final_energy)

    def test_geoline_default_loss_is_in_pixels(self):
        # a forward and a backward camera on a noisy curve with outliers,
        # the arc held. Over seeds 40-59, a 0.0065 px width read 1.8e-3 to
        # 2.5e-2 rad of yaw error, two seeds ending "max_iter"; 4.55 px
        # read at most 7.1e-4
        truth = MotionParams(yaw=0.03, arc_length=1.0, free=("yaw",))
        opts = EstimatorOptions(metric=MetricKind.GEOLINE)
        for seed in range(40, 50):
            sets, _ = simulated(RIG_FB, truth, seed=seed, sigma=0.5,
                                outliers=0.1, num_points=300)
            result = estimate(RIG_FB, sets, truth.with_values(yaw=0.0), opts)
            assert result.converged
            assert abs(result.params.yaw - truth.yaw) < 1e-3

    def test_start_row_moving_no_camera_raises(self):
        # yaw 0 and arc 0: no camera translates, so the start state has
        # no epipolar geometry; the caller's frame fails, not the run
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG2, truth, seed=3)
        with pytest.raises(DegenerateTranslation, match="zero translation"):
            estimate(RIG2, sets, truth.with_values(yaw=0.0, arc_length=0.0))

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


def noisy_curve(seed):
    """The acceptance tests' seeded two-camera curve, with 0.5 px noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    truth = MotionParams(yaw=rng.uniform(0.05, 0.25) * rng.choice([-1, 1]),
                         arc_length=rng.uniform(0.8, 1.6),
                         free=("yaw", "arc_length"))
    sets, _ = simulated(RIG2, truth, seed=seed, sigma=0.5)
    return sets


class TestSigma:
    GEOLINE_1PX = EstimatorOptions(metric=MetricKind.GEOLINE,
                                   loss=RobustLoss("cauchy", 1.0))
    PRIOR = MotionParams(yaw=0.0, arc_length=1.0, free=("yaw", "arc_length"))

    @pytest.mark.parametrize("seed", [15, 42])
    def test_arc_run_out_is_scale_unobservable(self, seed):
        # the arc runs out to about -4e6 m, where J^T J is singular
        result = estimate(RIG2, noisy_curve(seed), self.PRIOR,
                          self.GEOLINE_1PX)
        assert abs(result.params.arc_length) > 1e6
        assert result.sigma["arc_length"] == np.inf
        assert result.condition_note == "scale_unobservable"

    def test_wrong_finite_basin_is_not_flagged(self):
        # arc 5.6 m against a true 1.05 m, yet sharply located there:
        # sigma measures the spread within a basin, not which basin
        result = estimate(RIG2, noisy_curve(8), self.PRIOR, self.GEOLINE_1PX)
        assert abs(result.params.arc_length - 5.6) < 0.1
        assert result.sigma["arc_length"] < 0.02 * result.params.arc_length
        assert result.condition_note == "ok"

    @pytest.mark.parametrize("scene_seed, true_arc", [(3, 0.1), (1, 1.0)])
    def test_straight_pair_is_scale_unobservable(self, scene_seed,
                                                 true_arc):
        # the benchmark rig and noise on a straight, arc free from 1.0;
        # (3, 0.1) leaves the arc at the prior, (1, 1.0) runs it to ~1636 m
        truth = MotionParams(yaw=0.0, arc_length=true_arc,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(RIG2, truth, seed=scene_seed, sigma=0.25,
                            num_points=150)
        result = estimate(RIG2, sets, truth.with_values(arc_length=1.0))
        assert result.condition_note == "scale_unobservable"

    def test_matches_monte_carlo_spread(self):
        # one scene, 60 noise draws: the reported sigma is the spread of
        # the estimates to within a factor of 2
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        points = generate_scene(SceneSpec(150, seed=0))
        results = [estimate(RIG2, generate_matches(
            points, RIG2, truth, NoiseSpec(0.5, seed=seed))[0], truth)
            for seed in range(60)]
        assert {r.condition_note for r in results} == {"ok"}
        for field in truth.free:
            spread = np.std([getattr(r.params, field) for r in results],
                            ddof=1)
            sigma = np.median([r.sigma[field] for r in results])
            assert 0.5 <= spread / sigma <= 2.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_null_space_makes_only_its_fields_inf(self, seed):
        # one camera at the rig centre sees no scale: J^T J is singular
        # with a null vector along the arc alone, so yaw keeps its sigma
        rig = make_rig([[0.0, 0.0, 0.0]])
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        sets, _ = simulated(rig, truth, seed=seed, sigma=0.5, num_points=150)
        result = estimate(rig, sets, truth)
        yaw_only = estimate(rig, sets, truth.with_values(free=("yaw",)))
        assert result.sigma["arc_length"] == np.inf
        assert result.sigma["yaw"] == pytest.approx(yaw_only.sigma["yaw"],
                                                    rel=0.05)
        assert result.condition_note == "scale_unobservable"

    @pytest.mark.parametrize("J", [
        np.zeros((6, 2)),                             # singular
        np.array([[1.0, 0.0], [0.0, 1.0]]),          # m <= p
        np.array([[np.nan, 1.0]] * 6),                # not finite
        np.array([[1e200, 1.0], [1.0, 1e200]] * 3),   # J^T J overflows
        np.array([[1e-160, 0.0], [0.0, 1e-160]] * 3)],  # (J^T J)^-1 does
        ids=["singular", "few-rows", "nan", "overflow", "underflow"])
    def test_degenerate_jacobian_gives_inf_without_warning(self, J):
        # pytest turns any warning into a failure here; the overflowing
        # J^T J is formed under np.errstate, as estimate forms it
        with np.errstate(over="ignore"):
            JTJ = J.T @ J
        assert (_sigma(JTJ, float(len(J)), len(J)) == np.inf).all()

    @pytest.mark.parametrize("case", ["yaw-only", "arc-free", "non-finite",
                                      "singular"])
    def test_lazy_sigma_equals_eager(self, case):
        # sigma read from the result is, bit for bit, the reference formed
        # in one pass from the z and J of the final solver state
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        rig, sets, prior = RIG2, noisy_curve(3), truth
        opts = EstimatorOptions()
        if case == "yaw-only":
            prior = truth.with_values(free=("yaw",))
        elif case == "non-finite":
            opts = EstimatorOptions(metric=MetricKind.GEOLINE,
                                    loss=RobustLoss("cauchy", 1.5e-154))
        elif case == "singular":
            rig = make_rig([[0.0, 0.0, 0.0]])
            sets, _ = simulated(rig, truth, seed=1, sigma=0.5,
                                num_points=150)
        with np.errstate(over="ignore"):
            result = estimate(rig, sets, prior, opts)
            frame = RigFrame.from_matches(rig, sets, opts.metric)
            z, J, components, valid = _solver_state(
                params_rows(result.params), result.params.free, frame,
                opts.loss)[:4]
        # the rows of valid matches: skipped ones carry weight 0
        keep = np.repeat(valid, components.shape[1])
        expected = (dict(zip(prior.free, eager_sigma(z[keep], J[keep])))
                    if np.isfinite(result.final_energy) else {})
        assert result.sigma == expected
        assert result.sigma is result.sigma
        if case == "non-finite":
            assert expected == {}
        elif case == "singular":
            assert result.sigma["arc_length"] == np.inf

    def test_fields(self):
        truth = MotionParams(yaw=0.05, arc_length=1.0, free=("yaw",))
        sets, _ = simulated(RIG1, truth, seed=4, sigma=1.0)
        result = estimate(RIG1, sets, truth.with_values(yaw=0.09))
        assert list(result.sigma) == ["yaw"] and result.sigma["yaw"] > 0.0
        held = estimate(RIG1, sets, truth.with_values(free=()))
        assert held.sigma == {}


class TestSolverState:
    @pytest.mark.parametrize("metric, loss", [
        (ANGLE, CAUCHY), (MetricKind.GEOLINE, RobustLoss("cauchy", 1.0))],
        ids=["angleplane", "geoline"])
    def test_invalid_matches_weigh_nothing(self, metric, loss):
        # camera 1 sits at the centre of the arc, so the motion only turns
        # it (u = 0); one added camera-0 match lies at the epipole. The
        # solver state equals that of the valid matches alone.
        truth = MotionParams(yaw=0.1, arc_length=1.0,
                             free=("yaw", "arc_length"))
        radius = truth.arc_length / truth.yaw
        rig = make_rig([[2.0, 1.0, 0.0], [0.0, radius, 0.0]])
        sets, _ = simulated(rig, truth, seed=5, sigma=0.5, num_points=150)
        row = params_rows(truth)
        rot, t = motion_arrays(row)
        cam = rig.camera(0)
        te = cam.extrinsic.translation
        u = (te - t[0]) @ rot[0] - te
        # the ray along -R u, ahead of the camera: R^T v0 is parallel to
        # u, so M v0 = [u]x R^T v0 = 0
        pixel = project(cam.model,
                        (-(rot[0] @ u) @ cam.extrinsic.rotation)[None])
        epipole = MatchSet(0, np.vstack([sets[0].pixels_t0, pixel]),
                           np.vstack([sets[0].pixels_t1, pixel]))
        full = [epipole, sets[1]]
        valid_only = [sets[0]]
        (z, J, _, valid, energy), (z_v, J_v, *_, energy_v) = (
            _solver_state(row, truth.free,
                          RigFrame.from_matches(rig, s, metric), loss)
            for s in (full, valid_only))
        expected = np.r_[np.ones(len(sets[0]), bool), False,
                         np.zeros(len(sets[1]), bool)]
        assert np.array_equal(valid, expected)
        assert z @ z == pytest.approx(z_v @ z_v, rel=1e-12, abs=0.0)
        assert np.allclose(J.T @ J, J_v.T @ J_v, rtol=1e-12, atol=0.0)
        assert energy == pytest.approx(energy_v, rel=1e-12, abs=0.0)
        # held at the row, estimate reports the skipped matches as NaN
        # and counts only the valid residuals for sigma
        opts = EstimatorOptions(metric=metric, loss=loss)
        held = truth.with_values(free=())
        result, result_v = (estimate(rig, s, held, opts)
                            for s in (full, valid_only))
        assert result.skipped_matches == len(expected) - len(sets[0])
        assert np.array_equal(np.isnan(result.residuals), ~expected)
        assert np.array_equal(result.residuals[expected], result_v.residuals)
        assert result.gram[2] == result_v.gram[2] == z_v.size
        assert result.final_energy == pytest.approx(energy_v, rel=1e-12,
                                                    abs=0.0)


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

    @pytest.mark.parametrize("grid", [
        LandscapeGrid((np.nan, 0.2), 3, (0.8, 1.2), 3),
        LandscapeGrid((-0.2, np.inf), 3, (0.8, 1.2), 3),
        LandscapeGrid((-0.2, 0.2), 3, (-np.inf, 1.2), 3),
        LandscapeGrid((-0.2, 0.2), 3, (0.8, np.nan), 3)])
    def test_non_finite_range_rejected(self, grid):
        truth = MotionParams(yaw=0.05, arc_length=1.0)
        sets, _ = simulated(RIG1, truth, seed=32)
        with pytest.raises(ValueError, match="range .* must be finite"):
            energy_landscape(RIG1, sets, grid, truth, NONE, ANGLE)

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
                              np.asarray(residuals, dtype=float), 0,
                              (np.zeros((1, 1)), 0.0, 0))

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


class TestGridSpec:
    @pytest.mark.parametrize("build, field", [
        (lambda: GridSpec({"yaw": (np.nan, 0.3, 41)}), "yaw"),
        (lambda: GridSpec({"yaw": (-0.3, np.inf, 41)}), "yaw"),
        (lambda: GridSpec({"arc_length": (-np.inf, 2.0, 5)}), "arc_length"),
        (lambda: GridSpec({"yaw": (0.3, -0.3, 41)}), "yaw"),
        (lambda: GridSpec({"yaw": (-0.3, 0.3, 0)}), "yaw"),
        (lambda: GridSpec({"yaw": (-0.3, 0.3, -1)}), "yaw"),
        (lambda: GridSpec({"yaw": (-0.3, 0.3, 2.0)}), "yaw"),
        (lambda: GridSpec({"yam": (-0.3, 0.3, 41)}), "yam"),
        (lambda: EstimatorOptions(
            fallback_grid=GridSpec({"yaw": (np.nan, 0.3, 41)})), "yaw"),
        (lambda: GridSpec({"yaw": (3.0, 3.3, 4)}), "yaw"),
        (lambda: GridSpec({"yaw": (-np.pi, 0.0, 5)}), "yaw")],
        ids=["nan", "inf", "minus-inf", "reversed", "steps-zero",
             "steps-negative", "steps-float", "unknown-field",
             "fallback-nan", "yaw-past-pi", "yaw-at-minus-pi"])
    def test_invalid_grid_rejected_when_built(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_axes_are_a_read_only_copy(self):
        axes = {"yaw": (-0.3, 0.3, 5)}
        grid = GridSpec(axes)
        axes["yaw"] = (np.nan, 0.3, 5)
        assert grid.axes == {"yaw": (-0.3, 0.3, 5)}
        with pytest.raises(TypeError):
            grid.axes["yaw"] = (np.nan, 0.3, 5)

    def test_single_step_axis_is_its_minimum(self):
        grid = GridSpec({"yaw": (-0.1, -0.1, 1), "arc_length": (0.5, 2.0, 1)})
        rows = grid.points(MotionParams(yaw=0.0, arc_length=1.0,
                                        free=("yaw", "arc_length")))
        assert rows.tolist() == [[-0.1, 0.5, 0.0, 0.0]]


class TestOptions:
    def test_defaults(self):
        opts = EstimatorOptions()
        assert opts.metric is ANGLE
        assert opts.loss == RobustLoss("cauchy", 0.0065)
        # the same width in pixels at the focal length
        assert EstimatorOptions(MetricKind.GEOLINE).loss == RobustLoss(
            "cauchy", 0.0065 * INTR.fx)
        assert EstimatorOptions(MetricKind.GEOLINE, NONE).loss == NONE


class TestDampedStep:
    """The LDL^T step on Python floats against np.linalg.solve of
    (J^T J + lam I) s = -J^T z. At p = 1 both divide -g by h + lam, so
    they agree bit for bit. Above, both solvers are backward stable, so
    each is within a few eps cond(A) |s| of the exact step; measured
    over 4e4 random systems they differed by at most 1.9 eps cond(A)
    |s|, and the test allows 8 p eps cond(A) |s|. Systems with cond(A)
    >= 1e14 are left out: there either solver may call A singular."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 4), st.floats(-15.0, 15.0),
           st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    @example(1, 0, -15.0, [0.0] * 4, 0)
    @example(1, 0, 15.0, [3.0] * 4, 1)
    def test_matches_linalg_solve(self, p, extra, log_lam, log_scales, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        J = rng.normal(size=(p + extra, p)) * 10.0 ** np.array(
            log_scales[:p])
        JTJ, JTz = J.T @ J, J.T @ rng.normal(size=p + extra)
        lam = 10.0 ** log_lam
        a = JTJ + lam * np.eye(p)
        if p > 1 and np.linalg.cond(a) >= 1e14:
            return
        expected = np.linalg.solve(a, -JTz)
        step = np.array(_damped_step(JTJ, JTz, lam))
        if p == 1:
            assert step.tobytes() == expected.tobytes()
        else:
            bound = (8 * p * np.finfo(float).eps * np.linalg.cond(a)
                     * np.abs(expected).max())
            assert np.abs(step - expected).max() <= bound

    @pytest.mark.parametrize("jtj, lam", [
        ([[0.0]], 0.0), ([[-2.0]], 1.0), ([[np.nan]], 1.0),
        ([[np.inf]], 1.0), ([[1.0, 1.0], [1.0, 1.0]], 0.0),
        ([[1.0, 2.0], [2.0, 1.0]], 0.0), ([[1.0, np.nan], [np.nan, 1.0]], 0.0),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -np.inf]], 1e-4)],
        ids=["zero", "negative", "nan", "inf", "zero-second",
             "negative-second", "nan-second", "inf-third"])
    def test_bad_pivot_raises(self, jtj, lam):
        jtj = np.array(jtj)
        with pytest.raises(np.linalg.LinAlgError, match="pivot"):
            _damped_step(jtj, np.ones(len(jtj)), lam)

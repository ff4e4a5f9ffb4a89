"""Robust minimization of the multi-camera epipolar energy over the free
manifold parameters.

The solver is a damped least-squares (Levenberg-Marquardt) loop with
iteratively reweighted residuals: z = sqrt(rho'(r^2)) r and
J = sqrt(rho'(r^2)) dr/dx, so 2 J^T z is the exact gradient of the robust
energy sum(rho(r^2)). The residual derivatives are closed-form and come
from the same kernel pass as the residuals, so each trial costs one
kernel call. Trials are accepted on the robust energy itself; the loop
stops on a small gradient, a small step, a relative energy decrease at
rounding level, or when no damping gives a descent step, and reports
which in `EstimateResult.termination`. Below the public entry points a
manifold point is the (1, 4) row [yaw, arc_length, pitch, roll] that the
kernel takes; a MotionParams is built only for the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateTranslation
from .manifold import (PARAM_FIELDS, CameraRig, MotionParams, lowest_energy,
                       multi_camera_energy, params_rows, rig_residuals)
from .metrics import MetricKind, RigFrame, RobustLoss

FEW_MATCHES_THRESHOLD = 8
SCALE_CURVATURE_REL_TOL = 1e-9
# an accepted step lowering the energy by at most this fraction ends the
# solve: further steps only move the energy's last bits
ENERGY_DECREASE_REL_TOL = 1e-10
GRADIENT_TOL = 1e-10        # max |gradient| of the robust energy
STEP_TOL = 1e-12            # norm of an accepted step
DAMPING_INIT = 1e-4

# EstimateResult.termination values that count as converged
CONVERGED_TERMINATIONS = ("grad_tol", "step_tol", "energy_tol")


class NoMatches(Exception):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid over free parameters: field name ->
    (min, max, steps)."""

    axes: dict

    def points(self, template: MotionParams) -> np.ndarray:
        """(K, 4) rows of the template with each free field that has an
        axis swept over it, the last such field fastest."""
        rows = params_rows(template)
        for f in template.free:
            if f in self.axes:
                values = np.linspace(*self.axes[f])
                rows = np.repeat(rows, len(values), axis=0)
                rows[:, PARAM_FIELDS.index(f)] = np.resize(values, len(rows))
        return rows


def default_cold_start_grid(prior: MotionParams) -> GridSpec:
    """Coarse yaw sweep used when no trustworthy prior exists."""
    return GridSpec({"yaw": (-0.3, 0.3, 41)})


@dataclass(frozen=True)
class EstimatorOptions:
    metric: MetricKind = MetricKind.ANGLEPLANE
    loss: RobustLoss = RobustLoss("cauchy", 0.0065)
    max_iterations: int = 100
    fallback_grid: GridSpec | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class EstimateResult:
    params: MotionParams
    final_energy: float
    iterations: int
    # "grad_tol" | "step_tol" | "energy_tol" | "no_descent" | "max_iter"
    # | "non_finite" (the energy at the start point is NaN or inf)
    termination: str
    residuals: np.ndarray          # signed, NaN for skipped matches
    skipped_matches: int
    condition_note: str            # "ok" | "scale_unobservable" | "few_matches"

    @property
    def converged(self) -> bool:
        return self.termination in CONVERGED_TERMINATIONS


def _solver_state(row, free, frame: RigFrame, loss):
    """IRLS residual vector z = sqrt(rho') r and its Jacobian
    J = sqrt(rho') dr/dx over the `free` fields (2 J^T z is the gradient
    of the robust energy), the signed raw residual per match (NaN for
    skipped), the skip count and the robust energy at one (1, 4) row.
    Raises ValueError outside the domain of MotionParams (|yaw| < pi,
    every value finite) and DegenerateTranslation when no populated
    camera translates."""
    if not (abs(row[0, 0]) < np.pi and np.isfinite(row).all()):
        raise ValueError("row outside the motion manifold")
    components, valid, usable, jac = rig_residuals(row, frame, free)
    if not usable[0]:
        raise DegenerateTranslation(
            "all per-camera motions have zero translation")
    mask = valid[0]
    kept = components[0, mask]
    rho, drho = loss.evaluate(np.sum(kept ** 2, axis=-1))
    weight = np.sqrt(drho)[:, None]
    return ((weight * kept).ravel(),
            (weight[..., None] * jac[0, mask]).reshape(kept.size, -1),
            np.where(mask, components[0, :, 0], np.nan),
            len(mask) - int(np.count_nonzero(mask)), float(np.sum(rho)))


def _scale_observable(row, frame: RigFrame, loss):
    """Probe the energy's sensitivity to arc length at the solution row."""
    yaw, arc = row[0, :2]
    l0 = arc if abs(arc) > 1e-3 else 1.0
    yaw_ref = yaw + (0.05 if yaw < np.pi - 0.1 else -0.05)
    rows = np.repeat(row, 6, axis=0)
    rows[:5, 1] = l0 * np.array([0.5, 0.75, 1.0, 1.5, 2.0])
    rows[5, :2] = yaw_ref, l0
    energies = multi_camera_energy(rows, frame, loss)
    sweep = energies[:5][np.isfinite(energies[:5])]
    if len(sweep) < 2:
        return False
    variation = sweep.max() - sweep.min()
    reference = energies[5]
    scale = max(sweep.max(), reference if np.isfinite(reference) else 0.0,
                1e-300)
    return variation >= SCALE_CURVATURE_REL_TOL * scale


def estimate(rig: CameraRig, match_sets, prior: MotionParams,
             opts: EstimatorOptions = EstimatorOptions()) -> EstimateResult:
    """Minimize the robust multi-camera energy over the prior's free
    parameters, starting from the prior (optionally after a coarse grid)."""
    total_matches = sum(len(s) for s in match_sets)
    if total_matches == 0:
        raise NoMatches("estimation needs at least one match")
    frame = RigFrame.from_matches(rig, match_sets, opts.metric)

    cols = [PARAM_FIELDS.index(f) for f in prior.free]
    row = params_rows(prior)
    if opts.fallback_grid is not None:
        # grid cells, then the prior: the best cell must be at least as low
        rows = np.concatenate([opts.fallback_grid.points(prior), row])
        energies = multi_camera_energy(rows, frame, opts.loss)
        best = lowest_energy(rows[:-1], energies[:-1])
        if best is not None and energies[best] <= energies[-1]:
            row = rows[best:best + 1]

    z, J, raw, skipped, energy = _solver_state(row, prior.free, frame,
                                               opts.loss)
    termination = None if cols else "grad_tol"
    if not np.isfinite(energy):
        # the loop accepts only strictly lower energies; none is below NaN
        # or inf
        termination = "non_finite"
    iterations = 0
    lam = DAMPING_INIT
    while termination is None and iterations < opts.max_iterations:
        iterations += 1
        JTz = J.T @ z
        if 2.0 * np.abs(JTz).max() <= GRADIENT_TOL:
            termination = "grad_tol"
            break
        JTJ = J.T @ J
        # no downhill step at machine precision unless a trial is accepted
        termination = "no_descent"
        for _ in range(30):
            try:
                step = np.linalg.solve(JTJ + lam * np.eye(len(cols)), -JTz)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = row.copy()
            trial[0, cols] += step
            try:
                t_state = _solver_state(trial, prior.free, frame, opts.loss)
            except (ValueError, DegenerateTranslation):
                lam *= 10.0
                continue
            if t_state[-1] < energy:
                small_decrease = (energy - t_state[-1]
                                  <= ENERGY_DECREASE_REL_TOL * energy)
                row = trial
                z, J, raw, skipped, energy = t_state
                lam = max(lam / 3.0, 1e-15)
                termination = None
                if np.linalg.norm(step) <= STEP_TOL:
                    termination = "step_tol"
                elif small_decrease:
                    termination = "energy_tol"
                break
            lam *= 10.0
            if lam > 1e15:
                break
    if termination is None:
        termination = "max_iter"

    note = "ok"
    valid_matches = total_matches - skipped
    if valid_matches < FEW_MATCHES_THRESHOLD:
        note = "few_matches"
    elif "arc_length" in prior.free and np.isfinite(energy) and \
            not _scale_observable(row, frame, opts.loss):
        note = "scale_unobservable"

    params = prior.with_values(**{f: float(row[0, PARAM_FIELDS.index(f)])
                                  for f in prior.free})
    return EstimateResult(params=params, final_energy=energy,
                          iterations=iterations, termination=termination,
                          residuals=raw, skipped_matches=skipped,
                          condition_note=note)


@dataclass(frozen=True)
class LandscapeGrid:
    yaw_range: tuple
    yaw_steps: int
    arc_range: tuple
    arc_steps: int


@dataclass(frozen=True)
class Landscape:
    yaw_values: np.ndarray
    arc_values: np.ndarray
    energies: np.ndarray          # shape (yaw_steps, arc_steps)
    degenerate: np.ndarray        # boolean mask, same shape

    def argmin(self):
        """(i, j) of the lowest non-degenerate cell, as lowest_energy."""
        gg, ll = np.meshgrid(self.yaw_values, self.arc_values, indexing="ij")
        best = lowest_energy(np.stack([gg.ravel(), ll.ravel()], axis=1),
                             np.where(self.degenerate, np.inf,
                                      self.energies).ravel())
        if best is None:
            raise DegenerateTranslation("every landscape cell is degenerate")
        return divmod(best, len(self.arc_values))


def energy_landscape(rig, match_sets, grid: LandscapeGrid,
                     fixed: MotionParams, loss: RobustLoss,
                     metric: MetricKind, normalize: bool = False) -> Landscape:
    """Dense energy evaluation over a yaw x arc-length grid."""
    axes = {"yaw": (*grid.yaw_range, grid.yaw_steps),
            "arc_length": (*grid.arc_range, grid.arc_steps)}
    yaws, arcs = (np.linspace(*axis) for axis in axes.values())
    if len(yaws) == 0 or len(arcs) == 0:
        raise ValueError("grid must be nonempty")
    rows = GridSpec(axes).points(fixed.with_values(free=tuple(axes)))
    frame = RigFrame.from_matches(rig, match_sets, metric)
    energies = multi_camera_energy(rows, frame, loss).reshape(len(yaws),
                                                              len(arcs))
    degenerate = ~np.isfinite(energies)
    energies[degenerate] = 0.0
    if normalize:
        peak = energies[~degenerate].max(initial=0.0)
        if peak > 0:
            energies = energies / peak * 100.0
    return Landscape(yaws, arcs, energies, degenerate)


def classify_inliers(result: EstimateResult, threshold: float) -> np.ndarray:
    """Mask of matches whose |residual| is within threshold; skipped
    matches are never inliers."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    with np.errstate(invalid="ignore"):
        return np.abs(result.residuals) <= threshold

"""Robust minimization of the multi-camera epipolar energy over the free
manifold parameters.

The solver is a damped least-squares (Levenberg-Marquardt) loop with
iteratively reweighted residuals: z = sqrt(rho'(r^2)) r and
J = sqrt(rho'(r^2)) dr/dx, so 2 J^T z is the exact gradient of the robust
energy sum(rho(r^2)). The residual derivatives are closed-form and come
from the same kernel pass as the residuals, so each trial costs one
kernel call and an LDL^T solve on Python floats. Trials are accepted on
the robust energy itself; the loop stops on a small gradient, a small
step, a relative energy decrease at rounding level, or when no damping
up to 1e15 gives a descent step, and reports which in
`EstimateResult.termination`. Below the public entry points a manifold
point is the (1, 4) row [yaw, arc_length, pitch, roll] that the kernel
takes; a MotionParams is built only for the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .geometry import DegenerateTranslation
from .manifold import (PARAM_FIELDS, CameraRig, MotionParams, lowest_energy,
                       multi_camera_energy, params_rows, rig_residuals)
from .metrics import MetricKind, RigFrame, RobustLoss

FEW_MATCHES_THRESHOLD = 8
# a free arc whose sigma exceeds this fraction of |arc| is unobservable
SCALE_SIGMA_REL_BOUND = 0.5
# an accepted step lowering the energy by at most this fraction ends the
# solve: further steps only move the energy's last bits
ENERGY_DECREASE_REL_TOL = 1e-10
GRADIENT_TOL = 1e-10        # max |gradient| of the robust energy
STEP_TOL = 1e-12            # norm of an accepted step
DAMPING_INIT = 1e-4
MAX_ITERATIONS = 100        # LM iterations before "max_iter"
# geoline: the angleplane width in pixels at the rigs' 700 px focal length
DEFAULT_LOSS = {MetricKind.ANGLEPLANE: RobustLoss("cauchy", 0.0065),
                MetricKind.GEOLINE: RobustLoss("cauchy", 4.55)}

# EstimateResult.termination values that count as converged
CONVERGED_TERMINATIONS = ("grad_tol", "step_tol", "energy_tol")


class NoMatches(Exception):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid over free parameters: field name ->
    (min, max, steps). ValueError naming the field unless it is one of
    PARAM_FIELDS, min <= max are finite (within (-pi, pi) for yaw) and
    steps is an integer >= 1. The axes are kept as a read-only copy, so
    the check holds for good."""

    axes: dict

    def __post_init__(self):
        object.__setattr__(self, "axes", MappingProxyType(dict(self.axes)))
        for f, (lo, hi, steps) in self.axes.items():
            if f not in PARAM_FIELDS:
                raise ValueError(f"unknown grid field {f!r}")
            if not -np.inf < lo <= hi < np.inf:
                raise ValueError(f"invalid bounds for {f}: range {lo}, {hi} "
                                 "must be finite with lo <= hi")
            if f == "yaw" and not (-np.pi < lo and hi < np.pi):
                raise ValueError(f"yaw range {lo}, {hi} must lie within "
                                 "(-pi, pi)")
            if not (isinstance(steps, (int, np.integer)) and steps >= 1):
                raise ValueError(f"{f} steps {steps!r} must be an int >= 1")

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
    loss: RobustLoss | None = None      # None: DEFAULT_LOSS[metric]
    fallback_grid: GridSpec | None = None

    def __post_init__(self):
        if self.loss is None:
            object.__setattr__(self, "loss", DEFAULT_LOSS[self.metric])


@dataclass(frozen=True, eq=False)
class EstimateResult:
    params: MotionParams
    final_energy: float
    iterations: int
    # "grad_tol" | "step_tol" | "energy_tol" | "no_descent" | "max_iter"
    # | "non_finite" (the energy at the start point is NaN or inf)
    termination: str
    residuals: np.ndarray          # signed, NaN for skipped matches
    skipped_matches: int
    # (J^T J, z^T z, m) of the final state's m weighted residuals z and
    # their Jacobian J over params.free: what sigma is computed from
    gram: tuple
    # "ok" | "scale_unobservable" | "few_matches"; only a free arc reads sigma
    condition_note: str = field(init=False)

    def __post_init__(self):
        kept = len(self.residuals) - self.skipped_matches
        arc_bound = SCALE_SIGMA_REL_BOUND * abs(self.params.arc_length)
        note = ("few_matches" if kept < FEW_MATCHES_THRESHOLD
                else "ok" if "arc_length" not in self.params.free
                or self.sigma.get("arc_length", 0.0) <= arc_bound
                else "scale_unobservable")
        object.__setattr__(self, "condition_note", note)

    @property
    def converged(self) -> bool:
        return self.termination in CONVERGED_TERMINATIONS

    @cached_property
    def sigma(self) -> dict:
        """Free field -> std dev; {} if the final energy is not finite.
        Computed on first read and cached."""
        if not np.isfinite(self.final_energy):
            return {}
        return dict(zip(self.params.free, _sigma(*self.gram)))


def _solver_state(row, free, frame: RigFrame, loss):
    """IRLS residual vector z = sqrt(rho') r and its Jacobian
    J = sqrt(rho') dr/dx over the `free` fields (2 J^T z is the gradient
    of the robust energy), the residual components (N, c), the validity
    mask (N,) and the robust energy at one (1, 4) row. Invalid matches
    stay in z and J with weight 0. Raises ValueError outside the domain of
    MotionParams (|yaw| < pi, every value finite) and
    DegenerateTranslation when no populated camera translates."""
    if not (abs(row[0, 0]) < np.pi and np.isfinite(row).all()):
        raise ValueError("row outside the motion manifold")
    components, valid, usable, jac = rig_residuals(row, frame, free)
    if not usable[0]:
        raise DegenerateTranslation(
            "all per-camera motions have zero translation")
    r, valid = components[0], valid[0]
    rho, drho = loss.evaluate((r * r).sum(axis=1))
    weight = (np.sqrt(drho) * valid)[:, None]
    return ((weight * r).ravel(),
            (weight[..., None] * jac[0]).reshape(r.size, -1), r, valid,
            float(rho[valid].sum()))        # no invalid rho, not even inf


def _damped_step(JTJ, JTz, lam):
    """The step s solving (J^T J + lam I) s = -J^T z, by LDL^T on Python
    floats: for p <= 4 free fields numpy's per-call overhead costs more
    than the arithmetic. At p = 1 it is -g / (h + lam). LinAlgError, which
    rejects the trial, if a pivot of D is not positive and finite."""
    a, s = JTJ.tolist(), (-JTz).tolist()
    p = len(s)
    for i in range(p):          # a's lower triangle becomes L, diagonal D
        for j in range(i + 1):
            c = a[i][j] + lam if i == j else a[i][j]
            for k in range(j):
                c -= a[i][k] * a[j][k] * a[k][k]
            if i == j and not 0.0 < c < math.inf:
                raise np.linalg.LinAlgError(
                    f"damped system pivot {c!r} is not positive and finite")
            a[i][j] = c / a[j][j] if i > j else c
    for i in range(p):                      # L y = -J^T z
        for k in range(i):
            s[i] -= a[i][k] * s[k]
    for i in reversed(range(p)):            # D L^T s = y
        s[i] /= a[i][i]
        for k in range(i + 1, p):
            s[i] -= a[k][i] * s[k]
    return s


@np.errstate(all="ignore")      # a degenerate J gives inf, not a warning
def _sigma(JTJ, zTz, m):
    """sqrt(diag((J^T J)^+) z^T z / (m - p)) over m residuals and p free
    fields, the pseudo-inverse over eigenvalues above p eps times the
    largest; inf for a field with squared components above p eps in the
    other (null) eigenvectors, and for all if m <= p or J^T J is zero or
    not finite."""
    p = len(JTJ)
    tol = p * np.finfo(float).eps
    w, V = np.linalg.eigh(JTJ) if np.isfinite(JTJ).all() else (np.zeros(1), 0)
    kept = w > w[-1:] * tol
    if m <= p or not kept.any():
        return np.full(p, np.inf)
    V2 = V ** 2
    var = (V2 / np.where(kept, w, np.inf)).sum(axis=1)
    var[V2 @ ~kept > tol] = np.inf
    return np.sqrt(var * zTz / (m - p))


def estimate(rig: CameraRig, match_sets, prior: MotionParams,
             opts: EstimatorOptions = EstimatorOptions()) -> EstimateResult:
    """Minimize the robust multi-camera energy over the prior's free
    parameters, starting from the prior (optionally after a coarse grid).
    `match_sets` may also be their RigFrame for opts.metric, which a
    caller that solves one frame pair more than once builds once."""
    if not isinstance(match_sets, RigFrame):
        match_sets = RigFrame.from_matches(rig, match_sets, opts.metric)
    elif match_sets.metric is not opts.metric:
        raise ValueError("the frame's metric is not opts.metric")
    return _estimate(match_sets, prior, opts)


def _estimate(frame: RigFrame, prior: MotionParams, opts: EstimatorOptions):
    """estimate on a frame built for opts.metric."""
    if not len(frame):
        raise NoMatches("estimation needs at least one match")
    row = params_rows(prior)
    if opts.fallback_grid is not None:
        # grid cells, then the prior: the best cell must be at least as low
        rows = np.concatenate([opts.fallback_grid.points(prior), row])
        energies = multi_camera_energy(rows, frame, opts.loss)
        best = lowest_energy(rows[:-1], energies[:-1])
        if best is not None and energies[best] <= energies[-1]:
            row = rows[best:best + 1]

    z, J, components, valid, energy = _solver_state(row, prior.free, frame,
                                                    opts.loss)
    termination = None if prior.free else "grad_tol"
    if not math.isfinite(energy):
        # the loop accepts only strictly lower energies; none is below NaN
        # or inf
        termination = "non_finite"
    iterations = 0
    lam = DAMPING_INIT
    free_rows = np.eye(4)[[PARAM_FIELDS.index(f) for f in prior.free]]
    while termination is None and iterations < MAX_ITERATIONS:
        iterations += 1
        JTz = J.T @ z
        if 2.0 * np.abs(JTz).max() <= GRADIENT_TOL:
            termination = "grad_tol"
            break
        JTJ = J.T @ J
        # no downhill step at machine precision unless a trial is accepted
        termination = "no_descent"
        while lam <= 1e15:
            # singular (LinAlgError), off-manifold, degenerate: all uphill
            try:
                step = _damped_step(JTJ, JTz, lam)
                trial = row + step @ free_rows
                t_state = _solver_state(trial, prior.free, frame, opts.loss)
            except (ValueError, DegenerateTranslation):
                t_state = (np.inf,)
            if t_state[-1] < energy:
                small_decrease = (energy - t_state[-1]
                                  <= ENERGY_DECREASE_REL_TOL * energy)
                row = trial
                z, J, components, valid, energy = t_state
                lam = max(lam / 3.0, 1e-15)
                termination = None
                if math.hypot(*step) <= STEP_TOL:
                    termination = "step_tol"
                elif small_decrease:
                    termination = "energy_tol"
                break
            lam *= 10.0
    if termination is None:
        termination = "max_iter"

    kept = int(np.count_nonzero(valid))
    # an overflowing J^T J gives inf sigma, not a warning; m: valid rows only
    with np.errstate(all="ignore"):
        gram = (J.T @ J, z @ z, kept * components.shape[1])
    params = prior.with_values(**{f: float(row[0, PARAM_FIELDS.index(f)])
                                  for f in prior.free})
    return EstimateResult(params=params, final_energy=energy,
                          iterations=iterations, termination=termination,
                          residuals=np.where(valid, components[:, 0], np.nan),
                          skipped_matches=len(valid) - kept, gram=gram)


@dataclass(frozen=True)
class LandscapeGrid:
    yaw_range: tuple
    yaw_steps: int
    arc_range: tuple
    arc_steps: int


@dataclass(frozen=True, eq=False)
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
                     metric: MetricKind) -> Landscape:
    """Dense energy evaluation over a yaw x arc-length grid; ValueError
    on a grid that GridSpec rejects."""
    spec = GridSpec({"yaw": (*grid.yaw_range, grid.yaw_steps),
                     "arc_length": (*grid.arc_range, grid.arc_steps)})
    yaws, arcs = (np.linspace(*axis) for axis in spec.axes.values())
    rows = spec.points(fixed.with_values(free=tuple(spec.axes)))
    frame = RigFrame.from_matches(rig, match_sets, metric)
    energies = multi_camera_energy(rows, frame, loss).reshape(len(yaws),
                                                              len(arcs))
    degenerate = ~np.isfinite(energies)
    energies[degenerate] = 0.0
    return Landscape(yaws, arcs, energies, degenerate)


def classify_inliers(result: EstimateResult, threshold: float) -> np.ndarray:
    """Mask of matches whose |residual| is within threshold; skipped
    matches are never inliers."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    with np.errstate(invalid="ignore"):
        return np.abs(result.residuals) <= threshold

"""The names and behaviour the benchmark under `benchmarks/` relies on.

A deletion or signature change that would break the benchmark fails here,
in the test suite, rather than as a failed benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_resolves_and_restores_every_name():
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.restore()


def test_grid_unit_passes_its_checks(tmp_path):
    grid = workloads.Grid()
    inputs = grid.setup(100, tmp_path)
    tally = workloads.Tally()
    grid.check(inputs, grid.unit(inputs, 0), tally)
    assert tally.attempted > 0
    assert tally.failed == 0


def test_grid_unit_records_kernel_spans(tmp_path):
    # the per-layer metrics come from these spans: a kernel that stopped
    # calling a traced name, or passed it something other than the frame
    # pair's matches, would empty or skew them without failing a run
    grid = workloads.Grid()
    inputs = grid.setup(100, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        grid.unit(inputs, 0)
    finally:
        assert tracer.restore()
    table = tracer.arrays()
    for name in ("metrics.angleplane_residuals", "metrics.geoline_residuals",
                 "manifold.multi_camera_energy", "estimator.estimate"):
        assert table.mask(name).any(), name
    # cold starts estimate the batch's pairs in order; the oracles and the
    # landscape evaluate its first pair
    _, pairs = inputs
    matches = [sum(len(s) for s in sets)
               for _, sets in pairs[:workloads.GRID_BATCH]]
    estimates = list(np.flatnonzero(table.mask("estimator.estimate")))
    assert len(estimates) == len(matches)
    residual = (table.mask("metrics.angleplane_residuals")
                | table.mask("metrics.geoline_residuals"))
    for span in np.flatnonzero(residual):
        owner = span
        while owner >= 0 and owner not in estimates:
            owner = table.parents[owner]
        expected = matches[estimates.index(owner)] if owner >= 0 else \
            matches[0]
        assert table.sizes[span] == expected

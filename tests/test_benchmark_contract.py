"""The names and behaviour the benchmark under `benchmarks/` relies on.

A deletion or signature change that would break the benchmark fails here,
in the test suite, rather than as a failed benchmark run.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GATED = [m["name"] for m in
         json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


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


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_unit_measures_every_gated_metric(name, tmp_path):
    # a traced benchmark run fails when any gated per-layer metric reads
    # None, as when the package stops calling a traced name; set-up and
    # the first unit run traced, as in the benchmark's traced loop
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tally = workloads.Tally()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = workload.setup(run.DEFAULT_SEED, str(tmp_path))
        run._unit(workload, inputs, 0, tally, tracer.span)
    finally:
        assert tracer.restore()
    layer, _ = run._per_layer(tracer.arrays(), tally, [(0.0, 1.0, 1)])
    assert [m for m in GATED if layer.get(m) is None] == []
    assert tally.attempted > 0
    assert tally.failed == 0

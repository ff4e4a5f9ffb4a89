"""The names and behaviour the benchmark under `benchmarks/` relies on.

A deletion or signature change that would break the benchmark fails here,
in the test suite, rather than as a failed benchmark run.
"""

import sys
from pathlib import Path

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

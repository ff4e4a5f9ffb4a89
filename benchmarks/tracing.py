"""Span tracing for the traced benchmark run.

The tracer replaces public motionprior functions and methods with timing
wrappers from outside the package, records one span per call (name, start,
end, parent, size) in memory, and puts every original back on `restore()`.
Nothing under `src/` knows about it. End-to-end metrics never come from a
traced run.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from motionprior import (cli, estimator, evaluation, geometry, io_formats,
                         manifold, metrics, pipeline, simulate)

_MODULES = (cli, estimator, evaluation, geometry, io_formats, manifold,
            metrics, pipeline, simulate, sys.modules["motionprior"])


def _rows(args, kwargs, result):
    return len(np.atleast_2d(args[1]))


def _matches(args, kwargs, result):
    return len(args[1])


def _elements(args, kwargs, result):
    return np.size(args[1])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[-1])


def _landscape_cells(args, kwargs, result):
    return result.energies.size


def _oracle_name(args, kwargs):
    metric = kwargs["metric"] if "metric" in kwargs else args[5]
    return "simulate.oracle_" + metric.value


def _oracle_cells(args, kwargs, result):
    resolution = kwargs["resolution"] if "resolution" in kwargs else args[3]
    template = kwargs["template"] if "template" in kwargs else args[6]
    return resolution ** len(template.free)


def _subcommand(args, kwargs):
    return "cli." + args[0][0]


# (owner, attribute, span name, size of the work in one call)
FUNCTIONS = (
    (cli, "run_cli", _subcommand, None),
    (manifold, "pose_from_params", "manifold.pose_from_params", None),
    (manifold, "multi_camera_energy", "manifold.multi_camera_energy", None),
    (metrics, "angleplane_residuals", "metrics.angleplane_residuals",
     _matches),
    (metrics, "geoline_residuals", "metrics.geoline_residuals", _matches),
    (estimator, "estimate", "estimator.estimate", None),
    (estimator, "energy_landscape", "estimator.energy_landscape",
     _landscape_cells),
    (simulate, "generate_matches", "simulate.generate_matches", None),
    (simulate, "grid_search_oracle", _oracle_name, _oracle_cells),
    (pipeline, "match_sets_from_record", "pipeline.match_sets_from_record",
     None),
    (pipeline, "run_sequence", "pipeline.run_sequence", None),
    (pipeline, "simulate_sequence", "pipeline.simulate_sequence", None),
    (io_formats, "load_matches", "io_formats.load_matches", _file_bytes),
    (io_formats, "write_matches", "io_formats.write_matches", _file_bytes),
    (io_formats, "load_rig", "io_formats.load_rig", None),
    (io_formats, "load_trajectory", "io_formats.trajectory_io", None),
    (io_formats, "write_trajectory", "io_formats.trajectory_io", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
)

METHODS = (
    (geometry.PinholeCamera, "pixel_to_bearing",
     "geometry.lift_pinhole", _rows),
    (geometry.GenericCamera, "pixel_to_bearing",
     "geometry.lift_generic", _rows),
    (metrics.RobustLoss, "evaluate", "metrics.RobustLoss.evaluate",
     _elements),
)

# Called ~270 times per frame pair: counted, not timed.
COUNTED = ((geometry.Pose, "__post_init__", "geometry.Pose.__post_init__"),)


class Tracer:
    """In-memory span recorder. Spans are appended when they open, so a
    span's index is smaller than every index of its descendants."""

    def __init__(self):
        self.name_ids = {}
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.sizes = array("q")
        self.stack = []
        self.counts = {}
        self._patches = []

    def _open(self, name):
        index = len(self.names)
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        self.names.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.sizes.append(0)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _timed(self, original, name, size):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name if isinstance(name, str)
                                 else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if size is not None:
                tracer.sizes[index] = size(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, original, name):
        tracer = self

        def wrapper(*args, **kwargs):
            key = (name, tracer.stack[0] if tracer.stack else -1)
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every module-level binding of each traced function (callers
        look names up in their own module) and each traced method."""
        for home, attr, name, size in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._timed(original, name, size)
            for module in _MODULES:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, wrapper)
        for cls, attr, name, size in METHODS:
            self._patch(cls, attr,
                        self._timed(cls.__dict__[attr], name, size))
        for cls, attr, name in COUNTED:
            self._patch(cls, attr, self._counted(cls.__dict__[attr], name))

    def restore(self) -> bool:
        """Put the originals back; True when every one is in place again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(owner.__dict__[attr] is original
                       for owner, attr, original in self._patches)
        self._patches = []
        return restored

    def arrays(self):
        n = len(self.names)
        names = np.frombuffer(self.names, dtype=np.uint16, count=n).copy()
        starts = np.frombuffer(self.starts, dtype=float, count=n).copy()
        ends = np.frombuffer(self.ends, dtype=float, count=n).copy()
        parents = np.frombuffer(self.parents, dtype=np.int64,
                                count=n).copy()
        sizes = np.frombuffer(self.sizes, dtype=np.int64, count=n).copy()
        return SpanTable(dict(self.name_ids), names, starts, ends, parents,
                         sizes, dict(self.counts))


class SpanTable:
    """Recorded spans as arrays, with duration, self time and root span."""

    def __init__(self, name_ids, names, starts, ends, parents, sizes,
                 counts):
        self.name_ids = name_ids
        self.names = names
        self.parents = parents
        self.sizes = sizes
        self.counts = counts
        self.duration = ends - starts
        children = np.zeros(len(names))
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], self.duration[has_parent])
        self.self_time = self.duration - children
        root = np.where(has_parent, parents, np.arange(len(names)))
        while True:
            up = np.where(parents[root] >= 0, parents[root], root)
            if np.array_equal(up, root):
                break
            root = up
        self.root = root

    def mask(self, name):
        if name not in self.name_ids:
            return np.zeros(len(self.names), dtype=bool)
        return self.names == self.name_ids[name]

    def parent_is(self, name):
        """Mask of spans whose direct parent is a span called `name`."""
        has_parent = self.parents >= 0
        out = np.zeros(len(self.names), dtype=bool)
        out[has_parent] = self.mask(name)[self.parents[has_parent]]
        return out

    def count(self, name, root):
        return self.counts.get((name, root), 0)

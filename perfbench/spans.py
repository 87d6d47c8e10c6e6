"""In-memory span recorder for a traced benchmark run.

The recorder wraps swarmfit's public functions by rebinding the names each
module imported (``swarmfit.bench.optimize``, ``swarmfit.pso.step``, ...), so
no source edit is needed.  Every span stores its name, start and end
(``perf_counter_ns``), the span that caused it and the id of the restart it
belongs to (-1 outside a restart).  Spans are kept in flat typed arrays and
written out once, at the end of the run.
"""

from __future__ import annotations

import time
import weakref
from array import array
from contextlib import contextmanager
from functools import partial

import numpy as np

import swarmfit.bench
import swarmfit.cli
import swarmfit.model
import swarmfit.pso


class Tracer:
    """Spans and per-layer counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.restart = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._current_restart = -1
        self.n_restarts = 0
        # Improving / total iterations over traced restarts (OptResult.trace).
        self.useful_iters = 0
        self.iters = 0
        # Cells evaluated by traced objective calls, for the per-cell cost.
        self.cells = 0
        # Decoded phi values seen per dataset: each new value is one miss of
        # the dataset's log-gamma cache.
        self.phis: list[set[int]] = []
        self._dataset_index: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.restart.append(self._current_restart)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_optimize(self, fn):
        traced = self.wrap("pso.optimize", fn)

        def optimize(objective, domain, config):
            self._current_restart = self.n_restarts
            self.n_restarts += 1
            try:
                result = traced(objective, domain, config)
            finally:
                self._current_restart = -1
            trace = result.trace
            self.useful_iters += int(np.count_nonzero(trace[1:] < trace[:-1]))
            self.iters += trace.size - 1
            return result

        return optimize

    def _wrap_make_objective(self, fn):
        make = self.wrap("model.make_objective", fn)
        nid = self._nid("model.objective")
        decode = swarmfit.model.decode_position

        def make_objective(data):
            objective = make(data)
            index = self._dataset_index.get(data)
            if index is None:
                index = self._dataset_index[data] = len(self.phis)
                self.phis.append(set())
            phis = self.phis[index]
            cells = len(data)

            def traced_objective(x):
                idx = self._open(nid)
                try:
                    return objective(x)
                finally:
                    self._close(idx)
                    phis.add(decode(x).phi_g)
                    self.cells += cells

            return traced_objective

        return make_objective

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        patches = [
            (swarmfit.bench, "optimize", self._wrap_optimize),
            (swarmfit.bench, "make_objective", self._wrap_make_objective),
            (swarmfit.bench, "run_restarts", partial(self.wrap, "bench.run_restarts")),
            (swarmfit.bench, "build_domain", partial(self.wrap, "model.build_domain")),
            (swarmfit.bench, "generate_dataset", partial(self.wrap, "simulate.generate_dataset")),
            (swarmfit.bench, "emit_fit_curve", partial(self.wrap, "bench.emit_fit_curve")),
            (swarmfit.cli, "main", partial(self.wrap, "cli.main")),
            (swarmfit.cli, "write_bench_outputs", partial(self.wrap, "bench.write_outputs")),
            (swarmfit.pso, "init_swarm", partial(self.wrap, "pso.init_swarm")),
            (swarmfit.pso, "step", partial(self.wrap, "pso.step")),
            (swarmfit.pso, "select_neighborhood_best", partial(self.wrap, "pso.select_neighborhood_best")),
            (swarmfit.pso, "velocity_update", partial(self.wrap, "pso.velocity_update")),
            (swarmfit.pso, "position_update", partial(self.wrap, "pso.position_update")),
        ]
        saved = []
        try:
            for module, attr, make_wrapper in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make_wrapper(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _columns(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return nid, dur.astype(float), dur - covered

    def layer_metrics(self, traced_ns: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans.

        ``traced_ns`` is the wall time of the traced batches; every share is
        taken of it.  Self time is a span's duration minus the time its
        child spans cover.  Layers not called on a workload read 0.
        """
        nid, dur, self_ns = self._columns()
        per_restart = max(self.n_restarts, 1)

        def select(name):
            return nid == self._ids[name] if name in self._ids else np.zeros(nid.size, bool)

        def calls(name):
            return int(np.count_nonzero(select(name)))

        def total(name, values=dur):
            return float(values[select(name)].sum())

        def mean(name, values=dur):
            n = calls(name)
            return total(name, values) / n if n else 0.0

        update_ns = total("pso.velocity_update") + total("pso.position_update")
        return {
            "model.objective.calls": (calls("model.objective") / per_restart, "count"),
            "model.objective.us_per_call": (mean("model.objective") / 1e3, "us"),
            "model.objective.ns_per_cell": (total("model.objective") / max(self.cells, 1), "ns"),
            "model.objective.share": (total("model.objective") / traced_ns, "fraction"),
            "model.phi_distinct": (
                sum(len(p) for p in self.phis) / max(len(self.phis), 1), "count"),
            "pso.select_neighborhood_best.calls": (
                calls("pso.select_neighborhood_best") / per_restart, "count"),
            "pso.select_neighborhood_best.us_per_call": (
                mean("pso.select_neighborhood_best") / 1e3, "us"),
            "pso.select_neighborhood_best.share": (
                total("pso.select_neighborhood_best") / traced_ns, "fraction"),
            "pso.update.share": (update_ns / traced_ns, "fraction"),
            "pso.step.self_us": (mean("pso.step", self_ns) / 1e3, "us"),
            "pso.init_swarm.self_ms": (mean("pso.init_swarm", self_ns) / 1e6, "ms"),
            "pso.useful_iter_share": (self.useful_iters / max(self.iters, 1), "fraction"),
            "simulate.generate_dataset.ms": (mean("simulate.generate_dataset") / 1e6, "ms"),
            "model.build_domain.ms": (mean("model.build_domain") / 1e6, "ms"),
            "bench.run_restarts.ms_per_restart": (
                total("bench.run_restarts") / 1e6 / per_restart, "ms"),
            "bench.emit_fit_curve.ms": (mean("bench.emit_fit_curve") / 1e6, "ms"),
            "bench.write_outputs.self_ms": (mean("bench.write_outputs", self_ns) / 1e6, "ms"),
            "cli.main.self_ms": (mean("cli.main", self_ns) / 1e6, "ms"),
        }

    def save(self, path) -> None:
        """Write every span as columns of a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            restart=np.frombuffer(self.restart, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

"""In-memory spans around the batchfrag functions the CLI and kernel call.

Tracing is applied from outside the package: :func:`installed` rebinds
every public batchfrag function in the ``batchfrag.cli`` and
``batchfrag.montecarlo`` namespaces to a wrapper that records one span per
call, and restores the originals on exit. Each span carries its name,
parent, start and end; nothing is written while a run is being timed.
:class:`KernelPeaks` uses the same rebinding to take a tracemalloc peak of
every ``trial_recalls`` call.

A span's self time is its duration minus the durations of its children.
Calls are synchronous, so children never overlap and the self times of all
spans under a root add up to the root's duration.
"""

from __future__ import annotations

import inspect
import os
import tracemalloc
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = "bench.workload"


def _count_cell(counts: dict, args: tuple, result) -> None:
    """Work a trial_recalls call defines, computed from its (O, B, Q, n)."""
    config = args[0]
    p = config.params
    o, b, q, n = p.order_size, p.batch_size, p.total_quantity, config.n_trials
    batches = (q + 2 * b - 2) // b  # widest horizon over all initial offsets
    orders = -(-q // o)
    counts["montecarlo.trials"] += n
    counts["seeding.outputs"] += n * (batches + 1)
    counts["montecarlo.order_slots"] += n * orders
    counts["montecarlo.batch_slots"] += n * (batches + 1)


def _count_array_bytes(counts: dict, args: tuple, result) -> None:
    counts["seeding.bytes_computed"] += int(result.nbytes)


def _count_file_bytes(counts: dict, args: tuple, result) -> None:
    counts["report.bytes_written"] += os.path.getsize(result)


# Counters kept at the boundary of the named span, from its arguments and result.
HOOKS = {
    "montecarlo.trial_recalls": _count_cell,
    "seeding.derive_seeds": _count_array_bytes,
    "seeding.stream_outputs": _count_array_bytes,
    "seeding.unit_floats": _count_array_bytes,
    "report.write_sweep": _count_file_bytes,
}
COUNTERS = ("montecarlo.trials", "seeding.outputs", "montecarlo.order_slots",
            "montecarlo.batch_slots", "seeding.bytes_computed",
            "report.bytes_written")


class Tracer:
    """Spans of one workload repetition, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        count = HOOKS.get(name)

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.start.append(0)
            self.end.append(0)
            self._open.append(index)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._open.pop()
                self.start[index] = t0
                self.end[index] = t1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def run(self, body):
        """Run ``body()`` inside the root span and return its result."""
        return self.wrap(ROOT, body)()


class KernelPeaks:
    """tracemalloc peak of every trial_recalls call.

    tracemalloc roughly doubles the cost of a small trial_recalls call, so
    the peaks come from a repetition of their own, apart from the timed ones.
    """

    def __init__(self):
        self.peaks: list[int] = []

    def wrap(self, name: str, fn):
        if name != "montecarlo.trial_recalls":
            return fn

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def run(self, body):
        return body()


@contextmanager
def installed(recorder, modules):
    """Rebind the public batchfrag functions of ``modules`` to the
    recorder's wrappers, and restore them on exit."""
    saved = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("batchfrag.")):
                continue
            name = f"{obj.__module__.removeprefix('batchfrag.')}.{obj.__name__}"
            wrapped = recorder.wrap(name, obj)
            if wrapped is not obj:
                saved.append((module, attr, obj))
                setattr(module, attr, wrapped)
    try:
        yield
    finally:
        for module, attr, obj in reversed(saved):
            setattr(module, attr, obj)


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, total and self seconds, per-layer self seconds, and
    the durations of every call by name, for one repetition."""
    nid = np.frombuffer(tracer.name_id, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = (np.frombuffer(tracer.end, dtype=np.int64)
           - np.frombuffer(tracer.start, dtype=np.int64)).astype(np.float64)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested],
                           minlength=len(dur))
    own = dur - children
    k = len(tracer.names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k) * 1e-9
    self_s = np.bincount(nid, weights=own, minlength=k) * 1e-9
    per_name = {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(tracer.names)}
    layers: dict[str, float] = {}
    for name, row in per_name.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    durations = {name: dur[nid == i] * 1e-9
                 for i, name in enumerate(tracer.names)}
    return {"spans": per_name, "layers": layers, "spans_total": len(dur),
            "wall_s": float(dur[~nested].sum()) * 1e-9,
            "durations": durations}


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """Write every repetition's spans as one compressed .npz of columns."""
    names = sorted({n for t in tracers for n in t.names})
    index = {n: i for i, n in enumerate(names)}
    cols = {"rep": [], "name_id": [], "parent": [], "start_ns": [], "end_ns": []}
    for rep, t in enumerate(tracers):
        remap = np.array([index[n] for n in t.names], dtype=np.int32)
        nid = np.frombuffer(t.name_id, dtype=np.int64)
        cols["rep"].append(np.full(len(nid), rep, dtype=np.int32))
        cols["name_id"].append(remap[nid])
        cols["parent"].append(np.frombuffer(t.parent, dtype=np.int64).astype(np.int32))
        cols["start_ns"].append(np.frombuffer(t.start, dtype=np.int64))
        cols["end_ns"].append(np.frombuffer(t.end, dtype=np.int64))
    np.savez_compressed(path, names=np.array(names),
                        **{k: np.concatenate(v) for k, v in cols.items()})

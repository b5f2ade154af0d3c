"""Spans recorded around the calls into each layer, from the benchmark's side.

For a traced pass the benchmark rebinds the module attributes through
which ``thd.simulate.run`` enters the other layers (the three path
kernels, ``input_digest``, ``checkpoint_write`` and ``aggregate``) and
times ``read_network``, ``build_hypergraph``, ``run`` and
``write_results`` directly. A span is ``[name, start, end, parent,
counts]``; spans stay in memory until the pass ends.

Pool workers are forked with the wrappers in place. A worker keeps its
own spans and writes them to ``spans-<pid>.json`` in the pass's work
directory when it exits, through a multiprocessing finalizer.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from statistics import median

import thd.simulate as simulate
from thd.paths import fastest_departure_candidates

KERNELS = ("foremost", "shortest", "fastest")


class Tracer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if os.getpid() != self.pid:
            self._adopt_worker()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, {}]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec[4]
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _adopt_worker(self) -> None:
        # first span in a forked worker: drop the parent's copy and dump at exit
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        mp_util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        (self.workdir / f"spans-{self.pid}.json").write_text(json.dumps(self.spans))

    def worker_spans(self) -> list[list]:
        out: list[list] = []
        for path in sorted(self.workdir.glob("spans-*.json")):
            out.extend(json.loads(path.read_text()))
            path.unlink()
        return out

    def install(self) -> None:
        """Rebind the layer entry points that ``thd.simulate`` calls."""
        for name in KERNELS:
            setattr(simulate, name, self._kernel(name, getattr(simulate, name)))
        for name in ("input_digest", "aggregate"):
            setattr(simulate, name, self._plain(f"simulate.{name}", getattr(simulate, name)))
        simulate.checkpoint_write = self._checkpoint(simulate.checkpoint_write)

    def _plain(self, span_name, fn):
        def wrapped(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)

        return wrapped

    def _checkpoint(self, fn):
        def wrapped(path, *args, **kwargs):
            with self.span("simulate.checkpoint_write") as counts:
                fn(path, *args, **kwargs)
            counts["bytes"] = os.path.getsize(path)

        return wrapped

    def _kernel(self, name, fn):
        def wrapped(h, *args, **kwargs):
            with self.span(f"paths.{name}") as counts:
                labels = fn(h, *args, **kwargs)
            counts["reached"] = len(labels.values)
            if name == "shortest":
                counts["max_hop"] = max(labels.values.values())
            elif name == "fastest":
                counts["departures"] = len(fastest_departure_candidates(h, labels.t0))
            return labels

        return wrapped


def _duration(span: list) -> float:
    return span[2] - span[1]


def layer_metrics(
    spans: list[list],
    worker_spans: list[list],
    total_s: float,
    file_bytes: int,
    records: int,
    result_bytes: int,
    focus: str,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A layer's self time is its spans' durations minus their direct
    children's, counted in this process only: pool workers run in
    parallel with ``simulate.run``, so their kernel spans feed the
    ``paths.*`` counts and kernel times but no share of ``total_s``.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += _duration(s)
    self_time: dict[str, float] = {}
    for s, inner in zip(spans, child_time):
        self_time[s[0]] = self_time.get(s[0], 0.0) + _duration(s) - inner

    def named(name: str) -> list[list]:
        return [s for s in spans + worker_spans if s[0] == name]

    read_s = self_time["io.read_network"]
    m: dict[str, float] = {
        "io.read_network.s": read_s,
        "io.read_network.mb_per_s": file_bytes / 1e6 / read_s,
        "io.read_network.records": records,
        "core.build_hypergraph.s": self_time["core.build_hypergraph"],
        "simulate.input_digest.s": self_time.get("simulate.input_digest", 0.0),
        "simulate.aggregate.s": self_time.get("simulate.aggregate", 0.0),
        "simulate.run.self_s": self_time["simulate.run"],
        "io.write_results.s": self_time["io.write_results"],
        "io.write_results.bytes": result_bytes,
    }
    kernel_ms = [_duration(s) * 1000 for s in spans + worker_spans if s[0].startswith("paths.")]
    m["paths.kernel.ms_p50"] = median(kernel_ms)
    m["paths.kernel.s"] = sum(kernel_ms) / 1000
    for name in KERNELS:
        calls = named(f"paths.{name}")
        m[f"paths.{name}.calls"] = len(calls)
        m[f"paths.{name}.reached"] = sum(s[4]["reached"] for s in calls)
    m["paths.shortest.max_hop"] = max((s[4]["max_hop"] for s in named("paths.shortest")), default=0)
    m["paths.fastest.departures"] = sum(s[4]["departures"] for s in named("paths.fastest"))
    flushes = named("simulate.checkpoint_write")
    m["simulate.checkpoint_write.calls"] = len(flushes)
    m["simulate.checkpoint_write.bytes"] = sum(s[4]["bytes"] for s in flushes)
    m["simulate.checkpoint_write.share_pct"] = 100 * sum(map(_duration, flushes)) / total_s
    for layer in ("io", "core", "paths", "simulate", "cli"):
        busy = sum(t for name, t in self_time.items() if name.startswith(layer + "."))
        m[f"{layer}.share_pct"] = 100 * busy / total_s
    m["focus.share_pct"] = 100 * sum(t for name, t in self_time.items() if name.startswith(focus)) / total_s
    return m

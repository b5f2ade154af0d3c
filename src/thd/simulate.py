"""All-sources diffusion runs: planning, execution, aggregation, checkpoints.

Work is partitioned per source (embarrassingly parallel); the hypergraph
is shared read-only, and handed to pool workers as they fork. Per-source
results are merged in source-id order, so serialized output is
byte-identical for any parallelism degree; the summary counts each
metric's label values instead of pooling them. Long runs append completed
sources, encoded by ``io.source_doc``, to a log bound to the exact input
and plan by digest. Each record carries its own hash, so a flush writes
only the sources completed since the last one, and a torn record is
dropped on resume. Pool workers send source documents, and resume reads
the log one record at a time, refusing as corrupt a record that does not
fit the plan and network; one decoder turns either kind of document into
labels made of the network's own objects.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import threading
import time
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from . import __version__
from .core import Tick, TimeVaryingHypergraph
from .errors import CheckpointMismatch, CorruptCheckpoint, PlanInvalid
from .io import canonical_json_bytes, entry_labels, source_doc
from .paths import (
    METRIC_ORDER,
    DistanceLabels,
    Metric,
    fastest,
    foremost,
    shortest,
)

log = logging.getLogger("thd.simulate")

CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class SimulationPlan:
    """What to run and how.

    ``sources=None`` means every vertex; an explicit tuple selects those
    vertices (duplicates are rejected); ``sample_size`` draws a seeded
    sample instead. ``t0=None`` starts each source at its earliest
    incident edge start; a fixed tick applies to all sources. ``horizon``
    discards arrivals beyond it. ``parallelism`` and the checkpoint
    settings never affect result bytes.
    """

    metrics: tuple[Metric, ...] = (Metric.FOREMOST,)
    sources: tuple[str, ...] | None = None
    sample_size: int | None = None
    sample_seed: int = 0
    t0: Tick | None = None
    max_hops: int | None = None
    horizon: Tick | None = None
    keep_predecessors: bool = False
    parallelism: int = 1
    checkpoint_path: str | None = None
    checkpoint_interval: int = 25

    def to_document(self) -> dict:
        """Canonical form of the result-affecting fields; digest input."""
        if self.sources is not None:
            source_spec: object = {"explicit": sorted(self.sources)}
        elif self.sample_size is not None:
            source_spec = {"sample_size": self.sample_size, "sample_seed": self.sample_seed}
        else:
            source_spec = "all"
        return {
            "metrics": [m.value for m in self.metrics],
            "sources": source_spec,
            "t0": "earliest" if self.t0 is None else self.t0,
            "max_hops": self.max_hops,
            "horizon": self.horizon,
            "keep_predecessors": self.keep_predecessors,
        }


@dataclass(frozen=True)
class DiffusionResult:
    """Per-source labels (ordered by source id, then metric) plus summary.

    The labels are the only per-source form kept; ``io.write_results``
    builds the result document from them.
    """

    labels: tuple[DistanceLabels, ...]
    summary: dict
    provenance: dict


def validate_plan(h: TimeVaryingHypergraph, plan: SimulationPlan) -> None:
    """Raise PlanInvalid unless the plan is executable against this network."""
    if not plan.metrics:
        raise PlanInvalid("no metrics selected")
    if len(set(plan.metrics)) != len(plan.metrics):
        raise PlanInvalid("duplicate metrics")
    for m in plan.metrics:
        if not isinstance(m, Metric):
            raise PlanInvalid(f"unknown metric {m!r}")
    if plan.sources is not None and plan.sample_size is not None:
        raise PlanInvalid("explicit sources and sample are mutually exclusive")
    if plan.sources is not None:
        if len(set(plan.sources)) != len(plan.sources):
            raise PlanInvalid("duplicate sources in explicit list")
        for s in plan.sources:
            if s not in h:
                raise PlanInvalid(f"source {s!r} not in network")
    if plan.sample_size is not None:
        if plan.sample_size < 0 or plan.sample_size > h.vertex_count:
            raise PlanInvalid(
                f"sample_size {plan.sample_size} outside [0, {h.vertex_count}]"
            )
    if plan.max_hops is not None and plan.max_hops < 1:
        raise PlanInvalid(f"max_hops must be >= 1, got {plan.max_hops}")
    if plan.parallelism < 1:
        raise PlanInvalid(f"parallelism must be >= 1, got {plan.parallelism}")
    if plan.checkpoint_interval < 1:
        raise PlanInvalid("checkpoint_interval must be >= 1")
    if plan.horizon is not None:
        for s in resolve_sources(h, plan):
            t0 = resolve_t0(h, plan, s)
            if plan.horizon < t0:
                raise PlanInvalid(
                    f"horizon {plan.horizon} precedes t0 {t0} of source {s!r}"
                )


def resolve_sources(h: TimeVaryingHypergraph, plan: SimulationPlan) -> list[str]:
    """Planned sources in source-id order (the merge order)."""
    if plan.sources is not None:
        return sorted(plan.sources)
    if plan.sample_size is not None:
        import random

        rng = random.Random(plan.sample_seed)
        return sorted(rng.sample(list(h.vertex_ids), plan.sample_size))
    return list(h.vertex_ids)


def resolve_t0(h: TimeVaryingHypergraph, plan: SimulationPlan, source: str) -> Tick:
    if plan.t0 is not None:
        return plan.t0
    # incidence is start-sorted, and every vertex joins some edge
    return h.edge_starts[h.incidence[h.index_of(source)][0]]


def input_digest(h: TimeVaryingHypergraph) -> str:
    """Content hash of the network, independent of edge input order.

    SHA-256 of each edge's compact ``json.dumps([id, sorted(participants),
    start, end], ensure_ascii=False)`` in id order, which is index order,
    built by hand (member indexes sort as ids do) and hashed a slice of
    edges at a time; only the vertex ids are encoded all at once.
    """
    names = [encode_basestring(v) for v in h.vertex_ids]
    ids, starts, ends, members = h.edge_ids, h.edge_starts, h.edge_ends, h.edge_members
    digest = hashlib.sha256()
    for lo in range(0, len(ids), 4096):
        rows = (f'[{encode_basestring(ids[i])},[{",".join([names[v] for v in members[i]])}],'
                f"{starts[i]},{ends[i]}]" for i in range(lo, min(lo + 4096, len(ids))))
        digest.update("".join(rows).encode("utf-8"))
    return digest.hexdigest()


def plan_digest(plan: SimulationPlan) -> str:
    return hashlib.sha256(canonical_json_bytes(plan.to_document())).hexdigest()


# --------------------------------------------------------------------------
# per-source computation
# --------------------------------------------------------------------------


def compute_labels(
    h: TimeVaryingHypergraph, plan: SimulationPlan, source: str
) -> dict[Metric, DistanceLabels]:
    """Labels of every planned metric from one source, in ``METRIC_ORDER``.

    The plan is not validated. The only place a metric selects its kernel.
    The kernels are looked up as module attributes at call time, so a
    caller may rebind them.
    """
    t0 = resolve_t0(h, plan, source)
    keep = plan.keep_predecessors
    out: dict[Metric, DistanceLabels] = {}
    for m in sorted(plan.metrics, key=METRIC_ORDER.index):
        if m is Metric.FOREMOST:
            out[m] = foremost(h, source, t0, plan.horizon, keep)
        elif m is Metric.SHORTEST:
            hops = plan.max_hops if plan.max_hops is not None else h.vertex_count
            out[m] = shortest(h, source, t0, hops, plan.horizon, keep)
        else:
            out[m] = fastest(h, source, t0, plan.horizon, keep)
    return out


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def checkpoint_write(
    path: str | Path,
    in_digest: str,
    p_digest: str,
    docs: Mapping[str, dict],
) -> None:
    """Persist a batch of completed source documents, one hashed record each.

    A record is one line: the SHA-256 hex of its canonical JSON, a space,
    then that JSON (which ends in the newline). When no file exists at
    ``path``, the header and the batch go to a temp file that is fsynced
    and renamed into place, and the directory is fsynced after the rename,
    so the file never exists without a record and survives a crash once
    written. Otherwise the batch is appended and fsynced; the caller has
    checked the existing log as ``run`` does on resume.
    """
    records = []
    for s in sorted(docs):
        body = canonical_json_bytes(docs[s])
        records.append(hashlib.sha256(body).hexdigest().encode("ascii") + b" " + body)
    path = Path(path)
    fresh = not path.exists()
    target = path.with_name(path.name + ".tmp") if fresh else path
    with open(target, "wb" if fresh else "ab") as fh:
        if fresh:
            header = {"kind": "thd-checkpoint", "version": CHECKPOINT_VERSION,
                      "input_digest": in_digest, "plan_digest": p_digest}
            fh.write(canonical_json_bytes(header))
        fh.write(b"".join(records))
        fh.flush()
        os.fsync(fh.fileno())
    if fresh:
        os.replace(target, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def _decoder(h: TimeVaryingHypergraph, plan: SimulationPlan) -> Callable[[dict], dict]:
    """The one decoder, for the pool and the log, of a ``source_doc`` into labels made of the
    network's own objects. Its tick table holds only starts for a values-only plan (every
    foremost value is a start or ``t0``); with predecessors, also ends and edge ids."""
    own = {v: v for v in h.vertex_ids}
    keys = (*h.edge_ends, *h.edge_starts, *h.edge_ids) if plan.keep_predecessors else h.edge_starts
    shared = {x: x for x in keys}
    metrics = sorted(plan.metrics, key=METRIC_ORDER.index)

    def decode(doc: dict) -> dict[Metric, DistanceLabels]:
        source, t0, entries = own[doc["source"]], shared.get(doc["t0"], doc["t0"]), doc["metrics"]
        return {m: entry_labels(own, shared, source, t0, m, entries[m.value]) for m in metrics}

    return decode


def _resume(
    h: TimeVaryingHypergraph, plan: SimulationPlan, sources: Sequence[str], in_digest: str, p_digest: str
) -> dict[str, dict[Metric, DistanceLabels]]:
    """Labels of the sources already complete in the log at ``plan.checkpoint_path``.

    The log is read, checked and decoded one record at a time. A log for another
    input or plan raises CheckpointMismatch; a bad header, or a complete record
    that fails its hash, repeats a source or does not fit the plan and the network,
    raises CorruptCheckpoint. Bytes after the last newline are a record torn by a
    crash: they are truncated away, so that later appends start on a record boundary.
    """
    path = plan.checkpoint_path
    decode = _decoder(h, plan)
    planned = set(sources)
    keep = plan.keep_predecessors
    done: dict[str, dict[Metric, DistanceLabels]] = {}
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.strip() and not fh.read().strip():
            raise CorruptCheckpoint(f"{path}: empty checkpoint file")
        try:  # the header is the first line, newline included
            header = json.loads(line[: line.find(b"\n") + 1])
        except ValueError as exc:
            raise CorruptCheckpoint(f"{path}: unreadable header: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != "thd-checkpoint":
            raise CorruptCheckpoint(f"{path}: not a checkpoint file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CorruptCheckpoint(f"{path}: unsupported version {header.get('version')!r}")
        if not all(isinstance(header.get(k), str) for k in ("input_digest", "plan_digest")):
            raise CorruptCheckpoint(f"{path}: header lacks its input and plan digests")
        if header["input_digest"] != in_digest:
            raise CheckpointMismatch(f"{path}: checkpoint was written for a different input")
        if header["plan_digest"] != p_digest:
            raise CheckpointMismatch(f"{path}: checkpoint was written for a different plan")
        for line in fh:
            pos = fh.tell() - len(line)
            if not line.endswith(b"\n"):
                os.truncate(path, pos)
                log.warning("checkpoint: dropped a torn tail of %d bytes (1 incomplete record)",
                            len(line))
                break
            digest, _, body = line.partition(b" ")
            if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
                raise CorruptCheckpoint(f"{path}: record hash mismatch at byte {pos}")
            try:
                doc = json.loads(body)
                source, t0, entries = doc["source"], doc["t0"], doc["metrics"]
                if type(source) is not str or source not in planned:
                    raise ValueError(f"source {source!r} is not planned")
                if source in done:
                    raise CorruptCheckpoint(f"{path}: duplicate record for source {source!r}")
                if type(t0) is not int or t0 != resolve_t0(h, plan, source):
                    raise ValueError(f"t0 {t0!r} is not the planned t0 of source {source!r}")
                if entries.keys() != {m.value for m in plan.metrics}:
                    raise ValueError(f"metrics {sorted(entries)} are not the planned ones")
                for m in plan.metrics:  # predecessors iff kept; witnesses too, but not foremost's
                    witnessed = keep and m is not Metric.FOREMOST
                    for key, kept in (("predecessors", keep), ("witnesses", witnessed)):
                        if (entries[m.value].get(key) is not None) != kept:
                            raise ValueError(f"{m.value} entry {'lacks' if kept else 'carries'} {key}")
                done[source] = decode(doc)
            except ValueError as exc:  # a source document that does not fit
                raise CorruptCheckpoint(f"{path}: bad record at byte {pos}: {exc}") from None
            except (AttributeError, KeyError, TypeError) as exc:  # not a source document
                raise CorruptCheckpoint(f"{path}: bad record at byte {pos}: {exc!r}") from None
    log.info("checkpoint: %d of %d sources already complete", len(done), len(sources))
    return done


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


def nearest_rank(counts: Mapping[int, int], percentile: int) -> int:
    """Nearest-rank percentile (1-based rank) of a multiset given as value -> count."""
    values = sorted(counts)
    running = list(accumulate(counts[x] for x in values))
    return values[bisect_left(running, max(1, -(-percentile * running[-1] // 100)))]


def aggregate(
    label_sets: Sequence[Mapping[Metric, DistanceLabels]], vertex_count: int
) -> dict:
    """Summary statistics as a pure function of the per-source labels.

    Per source: reached count (label map size) and reachability ratio.
    Network level: p50/p90/p99 by nearest rank over the multiset of label
    values per metric, one ``Counter`` each, null when nothing was reached.
    """
    seen = set()
    per_source = []
    counts: dict[Metric, Counter[int]] = {}
    for labels in label_sets:
        entry: dict = {"source": None, "reached": {}, "ratio": {}}
        for m in METRIC_ORDER:
            if m not in labels:
                continue
            lab = labels[m]
            entry["source"] = lab.source
            entry["reached"][m.value] = len(lab.values)
            entry["ratio"][m.value] = len(lab.values) / vertex_count if vertex_count else 0.0
            counts.setdefault(m, Counter()).update(lab.values.values())
        if labels and entry["source"] in seen:
            raise PlanInvalid(f"conflicting label sets for source {entry['source']!r}")
        seen.add(entry["source"])
        per_source.append(entry)

    quantiles = {
        m.value: {f"p{p}": nearest_rank(c, p) for p in (50, 90, 99)} if c else None
        for m, c in counts.items()
    }
    return {
        "vertex_count": vertex_count,
        "per_source": per_source,
        "quantiles": quantiles,
    }


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

_WORKER_STATE: tuple[TimeVaryingHypergraph, SimulationPlan] | None = None  # pool workers only


def _source_doc(source: str) -> dict:
    """A pool worker's ``source_doc`` of one source, on the network and plan it was given."""
    return source_doc(compute_labels(*_WORKER_STATE, source).values())


def _init_worker(parent: int, h: TimeVaryingHypergraph, plan: SimulationPlan) -> None:
    """Pool initializer: keep the network and plan for ``_source_doc`` (a fork
    passes them without pickling), and exit once ``parent`` is gone instead of
    idling on, since a killed parent cannot shut its pool down."""
    global _WORKER_STATE
    _WORKER_STATE = (h, plan)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _source_labels(
    h: TimeVaryingHypergraph, plan: SimulationPlan, todo: Sequence[str]
) -> Iterator[dict[Metric, DistanceLabels]]:
    """Yield the labels of each source of ``todo`` in order, on a fork pool when parallel.

    Every source goes to the pool up front: one per task if the plan keeps
    predecessors, whose hops and walks outgrow a label count, else in runs
    of at most 16k labels and at least four per worker. Results come back
    in source order, so callers see the same sequence for any parallelism.
    """
    workers = min(plan.parallelism, len(todo))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
        per_run = 1 if plan.keep_predecessors else 2**14 // (h.vertex_count * len(plan.metrics))
        chunk = max(1, min(per_run, len(todo) // (4 * workers)))
        with ProcessPoolExecutor(
            workers, ctx, initializer=_init_worker, initargs=(os.getpid(), h, plan)
        ) as pool:
            yield from map(_decoder(h, plan), pool.map(_source_doc, todo, chunksize=chunk))
    else:
        yield from (compute_labels(h, plan, source) for source in todo)


def run(
    h: TimeVaryingHypergraph,
    plan: SimulationPlan,
    progress: Callable[[str], None] | None = None,
) -> DiffusionResult:
    """Execute the plan and return the aggregated result.

    Output is deterministic for any parallelism degree. When the plan
    names a checkpoint path, completed sources are flushed there at the
    configured interval and an existing compatible checkpoint short-cuts
    recomputation; an incompatible one raises CheckpointMismatch rather
    than mixing results. Sources are recorded in source-id order whatever
    the parallelism, and each flush appends the sources completed since
    the previous one, so the log always holds a source-order prefix.
    Sources are kept as labels; a flush builds documents for its own batch.
    ``progress`` is invoked once per freshly computed source.
    """
    validate_plan(h, plan)
    sources = resolve_sources(h, plan)
    in_digest = input_digest(h)
    p_digest = plan_digest(plan)

    ck = plan.checkpoint_path
    done = _resume(h, plan, sources, in_digest, p_digest) if ck and Path(ck).exists() else {}

    todo = [s for s in sources if s not in done]
    flushed = 0
    # closing() shuts the pool down at once when the loop body raises
    with closing(_source_labels(h, plan, todo)) as stream:
        for n, (source, labels) in enumerate(zip(todo, stream), 1):
            done[source] = labels
            if progress is not None:
                progress(source)
            if ck and (n % plan.checkpoint_interval == 0 or n == len(todo)):
                docs = {s: source_doc(done[s].values()) for s in todo[flushed:n]}
                checkpoint_write(ck, in_digest, p_digest, docs)
                flushed = n

    label_sets = [done[s] for s in sources]
    summary = aggregate(label_sets, h.vertex_count)
    provenance = {
        "input_digest": in_digest,
        "plan": plan.to_document(),
        "tool_version": __version__,
    }
    flat = tuple(lab for labels in label_sets for lab in labels.values())
    return DiffusionResult(flat, summary, provenance)

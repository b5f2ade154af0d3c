"""All-sources diffusion runs: planning, execution, aggregation, checkpoints.

Work is partitioned per source (embarrassingly parallel); the hypergraph
is shared read-only and per-source results are merged in source-id order,
so serialized output is byte-identical for any parallelism degree. Long
runs append completed sources to a checkpoint log bound to the exact
input and plan by digest. Each record carries its own hash, so a flush
writes only the sources completed since the last one, and a record torn
by a crash is dropped on resume. A resumed run decodes completed sources
from their records and refuses to mix anything else.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .core import Tick, TimeVaryingHypergraph
from .errors import CheckpointMismatch, CorruptCheckpoint, PlanInvalid
from .io import canonical_json_bytes
from .paths import (
    METRIC_ORDER,
    DistanceLabels,
    Metric,
    TemporalWalk,
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
    incident edge start (vertices with no edges start at 0), a fixed tick
    applies to all sources. ``horizon`` discards arrivals beyond it.
    ``parallelism`` and the checkpoint settings never affect result bytes.
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

    The labels are the only per-source form kept; ``to_document`` builds
    each source's document from them on every call.
    """

    labels: tuple[DistanceLabels, ...]
    summary: dict
    provenance: dict

    def to_document(self) -> dict:
        return {
            "schema": 1,
            "kind": "thd-result",
            "provenance": self.provenance,
            "sources": [_source_doc(g) for _, g in groupby(self.labels, attrgetter("source"))],
            "summary": self.summary,
        }


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
    vi = h.index_of(source)
    inc = h.incidence[vi]
    if not inc:
        return 0
    return min(h.edge_starts[ei] for ei in inc)


def input_digest(h: TimeVaryingHypergraph) -> str:
    """Content hash of the network, independent of edge input order.

    SHA-256 of each edge's compact ``json.dumps([id, sorted(participants),
    start, end], ensure_ascii=False)`` in id order, built by hand (member
    indexes sort as ids do) and hashed a slice of edges at a time.
    """
    names = [encode_basestring(v) for v in h.vertex_ids]
    ids = [e.id for e in h.edges]
    starts, ends, members = h.edge_starts, h.edge_ends, h.edge_members
    order = sorted(range(len(ids)), key=ids.__getitem__)
    digest = hashlib.sha256()
    for lo in range(0, len(order), 4096):
        rows = (f'[{encode_basestring(ids[i])},[{",".join([names[v] for v in members[i]])}],'
                f"{starts[i]},{ends[i]}]" for i in order[lo : lo + 4096])
        digest.update("".join(rows).encode("utf-8"))
    return digest.hexdigest()


def plan_digest(plan: SimulationPlan) -> str:
    return hashlib.sha256(canonical_json_bytes(plan.to_document())).hexdigest()


# --------------------------------------------------------------------------
# per-source computation and its serialized form
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


def walk_doc(walk: TemporalWalk) -> dict:
    """JSON form of a witness walk, as result files and ``thd query --json`` carry it."""
    return {
        "departure": walk.departure,
        "hops": [[e, v] for e, v in walk.hops],
        "arrivals": list(walk.arrivals),
    }


def _source_doc(labels: Iterable[DistanceLabels]) -> dict:
    """One source's document, as result files and checkpoint records carry it.

    Built from that source's labels, one per metric, which give ``source``
    and ``t0``; the document shares each values map instead of copying it.
    """
    metrics_doc: dict[str, dict] = {}
    for lab in labels:
        entry: dict = {"values": lab.values}
        if lab.predecessors is not None:
            entry["predecessors"] = {v: list(p) for v, p in lab.predecessors.items()}
        if lab.witnesses is not None:
            entry["witnesses"] = {v: walk_doc(w) for v, w in lab.witnesses.items()}
        metrics_doc[lab.metric.value] = entry
    return {"source": lab.source, "t0": lab.t0, "metrics": metrics_doc}


def _labels_from_doc(doc: dict) -> dict[Metric, DistanceLabels]:
    """Decode a checkpoint record; a resumed source exists only in this form."""
    source = doc["source"]
    t0 = doc["t0"]
    out: dict[Metric, DistanceLabels] = {}
    for m in sorted(map(Metric, doc["metrics"]), key=METRIC_ORDER.index):
        entry = doc["metrics"][m.value]
        preds = entry.get("predecessors")
        walks = entry.get("witnesses")
        out[m] = DistanceLabels(
            source, t0, m, entry["values"],
            None if preds is None else {v: tuple(p) for v, p in preds.items()},
            None if walks is None else {
                v: TemporalWalk(source, w["departure"], tuple(map(tuple, w["hops"])),
                                tuple(w["arrivals"]))
                for v, w in walks.items()
            },
        )
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
    and renamed into place, so the file never exists without a record.
    Otherwise the batch is appended and fsynced; the caller has checked
    the existing header with ``checkpoint_load``.
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
            header = {
                "kind": "thd-checkpoint",
                "version": CHECKPOINT_VERSION,
                "input_digest": in_digest,
                "plan_digest": p_digest,
            }
            fh.write(canonical_json_bytes(header))
        fh.write(b"".join(records))
        fh.flush()
        os.fsync(fh.fileno())
    if fresh:
        os.replace(target, path)


def _checkpoint_scan(path: str | Path) -> tuple[str, str, dict[str, dict], int, int]:
    """Parse a checkpoint log.

    Returns (input digest, plan digest, source docs, end offset of the
    last complete record, file size). Bytes after the last newline are an
    incomplete record torn by a crash and are left out of the docs.
    """
    raw = Path(path).read_bytes()
    if not raw.strip():
        raise CorruptCheckpoint(f"{path}: empty checkpoint file")
    pos = raw.find(b"\n") + 1
    try:
        header = json.loads(raw[:pos])
    except ValueError as exc:
        raise CorruptCheckpoint(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict) or header.get("kind") != "thd-checkpoint":
        raise CorruptCheckpoint(f"{path}: not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported version {header.get('version')!r}")
    if not all(isinstance(header.get(k), str) for k in ("input_digest", "plan_digest")):
        raise CorruptCheckpoint(f"{path}: header lacks its input and plan digests")
    docs: dict[str, dict] = {}
    while (end := raw.find(b"\n", pos) + 1) > 0:
        digest, _, body = raw[pos:end].partition(b" ")
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
            raise CorruptCheckpoint(f"{path}: record hash mismatch at byte {pos}")
        try:
            doc = json.loads(body)
            source = doc["source"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptCheckpoint(f"{path}: bad record at byte {pos}: {exc}") from None
        if source in docs:
            raise CorruptCheckpoint(f"{path}: duplicate record for source {source!r}")
        docs[source] = doc
        pos = end
    return header["input_digest"], header["plan_digest"], docs, pos, len(raw)


def checkpoint_load(path: str | Path) -> tuple[str, str, dict[str, dict]]:
    """Read a checkpoint; returns (input digest, plan digest, source docs).

    An incomplete final record (a torn tail) is dropped. Raises
    CorruptCheckpoint when the file is empty, has an unreadable,
    unsupported or digest-less header, or holds a complete record that fails its hash,
    does not parse, or repeats a source.
    """
    in_digest, p_digest, docs, _, _ = _checkpoint_scan(path)
    return in_digest, p_digest, docs


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


def nearest_rank(sorted_values: Sequence[int], percentile: int) -> int:
    """Nearest-rank percentile of an ascending sequence (1-based rank)."""
    n = len(sorted_values)
    rank = max(1, -(-percentile * n // 100))
    return sorted_values[rank - 1]


def aggregate(
    label_sets: Sequence[Mapping[Metric, DistanceLabels]], vertex_count: int
) -> dict:
    """Summary statistics as a pure function of the per-source labels.

    Per source: reached count (label map size) and reachability ratio.
    Network level: p50/p90/p99 by nearest rank over the pooled multiset of
    label values per metric, null when nothing was reached.
    """
    seen = set()
    per_source = []
    pooled: dict[Metric, list[int]] = {}
    for labels in label_sets:
        entry: dict = {"source": None, "reached": {}, "ratio": {}}
        for m in METRIC_ORDER:
            if m not in labels:
                continue
            lab = labels[m]
            entry["source"] = lab.source
            entry["reached"][m.value] = len(lab.values)
            entry["ratio"][m.value] = len(lab.values) / vertex_count if vertex_count else 0.0
            pooled.setdefault(m, []).extend(lab.values.values())
        if labels and entry["source"] in seen:
            raise PlanInvalid(f"conflicting label sets for source {entry['source']!r}")
        seen.add(entry["source"])
        per_source.append(entry)

    quantiles: dict[str, dict | None] = {}
    for m, values in pooled.items():
        if not values:
            quantiles[m.value] = None
            continue
        values.sort()
        quantiles[m.value] = {
            "p50": nearest_rank(values, 50),
            "p90": nearest_rank(values, 90),
            "p99": nearest_rank(values, 99),
        }
    return {
        "vertex_count": vertex_count,
        "per_source": per_source,
        "quantiles": quantiles,
    }


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

_WORKER_STATE: tuple[TimeVaryingHypergraph, SimulationPlan] | None = None


def _compute_labels(source: str) -> dict[Metric, DistanceLabels]:
    """One source's labels as ``compute_labels`` returns them; no document is built."""
    assert _WORKER_STATE is not None
    h, plan = _WORKER_STATE
    return compute_labels(h, plan, source)


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: a killed parent cannot shut its pool down, so each
    worker exits by itself once ``parent`` is gone instead of idling on."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _source_labels(
    h: TimeVaryingHypergraph, plan: SimulationPlan, todo: Sequence[str]
) -> Iterator[dict[Metric, DistanceLabels]]:
    """Yield the labels of each source of ``todo`` in order, on a fork pool when parallel.

    All sources are submitted to the pool up front; results come back in
    submission order, so callers see the same sequence for any parallelism.
    """
    global _WORKER_STATE
    _WORKER_STATE = (h, plan)
    try:
        workers = min(plan.parallelism, len(todo))
        if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                workers, ctx, initializer=_exit_with_parent, initargs=(os.getpid(),)
            ) as pool:
                yield from pool.map(_compute_labels, todo)
        else:
            yield from map(_compute_labels, todo)
    finally:
        _WORKER_STATE = None


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
    done: dict[str, dict[Metric, DistanceLabels]] = {}
    if ck and Path(ck).exists():
        ck_in, ck_plan, docs, good_end, size = _checkpoint_scan(ck)
        if ck_in != in_digest:
            raise CheckpointMismatch(f"{ck}: checkpoint was written for a different input")
        if ck_plan != p_digest:
            raise CheckpointMismatch(f"{ck}: checkpoint was written for a different plan")
        if good_end < size:
            # later appends must start on a record boundary
            os.truncate(ck, good_end)
            log.warning(
                "checkpoint: dropped a torn tail of %d bytes (1 incomplete record)",
                size - good_end,
            )
        planned = set(sources)
        # each record is decoded once, here, and its document dropped
        done = {s: _labels_from_doc(docs.pop(s)) for s in list(docs) if s in planned}
        log.info("checkpoint: %d of %d sources already complete", len(done), len(sources))

    todo = [s for s in sources if s not in done]
    flushed = 0
    # closing() shuts the pool down at once when the loop body raises
    with closing(_source_labels(h, plan, todo)) as stream:
        for n, (source, labels) in enumerate(zip(todo, stream), 1):
            done[source] = labels
            if progress is not None:
                progress(source)
            if ck and (n % plan.checkpoint_interval == 0 or n == len(todo)):
                docs = {s: _source_doc(done[s].values()) for s in todo[flushed:n]}
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

"""Exhaustive walk enumeration: ground truth for the path algorithms.

Deliberately dumb. Every feasible temporal walk up to a hop budget is
generated by depth-first search with no memoization or pruning beyond
feasibility itself, and the per-vertex minima are folded from the stream.
Minimal labels are always attained by simple walks, so a budget of
``|V|`` hops is enough for exact answers; anything beyond desk scale
(roughly a dozen edges) is out of scope by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import Tick, TimeVaryingHypergraph
from .errors import InfeasibleWalk
from .paths import (
    DistanceLabels,
    Metric,
    TemporalWalk,
    fastest,
    foremost,
    reconstruct_walk,
    shortest,
    validate_walk,
    walk_metric_value,
)


@dataclass(frozen=True)
class OracleResult:
    """Per-vertex minima with one witness walk per metric."""

    source: str
    t0: Tick
    foremost: Mapping[str, Tick]
    hops: Mapping[str, int]
    duration: Mapping[str, Tick]
    foremost_witness: Mapping[str, TemporalWalk]
    hops_witness: Mapping[str, TemporalWalk]
    duration_witness: Mapping[str, TemporalWalk]


def enumerate_walks(
    h: TimeVaryingHypergraph, source: str, t0: Tick, max_hops: int
) -> Iterator[TemporalWalk]:
    """Yield every feasible walk from ``(source, t0)`` with at most ``max_hops`` hops.

    Depth-first preorder, each walk exactly once. Children are explored in
    (edge id, via-vertex id) order, so the stream is deterministic. Hops
    that re-select the vertex just entered are skipped: they never change
    any metric. Revisiting earlier vertices is allowed.
    """
    for _, hops, arrivals, _, _ in _walk_states(h, source, t0, max_hops):
        yield TemporalWalk(source, t0, hops, arrivals)


_WalkState = tuple[int, tuple[tuple[str, str], ...], tuple[Tick, ...], float, float]


def _walk_states(
    h: TimeVaryingHypergraph, source: str, t0: Tick, max_hops: int
) -> Iterator[_WalkState]:
    """:func:`enumerate_walks` as raw states ``(terminus index, hops, arrivals,
    max start, min end)``; the last two are ``(-inf, inf)`` for the empty walk."""
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    src = h.index_of(source)
    ids = h.vertex_ids
    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members

    stack: list[_WalkState] = [(src, (), (), float("-inf"), float("inf"))]
    while stack:
        state = stack.pop()
        yield state
        u, hops, arrivals, max_start, min_end = state
        if len(hops) >= max_hops:
            continue
        now = arrivals[-1] if arrivals else t0
        pushed: list[_WalkState] = []
        for ei in sorted(h.incidence[u]):  # edge id order, the DFS child order
            if ends[ei] < now:
                continue
            arr = now if now >= starts[ei] else starts[ei]
            eid = h.edge_ids[ei]
            hi = max_start if max_start >= starts[ei] else starts[ei]
            lo = min_end if min_end <= ends[ei] else ends[ei]
            for v in members[ei]:
                if v == u:
                    continue
                pushed.append((v, hops + ((eid, ids[v]),), arrivals + (arr,), hi, lo))
        stack.extend(reversed(pushed))


def oracle_distances(
    h: TimeVaryingHypergraph, source: str, t0: Tick, max_hops: int, horizon: Tick | None = None
) -> OracleResult:
    """Fold the walk stream into exact per-vertex minima for all three metrics.

    Witnesses keep the first walk (in enumeration order) attaining each
    final minimum, so results are deterministic. With a ``horizon``, walks
    whose final arrival lies past it are dropped. A walk's best departure
    for duration never changes its final arrival, so the duration needs no
    other change.
    """
    foremost: dict[str, Tick] = {}
    hops: dict[str, int] = {}
    duration: dict[str, Tick] = {}
    w_fore: dict[str, TemporalWalk] = {}
    w_hops: dict[str, TemporalWalk] = {}
    w_dur: dict[str, TemporalWalk] = {}

    ids = h.vertex_ids
    inf = float("inf")

    for u, walk_hops, arrivals, max_start, min_end in _walk_states(h, source, t0, max_hops):
        v = ids[u]
        arr = arrivals[-1] if arrivals else t0
        if horizon is not None and arr > horizon:
            continue
        if arr < foremost.get(v, inf):
            foremost[v] = arr
            w_fore[v] = TemporalWalk(source, t0, walk_hops, arrivals)
        k = len(walk_hops)
        if k < hops.get(v, inf):
            hops[v] = k
            w_hops[v] = TemporalWalk(source, t0, walk_hops, arrivals)
        # departing at tau arrives at max(tau, max start) while tau <= min end,
        # so min(max start, min end) is the best departure unless max start
        # < t0; re-timed to tau, each arrival becomes max(tau, arrival)
        tau = t0 if max_start < t0 else min(max_start, min_end)
        dur = max_start - tau if max_start > tau else 0
        if dur < duration.get(v, inf):
            duration[v] = dur
            retimed = tuple(a if a >= tau else tau for a in arrivals)
            w_dur[v] = TemporalWalk(source, tau, walk_hops, retimed)

    return OracleResult(
        source=source,
        t0=t0,
        foremost=foremost,
        hops=hops,
        duration=duration,
        foremost_witness=w_fore,
        hops_witness=w_hops,
        duration_witness=w_dur,
    )


# --------------------------------------------------------------------------
# differential checking
# --------------------------------------------------------------------------


def _check_labels(
    h: TimeVaryingHypergraph,
    labels: DistanceLabels,
    expected: Mapping[str, int],
    horizon: Tick | None,
    out: list[str],
) -> None:
    name = labels.metric.value
    if dict(labels.values) != dict(expected):
        extra = sorted(set(labels.values) - set(expected))
        missing = sorted(set(expected) - set(labels.values))
        diffs = {
            v: (labels.values[v], expected[v])
            for v in set(labels.values) & set(expected)
            if labels.values[v] != expected[v]
        }
        out.append(
            f"{name} from {labels.source!r}: extra={extra} missing={missing} diffs={diffs}"
        )
        return
    for target in labels.values:
        walk = reconstruct_walk(labels, target)
        try:
            validate_walk(h, walk)
        except InfeasibleWalk as exc:
            out.append(f"{name} from {labels.source!r}: witness for {target!r} infeasible: {exc}")
            continue
        if walk.terminus != target:
            out.append(f"{name} from {labels.source!r}: witness ends at {walk.terminus!r}, not {target!r}")
        got = walk_metric_value(walk, labels.metric)
        if got != labels.values[target]:
            out.append(
                f"{name} from {labels.source!r}: witness for {target!r} "
                f"attains {got}, label says {labels.values[target]}"
            )
        if labels.metric is Metric.FASTEST and walk.departure < labels.t0:
            out.append(
                f"{name} from {labels.source!r}: witness for {target!r} departs "
                f"at {walk.departure} before t0 {labels.t0}"
            )
        if horizon is not None and walk.arrival > horizon:
            out.append(
                f"{name} from {labels.source!r}: witness for {target!r} arrives "
                f"at {walk.arrival} past the horizon {horizon}"
            )


def differential_report(
    h: TimeVaryingHypergraph, t0: Tick = 0, max_hops: int | None = None, horizon: Tick | None = None
) -> list[str]:
    """Compare all three metrics with the oracle from every source.

    Also validates every reconstructed witness walk (feasibility, attained
    value, arrival within the ``horizon``). Returns human-readable mismatch
    descriptions, empty when the implementations agree everywhere. Strictly
    desk scale: the oracle is exhaustive. The default hop budget is
    ``|V| - 1``: cutting any cycle out of a walk never worsens a metric, so
    simple walks attain every minimum. A horizon, when given, is at least
    ``t0``.
    """
    budget = max_hops if max_hops is not None else max(h.vertex_count - 1, 1)
    out: list[str] = []
    for source in h.vertex_ids:
        orc = oracle_distances(h, source, t0, budget, horizon)
        _check_labels(h, foremost(h, source, t0, horizon), orc.foremost, horizon, out)
        _check_labels(h, shortest(h, source, t0, budget, horizon), orc.hops, horizon, out)
        _check_labels(h, fastest(h, source, t0, horizon), orc.duration, horizon, out)
        for witness_map, values, metric in (
            (orc.foremost_witness, orc.foremost, Metric.FOREMOST),
            (orc.hops_witness, orc.hops, Metric.SHORTEST),
            (orc.duration_witness, orc.duration, Metric.FASTEST),
        ):
            for target, walk in witness_map.items():
                try:
                    validate_walk(h, walk)
                except InfeasibleWalk as exc:
                    out.append(f"oracle witness from {source!r} to {target!r}: {exc}")
                    continue
                if walk_metric_value(walk, metric) != values[target]:
                    out.append(
                        f"oracle {metric.value} witness from {source!r} to {target!r} "
                        f"does not attain its value"
                    )
    return out

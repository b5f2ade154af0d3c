"""Minimal temporal paths over a time-varying hypergraph.

A temporal walk leaves its source at a departure tick and crosses one
hyperedge per hop. A hop over edge ``e`` is feasible when the current time
``a`` satisfies ``a <= end(e)``; it delivers the walker to any other
participant of ``e`` at ``max(a, start(e))``. Arrival times are therefore
non-decreasing along a walk, and waiting on a vertex is free.

Three notions of minimal distance from a source:

* foremost - earliest possible arrival tick at each vertex, departing at
  ``t0``. Every arrival is ``t0`` or some edge's start, so one scan over
  the edges in start order settles the vertices tick by tick, with no
  priority queue over arrivals: the Connection Scan Algorithm (Dibbelt et
  al., JEA 2018) carried over to interval hyperedges. Each hyperedge is
  relaxed at most once, because later settlements can only produce later
  candidate arrivals.
* shortest - fewest hops, over walks that are temporally feasible from
  ``t0``. Computed by hop-layered dynamic programming where each layer
  keeps only the earliest arrival per vertex; an earlier arrival never
  disables an extension that a later one enables, so that reduction is
  lossless. Each round expands only the vertices the previous one
  improved. It relaxes an edge only when the edge would deliver strictly
  earlier than it last did, and it scans a re-expanded vertex's
  start-sorted edges only up to its previous arrival.
* fastest - smallest duration (arrival minus departure), minimized over
  all departures ``tau >= t0``. For a fixed walk the arrival equals
  ``max(tau, latest edge start)`` and feasibility caps ``tau`` at the
  walk's minimum edge end, so a walk does best departing at that end (or
  at the horizon, if earlier) and lasts ``max(0, latest start - minimum
  end)``. Among walks that reach a vertex by a given tick, the one with
  the largest minimum end is therefore best there and extends best. So
  one scan over the edges in start order, like foremost's, carries for
  each vertex the largest minimum end reached so far, and takes each
  vertex's duration when that value rises: the one-pass fastest path of
  Wu et al. (PVLDB 2014), with no sweep over departures.

Unreached vertices are absent from the label maps; the sentinels of the
kernel's internal arrays never reach them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Mapping

from .core import MAX_TICK, MIN_TICK, Tick, TimeVaryingHypergraph
from .errors import InfeasibleWalk, NonPositiveMaxHops, PathsError, Unreached


class Metric(str, Enum):
    FOREMOST = "foremost"
    SHORTEST = "shortest"
    FASTEST = "fastest"


METRIC_ORDER: tuple[Metric, ...] = (Metric.FOREMOST, Metric.SHORTEST, Metric.FASTEST)


@dataclass(frozen=True)
class TemporalWalk:
    """A concrete feasible walk: the evidence behind a distance label.

    ``hops[i]`` is ``(edge id, via vertex)`` - the edge crossed and the
    participant reached; ``arrivals[i]`` is the tick that hop completed.
    The empty walk (zero hops) represents staying on the source.
    """

    source: str
    departure: Tick
    hops: tuple[tuple[str, str], ...]
    arrivals: tuple[Tick, ...]

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def arrival(self) -> Tick:
        return self.arrivals[-1] if self.arrivals else self.departure

    @property
    def duration(self) -> Tick:
        return self.arrival - self.departure

    @property
    def terminus(self) -> str:
        return self.hops[-1][1] if self.hops else self.source


@dataclass(frozen=True)
class DistanceLabels:
    """Per-source result of one metric.

    ``values`` maps reached vertex ids to the metric value (arrival tick,
    hop count, or duration). The source is always present with value
    ``t0`` / 0 / 0 respectively. ``predecessors`` maps each reached
    vertex to the last hop ``(edge id, prior vertex)`` of an optimal walk;
    chains always terminate at the source. For hop and duration labels the
    optimal walk through a vertex need not extend that vertex's own
    optimal walk, so those metrics additionally carry exact per-vertex
    ``witnesses`` and reconstruction reads them instead of replaying the
    chain. Both are None when the labels were computed values-only.
    """

    source: str
    t0: Tick
    metric: Metric
    values: Mapping[str, int]
    predecessors: Mapping[str, tuple[str, str]] | None
    witnesses: Mapping[str, TemporalWalk] | None = None


# --------------------------------------------------------------------------
# foremost and fastest: time-ordered scans over the hyperedges
# --------------------------------------------------------------------------

NEVER: Tick = MAX_TICK + 1  # no arrival, or no delivery over an edge, yet
NONE_YET: Tick = MIN_TICK - 1  # no walk's minimum edge end, or none carried over an edge, yet


def foremost(
    h: TimeVaryingHypergraph,
    source: str,
    t0: Tick,
    horizon: Tick | None = None,
    keep_predecessors: bool = True,
) -> DistanceLabels:
    """Earliest arrival tick at every reachable vertex, departing at ``t0``.

    One scan over the edges in ``(start, edge id)`` order from ``t0``.
    Every arrival is ``t0`` or an edge start, so the scan settles one tick
    at a time. At a new start tick ``s`` it first applies each edge
    opening at ``s`` that has a member settled before ``s``: the edge
    delivers ``s``, relaxed by that member of lowest settle rank. It then
    settles the vertices reached at ``s``, smallest index first; each one
    relaxes its edges with ``start <= s <= end`` that no member has
    relaxed yet. That is the order in which a label-setting heap pass
    over arrivals settles vertices and relaxes edges, so the ``(edge id,
    prior id)`` tie rule picks the same predecessors. The scan
    stops at the first edge starting past the horizon, or once every
    vertex is settled and the tick that settled the last one is done.
    Arrivals beyond the horizon are discarded. Raises UnknownVertex if the
    source is not in the hypergraph.
    """
    src = h.index_of(source)
    ids = h.vertex_ids
    if horizon is not None and horizon < t0:
        return DistanceLabels(
            source, t0, Metric.FOREMOST, {source: t0}, {} if keep_predecessors else None
        )
    edges = h.edges
    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members
    incidence = h.incidence
    order = h.edge_order
    limit = MAX_TICK if horizon is None else horizon
    n = len(ids)

    arrival: list[Tick] = [NEVER] * n
    pred_edge: list[int] = [-1] * n
    pred_prior: list[int] = [-1] * n
    rank: list[int] = [n] * n  # settle rank; n while unsettled
    settled: list[int] = []
    relaxed = bytearray(len(edges))
    arrival[src] = tick = t0
    heap = [src]
    pos = bisect_right(order, t0, key=starts.__getitem__)
    last = len(order)
    while True:
        # settle the vertices reached at `tick`, smallest index first
        while heap:
            u = heappop(heap)
            rank[u] = len(settled)
            settled.append(u)
            for ei in incidence[u]:
                if starts[ei] > tick:
                    break  # relaxed when the scan reaches its start
                if relaxed[ei] or ends[ei] < tick:
                    continue
                relaxed[ei] = 1
                for v in members[ei]:
                    a_v = arrival[v]
                    if tick < a_v:
                        arrival[v] = tick
                        pred_edge[v] = ei
                        pred_prior[v] = u
                        heappush(heap, v)
                    elif tick == a_v and v != u and keep_predecessors:
                        if (edges[ei].id, ids[u]) < (edges[pred_edge[v]].id, ids[pred_prior[v]]):
                            pred_edge[v] = ei
                            pred_prior[v] = u
        if len(settled) == n or pos == last:
            break
        tick = starts[order[pos]]
        if tick > limit:
            break
        # edges opening at `tick` with a member settled before it deliver `tick`
        while pos < last and starts[ei := order[pos]] == tick:
            pos += 1
            r = n
            for w in members[ei]:
                if rank[w] < r:
                    r = rank[w]
            if r == n:
                continue  # a member settling at `tick` relaxes it
            relaxed[ei] = 1
            u = settled[r]
            # the delivery above, inlined: as a shared nested function it
            # cost 8-14% per source
            for v in members[ei]:
                a_v = arrival[v]
                if tick < a_v:
                    arrival[v] = tick
                    pred_edge[v] = ei
                    pred_prior[v] = u
                    heappush(heap, v)
                elif tick == a_v and keep_predecessors:
                    if (edges[ei].id, ids[u]) < (edges[pred_edge[v]].id, ids[pred_prior[v]]):
                        pred_edge[v] = ei
                        pred_prior[v] = u

    settled.sort()
    values = {ids[v]: arrival[v] for v in settled}
    predecessors = None
    if keep_predecessors:
        predecessors = {
            ids[v]: (edges[pred_edge[v]].id, ids[pred_prior[v]]) for v in settled if v != src
        }
    return DistanceLabels(source, t0, Metric.FOREMOST, values, predecessors)


def fastest_departure_candidates(
    h: TimeVaryingHypergraph, t0: Tick, horizon: Tick | None = None
) -> list[Tick]:
    """Departure ticks that can be optimal for some walk, descending.

    ``fastest`` needs none of them; they serve the per-departure reference
    in the tests and the benchmark's count of departures. A walk's
    duration is non-increasing in its departure until the departure passes
    the walk's earliest edge end; that bound is always some edge's end
    tick, so edge ends (clamped to ``>= t0``) plus ``t0`` itself cover
    every optimum. Under a horizon a walk whose earliest edge end lies
    past it does best departing at the horizon itself, so each candidate
    is clamped to ``max(horizon, t0)``, which keeps ``t0`` (and so the
    source's own label) even under a horizon before it.
    """
    cands = {end for end in h.edge_ends if end >= t0} | {t0}
    if horizon is not None:
        cap = max(horizon, t0)
        cands = {min(tau, cap) for tau in cands}
    return sorted(cands, reverse=True)


def fastest(
    h: TimeVaryingHypergraph,
    source: str,
    t0: Tick,
    horizon: Tick | None = None,
    keep_predecessors: bool = True,
) -> DistanceLabels:
    """Minimum duration (arrival minus departure) over departures ``>= t0``.

    One scan over the edges in ``(start, edge id)`` order from ``t0``, as
    foremost's. Each vertex keeps ``M``, the largest minimum edge end over
    the walks that have reached it so far (``NEVER`` at the source). At
    each tick the edges opening there carry ``min(M, end)`` from their
    member of largest ``M``; then the vertices whose ``M`` rose are popped,
    largest first, and carry their ``M`` over their open edges until
    nothing rises. An edge carries only values above its last one. A
    popped vertex offers ``max(0, tick - M)`` and keeps the first strict
    improvement; its witness is the chain of rises behind it, departing at
    the chain's minimum end or at the horizon, whichever is earlier. The
    source's empty walk departs at the latest departure any walk could
    use. The scan stops at the first edge starting past the horizon.
    """
    src = h.index_of(source)
    ids = h.vertex_ids
    edges = h.edges
    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members
    order = h.edge_order
    limit = MAX_TICK if horizon is None else horizon
    n = len(ids)

    reach: list[Tick] = [NONE_YET] * n  # M of each vertex
    reach[src] = NEVER
    carried: list[Tick] = [NONE_YET] * len(edges)
    best: list[Tick] = [NEVER] * n
    best[src] = 0
    # one event per rise, for witnesses: (edge, vertex, the relaxer's
    # latest event), where -1 stands for the source
    events: list[tuple[int, int, int]] = []
    latest: list[int] = [-1] * n
    best_event: list[int] = [-1] * n
    # each vertex's opened edges, less those found closed when it popped
    open_at: list[list[int]] = [[] for _ in range(n)]
    tick = t0
    heap = [(-NEVER, src)] if t0 <= limit else []
    pos = bisect_right(order, t0, key=starts.__getitem__)
    for ei in order[:pos]:
        if ends[ei] >= t0:
            for w in members[ei]:
                open_at[w].append(ei)
    last = len(order)
    while True:
        # pop the vertices whose M rose at `tick`, largest M first
        while heap:
            m, u = heappop(heap)
            m = -m
            if m < reach[u]:
                continue  # stale: u rose again
            d = tick - m if tick > m else 0
            if d < best[u]:
                best[u] = d
                best_event[u] = latest[u]
            pe = latest[u]
            edges_open = open_at[u]
            kept = 0
            for ei in edges_open:
                end = ends[ei]
                if end < tick:
                    continue  # closed for good: dropped below
                edges_open[kept] = ei
                kept += 1
                val = m if m < end else end
                if val <= carried[ei]:
                    continue
                carried[ei] = val
                for v in members[ei]:
                    if val > reach[v]:
                        reach[v] = val
                        heappush(heap, (-val, v))
                        if keep_predecessors:
                            latest[v] = len(events)
                            events.append((ei, v, pe))
            del edges_open[kept:]
        if pos == last:
            break
        tick = starts[order[pos]]
        if tick > limit:
            break
        # edges opening at `tick` carry from their member of largest M
        while pos < last and starts[ei := order[pos]] == tick:
            pos += 1
            m, u = NONE_YET, -1
            for w in members[ei]:
                if reach[w] > m:
                    m, u = reach[w], w
                open_at[w].append(ei)
            end = ends[ei]
            val = m if m < end else end
            if val <= carried[ei]:
                continue  # no member reached yet
            carried[ei] = val
            pe = latest[u]
            # the delivery above, inlined as in foremost
            for v in members[ei]:
                if val > reach[v]:
                    reach[v] = val
                    heappush(heap, (-val, v))
                    if keep_predecessors:
                        latest[v] = len(events)
                        events.append((ei, v, pe))

    values = {ids[v]: d for v, d in enumerate(best) if d != NEVER}
    if not keep_predecessors:
        return DistanceLabels(source, t0, Metric.FASTEST, values, None)
    stay = max(t0, min(max(ends), limit))
    predecessors: dict[str, tuple[str, str]] = {}
    witnesses: dict[str, TemporalWalk] = {}
    # the walk of each event, built once and shared by the chains through
    # it: its hops, the running maximum of its starts and its minimum end;
    # the extra last slot, read as event -1, holds the source's empty walk
    walk_of: list[tuple | None] = [None] * len(events) + [((), (), NEVER)]
    for v, ev in enumerate(best_event):
        if best[v] == NEVER:
            continue
        chain: list[int] = []
        while walk_of[ev] is None:
            chain.append(ev)
            ev = events[ev][2]
        hops, tops, low = walk_of[ev]
        while chain:
            ev = chain.pop()
            ei, w, _ = events[ev]
            hops += ((edges[ei].id, ids[w]),)
            tops += (max(tops[-1], starts[ei]) if tops else starts[ei],)
            low = min(low, ends[ei])
            walk_of[ev] = hops, tops, low
        if not hops:
            witnesses[source] = TemporalWalk(source, stay, (), ())
            continue
        # departing at `tau`, each hop arrives at the larger of `tau` and `top`
        tau = low if low < limit else limit
        k = bisect_left(tops, tau)
        witnesses[ids[v]] = TemporalWalk(source, tau, hops, (tau,) * k + tops[k:])
        predecessors[ids[v]] = (hops[-1][0], hops[-2][1] if len(hops) > 1 else source)
    return DistanceLabels(source, t0, Metric.FASTEST, values, predecessors, witnesses)


# --------------------------------------------------------------------------
# shortest (hop-layered DP)
# --------------------------------------------------------------------------


def shortest(
    h: TimeVaryingHypergraph,
    source: str,
    t0: Tick,
    max_hops: int,
    horizon: Tick | None = None,
    keep_predecessors: bool = True,
) -> DistanceLabels:
    """Minimum hop count over temporally feasible walks from ``(source, t0)``.

    Layer ``k`` holds the earliest arrival reachable in at most ``k``
    hops; a vertex's hop label is the first layer that defines it. Layers
    stop early once no arrival improves, and never exceed ``max_hops``.
    Round ``k`` expands the vertices improved in round ``k - 1``, in
    ascending id order. It skips an edge that would deliver no earlier
    than it last did: its members already arrive no later, and an equal
    later delivery in the same round loses the ``(edge id, prior id)``
    tie. A re-expanded vertex stops at its first edge (by start) starting
    no earlier than its previous expansion, which already delivered that
    start or found it past the horizon.
    """
    if max_hops < 1:
        raise NonPositiveMaxHops(f"max_hops must be >= 1, got {max_hops}")
    src = h.index_of(source)

    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members
    incidence = h.incidence
    edges = h.edges
    ids = h.vertex_ids
    limit = MAX_TICK if horizon is None else horizon

    arrival: list[Tick] = [NEVER] * len(ids)
    arrival[src] = t0
    expanded: list[Tick] = [NEVER] * len(ids)  # arrival at the last expansion
    # what each edge delivered last: its members already arrive no later
    delivered: list[Tick] = [NEVER] * len(starts)
    hop_of: dict[int, int] = {src: 0}

    # arrival-improvement events; walking prior links from a vertex's first
    # event replays a feasible minimal-hop walk exactly
    ev_edge: list[int] = []
    ev_vertex: list[int] = []
    ev_arrival: list[Tick] = []
    ev_prior: list[int] = []
    latest_event: list[int] = [-1] * len(ids)
    first_event: dict[int, int] = {}

    frontier = [src]
    layer = 0
    while frontier and layer < max_hops:
        layer += 1
        # candidate per vertex: (arrival, edge idx, prior vertex, prior event)
        updates: dict[int, tuple[Tick, int, int, int]] = {}
        for u in frontier:
            a_u = arrival[u]
            cut = expanded[u]
            expanded[u] = a_u
            pe = latest_event[u]
            for ei in incidence[u]:
                if starts[ei] >= cut:
                    break
                if ends[ei] < a_u:
                    continue
                arr = a_u if a_u >= starts[ei] else starts[ei]
                if arr >= delivered[ei] or arr > limit:
                    continue
                delivered[ei] = arr
                for v in members[ei]:
                    if arrival[v] <= arr:  # u itself included
                        continue
                    cur = updates.get(v)
                    if cur is None or arr < cur[0]:
                        updates[v] = (arr, ei, u, pe)
                    elif arr == cur[0] and (edges[ei].id, ids[u]) < (edges[cur[1]].id, ids[cur[2]]):
                        updates[v] = (arr, ei, u, pe)
        frontier = []
        for v, (arr, ei, u, pe) in updates.items():
            hop_of.setdefault(v, layer)
            arrival[v] = arr
            frontier.append(v)
            if keep_predecessors:  # the event chain only feeds witnesses
                first_event.setdefault(v, len(ev_edge))
                latest_event[v] = len(ev_edge)
                ev_edge.append(ei)
                ev_vertex.append(v)
                ev_arrival.append(arr)
                ev_prior.append(pe)
        frontier.sort()

    values = {ids[v]: k for v, k in sorted(hop_of.items())}
    predecessors = None
    witnesses = None
    if keep_predecessors:
        predecessors = {}
        witnesses = {ids[src]: TemporalWalk(source, t0, (), ())}
        for v in sorted(first_event):
            rev: list[tuple[str, str, Tick]] = []
            ev = first_event[v]
            while ev != -1:
                rev.append((edges[ev_edge[ev]].id, ids[ev_vertex[ev]], ev_arrival[ev]))
                ev = ev_prior[ev]
            rev.reverse()
            walk = TemporalWalk(
                source,
                t0,
                tuple((e, w) for e, w, _ in rev),
                tuple(a for _, _, a in rev),
            )
            witnesses[ids[v]] = walk
            prior = rev[-2][1] if len(rev) >= 2 else source
            predecessors[ids[v]] = (rev[-1][0], prior)
    return DistanceLabels(source, t0, Metric.SHORTEST, values, predecessors, witnesses)


# --------------------------------------------------------------------------
# reconstruction and validation
# --------------------------------------------------------------------------


def reconstruct_walk(labels: DistanceLabels, target: str) -> TemporalWalk:
    """Recover a feasible optimal walk for ``target`` from its labels.

    The walk's metric value equals ``labels.values[target]`` exactly.
    Labels with witnesses answer with the stored one, the source's too.
    Raises Unreached when the target carries no label, and PathsError when
    the labels were computed without predecessors.
    """
    if target not in labels.values:
        raise Unreached(f"{target!r} is not reached in these labels")
    if labels.witnesses is not None:
        return labels.witnesses[target]
    if target == labels.source:
        return TemporalWalk(labels.source, labels.t0, (), ())
    if labels.metric is Metric.FOREMOST and labels.predecessors is not None:
        rev: list[tuple[str, str]] = []
        v = target
        while v != labels.source:
            edge_id, prior = labels.predecessors[v]
            rev.append((edge_id, v))
            v = prior
        rev.reverse()
        # foremost chains attain the label arrival at every prefix vertex
        return TemporalWalk(
            labels.source,
            labels.t0,
            tuple(rev),
            tuple(labels.values[v] for _, v in rev),
        )
    raise PathsError("labels were computed without predecessors")


def validate_walk(h: TimeVaryingHypergraph, walk: TemporalWalk) -> None:
    """Check the feasibility invariant; raise InfeasibleWalk on violation.

    Verifies participant chaining (each via-vertex joins consecutive
    edges, the source joins the first), the availability rule
    ``a_prev <= end(e)``, and the arrival recurrence
    ``a = max(a_prev, start(e))``.
    """
    if walk.source not in h:
        raise InfeasibleWalk(f"source {walk.source!r} not in hypergraph")
    if len(walk.hops) != len(walk.arrivals):
        raise InfeasibleWalk("hops and arrivals differ in length")
    at = walk.source
    now = walk.departure
    for i, ((edge_id, via), arr) in enumerate(zip(walk.hops, walk.arrivals)):
        try:
            edge = h.edge_by_id(edge_id)
        except KeyError:
            raise InfeasibleWalk(f"hop {i}: unknown edge {edge_id!r}") from None
        if at not in edge.participants:
            raise InfeasibleWalk(f"hop {i}: {at!r} does not join edge {edge_id!r}")
        if via not in edge.participants:
            raise InfeasibleWalk(f"hop {i}: {via!r} does not join edge {edge_id!r}")
        if now > edge.end:
            raise InfeasibleWalk(
                f"hop {i}: edge {edge_id!r} closed at {edge.end}, reached at {now}"
            )
        expect = now if now >= edge.start else edge.start
        if arr != expect:
            raise InfeasibleWalk(f"hop {i}: arrival {arr} != max(prev, start) = {expect}")
        at = via
        now = arr


def walk_metric_value(walk: TemporalWalk, metric: Metric) -> int:
    if metric is Metric.FOREMOST:
        return walk.arrival
    if metric is Metric.SHORTEST:
        return walk.hop_count
    return walk.duration

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
  candidate arrivals. Once the unsettled vertices hold few edges, the scan
  goes on over theirs alone, as direction-optimizing BFS does (Beamer et
  al., SC 2012).
* shortest - fewest hops, over walks that are temporally feasible from
  ``t0``. Computed by hop-layered dynamic programming where each layer
  keeps only the earliest arrival per vertex; an earlier arrival never
  disables an extension that a later one enables, so that reduction is
  lossless. Each round expands only the vertices the previous one
  improved. It relaxes an edge only when the edge would deliver strictly
  earlier than it last did, and it scans a re-expanded vertex's
  start-sorted edges only up to its previous arrival. The rounds stop once
  every vertex has its hop label. When fewer vertices are unlabeled than
  the round would expand, the round first checks them bottom-up, as
  direction-optimizing BFS does (Beamer et al., SC 2012).
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

Shortest and fastest witnesses come from one event log: each kernel logs
``(edge, vertex, prior event)`` per improvement, and one builder turns the
chain of events behind each vertex into its walk.

Unreached vertices are absent from the label maps; the sentinels of the
kernel's internal arrays never reach them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import compress
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
    ``witnesses``, built from one event log, and reconstruction reads
    them instead of replaying the chain. Both are None for values-only labels.
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
NARROW = 16  # foremost's narrowing ratio: 4 to 64 ran alike at scale; 2 rebuilt too often


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
    prior id)`` tie rule picks the same predecessors; edge and vertex
    indexes are both in id order, so the rule compares indexes. Once the
    edges left outnumber ``NARROW`` times the unsettled vertices' incidence
    entries, the scan goes on over those vertices' later edges alone: an
    edge with every member settled would only be marked relaxed, which no
    settled vertex reads again. The scan stops at the first edge past the
    horizon or at the end of its edges, so it ends with the tick that
    settles the last vertex. Arrivals beyond the horizon are discarded.
    Raises UnknownVertex if the source is not in the hypergraph.
    """
    src = h.index_of(source)
    ids = h.vertex_ids
    if horizon is not None and horizon < t0:
        return DistanceLabels(
            source, t0, Metric.FOREMOST, {source: t0}, {} if keep_predecessors else None
        )
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
    relaxed = bytearray(len(starts))
    left = sum(map(len, incidence))  # incidence entries of unsettled vertices
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
            left -= len(incidence[u])
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
                        if (ei, u) < (pred_edge[v], pred_prior[v]):
                            pred_edge[v] = ei
                            pred_prior[v] = u
        if NARROW * left < last - pos:  # turns true only as vertices settle
            # go on over the unsettled vertices' later edges: no other edge can deliver
            unsettled = compress(range(n), map(n.__eq__, rank))
            later = {ei for v in unsettled for ei in incidence[v] if starts[ei] > tick}
            order, pos = sorted(sorted(later), key=starts.__getitem__), 0
            last = len(order)
        if pos == last:
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
            # cost 8-14% per source. An arrival already at `tick` came over
            # an edge of smaller index opening at `tick`, which keeps the tie.
            for v in members[ei]:
                if tick < arrival[v]:
                    arrival[v] = tick
                    pred_edge[v] = ei
                    pred_prior[v] = u
                    heappush(heap, v)

    settled.sort()
    values = {ids[v]: arrival[v] for v in settled}
    predecessors = None
    if keep_predecessors:
        predecessors = {
            ids[v]: (h.edge_ids[pred_edge[v]], ids[pred_prior[v]]) for v in settled if v != src
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
    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members
    order = h.edge_order
    limit = MAX_TICK if horizon is None else horizon
    n = len(ids)

    reach: list[Tick] = [NONE_YET] * n  # M of each vertex
    reach[src] = NEVER
    carried: list[Tick] = [NONE_YET] * len(starts)
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
    last_event = {v: ev for v, ev in enumerate(best_event) if best[v] != NEVER}
    predecessors, witnesses = _witness_walks(h, source, events, last_event, limit, stay)
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
    stop once no arrival improves or every vertex has its label, and never
    exceed ``max_hops``; later layers would only lower the arrivals of
    labeled vertices. Round ``k`` expands the vertices improved in round
    ``k - 1``, in ascending id order. It skips an edge that would deliver
    no earlier than it last did: its members already arrive no later, and
    an equal later delivery in the same round loses the ``(edge id, prior
    id)`` tie. A re-expanded vertex stops at its first edge (by start)
    starting no earlier than its previous expansion, which already
    delivered that start or found it past the horizon.

    A round with fewer unlabeled vertices than it would expand pulls
    first: each unlabeled vertex takes the least ``(arrival, edge id,
    prior id)`` its labeled members offer. A member outside the frontier
    would already have delivered to it, so this is the candidate the
    round would push. If every unlabeled vertex has one, they are all
    labeled at this layer and the rounds stop; at the first that has
    none, the pull is dropped and the round pushes.
    """
    if max_hops < 1:
        raise NonPositiveMaxHops(f"max_hops must be >= 1, got {max_hops}")
    src = h.index_of(source)

    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members
    incidence = h.incidence
    ids = h.vertex_ids
    limit = MAX_TICK if horizon is None else horizon
    n = len(ids)

    arrival: list[Tick] = [NEVER] * n
    arrival[src] = t0
    expanded: list[Tick] = [NEVER] * n  # arrival at the last expansion
    # what each edge delivered last: its members already arrive no later
    delivered: list[Tick] = [NEVER] * len(starts)
    hop_of: dict[int, int] = {src: 0}

    # arrival-improvement events (edge, vertex, prior event); the chain
    # from a vertex's first event replays a feasible minimal-hop walk
    events: list[tuple[int, int, int]] = []
    latest_event: list[int] = [-1] * n
    first_event: dict[int, int] = {src: -1}

    frontier = [src]
    layer = 0
    while frontier and layer < max_hops and len(hop_of) < n:
        layer += 1
        # candidate per vertex: (arrival, edge idx, prior vertex, prior event)
        updates: dict[int, tuple[Tick, int, int, int]] = {}
        if n - len(hop_of) < len(frontier):
            # fewer vertices left than to push from: pull each one's least
            # (arrival, edge, prior) from its labeled members, bottom-up
            for v in range(n):
                if arrival[v] != NEVER:
                    continue
                best = (limit + 1, -1, -1)
                for ei in incidence[v]:
                    s = starts[ei]
                    if s > best[0]:
                        break
                    end = ends[ei]
                    for u in members[ei]:
                        a_u = arrival[u]
                        if a_u <= end and (a_u if a_u > s else s, ei, u) < best:
                            best = (a_u if a_u > s else s, ei, u)
                if best[0] > limit:
                    updates.clear()  # v needs more hops: push this layer
                    break
                updates[v] = (*best, latest_event[best[2]])
            else:
                frontier = []  # every vertex is labeled at this layer
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
                    elif arr == cur[0] and (ei, u) < (cur[1], cur[2]):
                        updates[v] = (arr, ei, u, pe)
        frontier = []
        for v, (arr, ei, u, pe) in updates.items():
            hop_of.setdefault(v, layer)
            arrival[v] = arr
            frontier.append(v)
            if keep_predecessors:  # the event chain only feeds witnesses
                first_event.setdefault(v, len(events))
                latest_event[v] = len(events)
                events.append((ei, v, pe))
        frontier.sort()

    values = {ids[v]: k for v, k in sorted(hop_of.items())}
    if not keep_predecessors:
        return DistanceLabels(source, t0, Metric.SHORTEST, values, None)
    # every edge end on a walk from t0 is at least t0: each walk departs at t0
    predecessors, witnesses = _witness_walks(h, source, events, first_event, t0, t0)
    return DistanceLabels(source, t0, Metric.SHORTEST, values, predecessors, witnesses)


# --------------------------------------------------------------------------
# witnesses, reconstruction and validation
# --------------------------------------------------------------------------


def _witness_walks(
    h: TimeVaryingHypergraph,
    source: str,
    events: list[tuple[int, int, int]],
    last_event: Mapping[int, int],
    cap: Tick,
    stay: Tick,
) -> tuple[dict[str, tuple[str, str]], dict[str, TemporalWalk]]:
    """Last hops and witness walks of the vertices in ``last_event``.

    Event ``(edge, vertex, prior event)`` extends the prior event's walk
    (-1: the source's empty walk, departing at ``stay``) to the vertex.
    ``last_event`` maps each reached vertex to the event ending its walk,
    which departs at its minimum edge end or at ``cap``, if earlier.
    """
    ids, edge_ids, starts, ends = h.vertex_ids, h.edge_ids, h.edge_starts, h.edge_ends
    predecessors: dict[str, tuple[str, str]] = {}
    witnesses: dict[str, TemporalWalk] = {}
    # the walk of each event, built once and shared by the chains through
    # it: its hops, the running maximum of its starts and its minimum end;
    # the extra last slot, read as event -1, holds the source's empty walk
    walk_of: list[tuple | None] = [None] * len(events) + [((), (), NEVER)]
    for v, ev in sorted(last_event.items()):
        chain: list[int] = []
        while walk_of[ev] is None:
            chain.append(ev)
            ev = events[ev][2]
        hops, tops, low = walk_of[ev]
        while chain:
            ev = chain.pop()
            ei, w, _ = events[ev]
            hops += ((edge_ids[ei], ids[w]),)
            tops += (max(tops[-1], starts[ei]) if tops else starts[ei],)
            low = min(low, ends[ei])
            walk_of[ev] = hops, tops, low
        if not hops:
            witnesses[source] = TemporalWalk(source, stay, (), ())
            continue
        # departing at `tau`, each hop arrives at the larger of `tau` and `top`
        tau = low if low < cap else cap
        k = bisect_left(tops, tau)
        witnesses[ids[v]] = TemporalWalk(source, tau, hops, (tau,) * k + tops[k:])
        predecessors[ids[v]] = (hops[-1][0], hops[-2][1] if len(hops) > 1 else source)
    return predecessors, witnesses


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
            ei = h.edge_index(edge_id)
        except KeyError:
            raise InfeasibleWalk(f"hop {i}: unknown edge {edge_id!r}") from None
        members = [h.vertex_ids[m] for m in h.edge_members[ei]]
        start, end = h.edge_starts[ei], h.edge_ends[ei]
        if at not in members:
            raise InfeasibleWalk(f"hop {i}: {at!r} does not join edge {edge_id!r}")
        if via not in members:
            raise InfeasibleWalk(f"hop {i}: {via!r} does not join edge {edge_id!r}")
        if now > end:
            raise InfeasibleWalk(f"hop {i}: edge {edge_id!r} closed at {end}, reached at {now}")
        expect = now if now >= start else start
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

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
  walk's earliest edge end, so the optimum departure of any walk is the
  minimum end over its edges, and ``{t0} union {end(e) >= t0}`` covers
  every optimum. A horizon caps ``tau`` as well (the walk arrives no
  earlier than it departs), so under a horizon the optimum is the smaller
  of that end and the horizon, and the candidates are
  ``{t0} union {min(end(e), horizon) : end(e) >= t0}``. A walk feasible
  from ``tau'`` stays feasible from any ``tau < tau'`` and arrives no
  later, so fastest's earliest-arrival kernel, a label-setting heap pass
  generalizing Dijkstra, sweeps those candidates in descending order and
  carries its labels across departures. It keeps the heap rather than
  foremost's scan: a scan costs the edges from a departure to its last
  arrival, paid again at each of thousands of departures, while the heap
  pass expands only the vertices a departure improves.

Unreached vertices are absent from the label maps; the sentinels of the
kernel's internal arrays never reach them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Iterable, Iterator, Mapping

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
# earliest arrival: foremost's scan and fastest's heap pass
# --------------------------------------------------------------------------

NEVER: Tick = MAX_TICK + 1  # no arrival, or no delivery over an edge, yet
SPENT: Tick = MIN_TICK - 1  # the edge delivered at its own start: never earlier


def _earliest_arrivals(
    h: TimeVaryingHypergraph,
    src: int,
    departures: Iterable[Tick],
    horizon: Tick | None,
) -> Iterator[tuple[Tick, list[int], list[Tick], list[int], list[int]]]:
    """Earliest arrivals from ``src`` over strictly descending departures.

    The kernel of ``fastest``; ``foremost`` runs its own scan, which
    settles vertices and relaxes edges in the order a single departure
    here would. After each departure ``tau`` yields ``(tau, improved,
    arrival, pred_edge, pred_prior)``: the vertex indices whose arrival
    strictly dropped at ``tau`` (the source included), in expansion order,
    and the arrival tick and last hop (edge index, prior vertex index) of
    every vertex, shared and carried from one departure to the next. Unreached
    vertices hold ``NEVER`` and ``-1``, as the source's last hop does.

    Each departure is a label-setting heap pass that expands only the
    vertices it improves. An edge is relaxed only when it would deliver
    strictly earlier than it last did, so at a single departure every edge
    is relaxed at most once. On an equal arrival the smallest ``(edge id,
    prior id)`` becomes the predecessor. Only vertices not yet expanded at
    ``tau`` can tie, apart from ``u`` itself: once a vertex is expanded,
    each of its edges has delivered no later than its arrival, or closed,
    and later expansions arrive no earlier. So no chain passes through a
    descendant.
    """
    ids = h.vertex_ids
    edges = h.edges
    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members
    incidence = h.incidence
    limit = MAX_TICK if horizon is None else horizon

    arrival: list[Tick] = [NEVER] * len(ids)
    pred_edge: list[int] = [-1] * len(ids)
    pred_prior: list[int] = [-1] * len(ids)
    # what each edge delivered last: its members already arrive no later
    delivered: list[Tick] = [NEVER] * len(edges)
    for tau in departures:
        arrival[src] = tau
        improved: list[int] = []
        heap: list[tuple[Tick, int]] = [(tau, src)]
        while heap:
            a_u, u = heappop(heap)
            if a_u > arrival[u]:
                continue
            improved.append(u)
            for ei in incidence[u]:
                if delivered[ei] <= a_u or ends[ei] < a_u:
                    continue
                if a_u > starts[ei]:
                    arr = delivered[ei] = a_u
                else:
                    arr = starts[ei]
                    delivered[ei] = SPENT
                if arr > limit:
                    continue
                for v in members[ei]:
                    a_v = arrival[v]
                    if arr < a_v:
                        arrival[v] = arr
                        pred_edge[v] = ei
                        pred_prior[v] = u
                        heappush(heap, (arr, v))
                    elif arr == a_v and v != u:
                        if (edges[ei].id, ids[u]) < (edges[pred_edge[v]].id, ids[pred_prior[v]]):
                            pred_edge[v] = ei
                            pred_prior[v] = u
        yield tau, improved, arrival, pred_edge, pred_prior


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
    relaxed yet. That is the order in which the heap pass of
    ``_earliest_arrivals`` settles vertices and relaxes edges, so the
    ``(edge id, prior id)`` tie rule picks the same predecessors. The scan
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

    A walk's duration is non-increasing in its departure until the
    departure passes the walk's earliest edge end; that bound is always
    some edge's end tick, so edge ends (clamped to ``>= t0``) plus ``t0``
    itself cover every optimum. Under a horizon a walk whose earliest edge
    end lies past it does best departing at the horizon itself, so each
    candidate is clamped to ``max(horizon, t0)``, which keeps ``t0`` (and
    so the source's own label) even under a horizon before it.
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

    The earliest-arrival kernel swept over the candidate departures of
    ``fastest_departure_candidates`` (clamped under a horizon), largest
    first: labels carry from one departure to the next, and only the
    vertices improved at a departure can improve their duration there.
    The first (largest) departure attaining a vertex's optimum supplies
    its witness walk.
    """
    src = h.index_of(source)
    ids = h.vertex_ids
    departures = fastest_departure_candidates(h, t0, horizon)
    best: dict[int, Tick] = {}
    witness: dict[int, TemporalWalk] = {}
    last_hop: dict[int, tuple[str, str]] = {}
    for tau, improved, arrival, pred_edge, pred_prior in _earliest_arrivals(
        h, src, departures, horizon
    ):
        # a vertex not improved kept its arrival, so its duration only grew
        for v in improved:
            if v in best and arrival[v] - tau >= best[v]:
                continue
            best[v] = arrival[v] - tau
            if keep_predecessors:
                # links stay tight (an earlier arrival at a link's tail
                # re-relaxes its edge), so carried arrivals replay from tau
                chain, w = [], v
                while w != src:
                    chain.append(w)
                    w = pred_prior[w]
                chain.reverse()
                hops = tuple((h.edges[pred_edge[w]].id, ids[w]) for w in chain)
                witness[v] = TemporalWalk(source, tau, hops, tuple(arrival[w] for w in chain))
                if hops:
                    last_hop[v] = (hops[-1][0], ids[pred_prior[v]])

    values = {ids[v]: d for v, d in sorted(best.items())}
    if not keep_predecessors:
        return DistanceLabels(source, t0, Metric.FASTEST, values, None)
    predecessors = {ids[v]: p for v, p in sorted(last_hop.items())}
    witnesses = {ids[v]: w for v, w in sorted(witness.items())}
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

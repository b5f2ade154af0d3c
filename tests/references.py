"""Reference kernels the path kernels are checked against.

Each is the kernel, or the simpler form of it, that a faster one replaced.
``tests/test_paths.py`` compares the kernels with them on seeded networks,
and ``tests/scale_check.py`` on the scale network.
"""

from heapq import heappop, heappush
from typing import Iterable, Iterator

from thd.core import MAX_TICK, MIN_TICK, Tick, TimeVaryingHypergraph
from thd.errors import NonPositiveMaxHops
from thd.paths import NEVER, DistanceLabels, Metric, TemporalWalk, fastest_departure_candidates

# The earliest-arrival heap pass that foremost and fastest ran on before
# their scans, kept as the reference both are checked against.
SPENT: Tick = MIN_TICK - 1  # the edge delivered at its own start: never earlier


def _earliest_arrivals(
    h: TimeVaryingHypergraph,
    src: int,
    departures: Iterable[Tick],
    horizon: Tick | None,
) -> Iterator[tuple[Tick, list[int], list[Tick], list[int], list[int]]]:
    """Earliest arrivals from ``src`` over strictly descending departures.

    The kernel that ``fastest`` swept over its candidate departures before
    it ran its own scan; ``foremost``'s scan settles vertices and relaxes
    edges in the order a single departure here would. After each departure ``tau`` yields ``(tau, improved,
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
    edge_ids = h.edge_ids
    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members
    incidence = h.incidence
    limit = MAX_TICK if horizon is None else horizon

    arrival: list[Tick] = [NEVER] * len(ids)
    pred_edge: list[int] = [-1] * len(ids)
    pred_prior: list[int] = [-1] * len(ids)
    # what each edge delivered last: its members already arrive no later
    delivered: list[Tick] = [NEVER] * len(edge_ids)
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
                        if (edge_ids[ei], ids[u]) < (edge_ids[pred_edge[v]], ids[pred_prior[v]]):
                            pred_edge[v] = ei
                            pred_prior[v] = u
        yield tau, improved, arrival, pred_edge, pred_prior


def _foremost_by_heap(h, source, t0, horizon, keep_predecessors):
    """Foremost values and predecessors from fastest's heap kernel at the one departure t0."""
    src = h.index_of(source)
    _, reached, arrival, pred_edge, pred_prior = next(_earliest_arrivals(h, src, (t0,), horizon))
    ids = h.vertex_ids
    reached = sorted(reached)
    values = {ids[v]: arrival[v] for v in reached}
    if not keep_predecessors:
        return values, None
    return values, {
        ids[v]: (h.edge_ids[pred_edge[v]], ids[pred_prior[v]]) for v in reached if v != src
    }


def _fastest_heap_reference(h, source, t0, horizon):
    """Fastest values as the heap kernel gave them, swept over the candidate departures."""
    src = h.index_of(source)
    departures = fastest_departure_candidates(h, t0, horizon)
    best: dict[int, Tick] = {}
    for tau, improved, arrival, _, _ in _earliest_arrivals(h, src, departures, horizon):
        # a vertex not improved kept its arrival, so its duration only grew
        for v in improved:
            if v not in best or arrival[v] - tau < best[v]:
                best[v] = arrival[v] - tau
    return {h.vertex_ids[v]: d for v, d in sorted(best.items())}


# The hop-layered shortest without the per-edge delivered skip or the
# start-sorted cutoff: every frontier vertex re-scans all its edges and
# members. The skipping kernel must return equal labels on every input.
def _shortest_reference(
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
    """
    if max_hops < 1:
        raise NonPositiveMaxHops(f"max_hops must be >= 1, got {max_hops}")
    src = h.index_of(source)

    starts = h.edge_starts
    ends = h.edge_ends
    members = h.edge_members
    incidence = h.incidence
    ids = h.vertex_ids

    arrival: dict[int, Tick] = {src: t0}
    hop_of: dict[int, int] = {src: 0}

    # arrival-improvement events; walking prior links from a vertex's first
    # event replays a feasible minimal-hop walk exactly
    ev_edge: list[int] = []
    ev_vertex: list[int] = []
    ev_arrival: list[Tick] = []
    ev_prior: list[int] = []
    latest_event: dict[int, int] = {src: -1}
    first_event: dict[int, int] = {}

    frontier = [src]
    layer = 0
    while frontier and layer < max_hops:
        layer += 1
        # candidate per vertex: (arrival, edge idx, prior vertex, prior event)
        updates: dict[int, tuple[Tick, int, int, int]] = {}
        for u in frontier:
            a_u = arrival[u]
            pe = latest_event[u]
            for ei in incidence[u]:
                if ends[ei] < a_u:
                    continue
                arr = a_u if a_u >= starts[ei] else starts[ei]
                if horizon is not None and arr > horizon:
                    continue
                for v in members[ei]:
                    if v == u:
                        continue
                    known = arrival.get(v)
                    if known is not None and known <= arr:
                        continue
                    cur = updates.get(v)
                    if cur is None or arr < cur[0]:
                        updates[v] = (arr, ei, u, pe)
                    elif arr == cur[0] and (
                        (h.edge_ids[ei], ids[u]) < (h.edge_ids[cur[1]], ids[cur[2]])
                    ):
                        updates[v] = (arr, ei, u, pe)
        frontier = []
        for v, (arr, ei, u, pe) in updates.items():
            known = arrival.get(v)
            event = len(ev_edge)
            ev_edge.append(ei)
            ev_vertex.append(v)
            ev_arrival.append(arr)
            ev_prior.append(pe)
            latest_event[v] = event
            if known is None:
                hop_of[v] = layer
                first_event[v] = event
            arrival[v] = arr
            frontier.append(v)
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
                rev.append((h.edge_ids[ev_edge[ev]], ids[ev_vertex[ev]], ev_arrival[ev]))
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

import hashlib
import json
import random
from heapq import heappop, heappush
from typing import Iterable, Iterator

import pytest

from thd import (
    GenParams,
    TemporalWalk,
    build_hypergraph,
    fastest,
    foremost,
    gen_desk_instance,
    gen_random,
    hyperedge,
    reconstruct_walk,
    shortest,
    validate_walk,
    walk_metric_value,
)
from thd.core import MAX_TICK, MIN_TICK, Tick, TimeVaryingHypergraph
from thd.errors import (
    InfeasibleWalk,
    NonPositiveMaxHops,
    PathsError,
    Unreached,
    UnknownVertex,
)
from thd.paths import NEVER, DistanceLabels, Metric, fastest_departure_candidates

# hand-derived distance matrices for the shared fixtures, t0 = 0;
# test_acceptance re-confirms every entry against the enumeration oracle
G1_FOREMOST = {
    "a": {"a": 0, "b": 1, "c": 2, "d": 4},
    "b": {"b": 0, "a": 1, "c": 2, "d": 4},
    "c": {"c": 0, "a": 2, "b": 2, "d": 4},
    "d": {"d": 0, "a": 4, "b": 4, "c": 4},
}
G1_SHORTEST = {
    "a": {"a": 0, "b": 1, "c": 1, "d": 1},
    "b": {"b": 0, "a": 1, "c": 1, "d": 2},
    "c": {"c": 0, "a": 1, "b": 1, "d": 1},
    "d": {"d": 0, "a": 1, "b": 2, "c": 1},
}
G1_FASTEST = {
    "a": {"a": 0, "b": 0, "c": 0, "d": 0},
    "b": {"b": 0, "a": 0, "c": 0, "d": 0},
    "c": {"c": 0, "a": 0, "b": 0, "d": 0},
    "d": {"d": 0, "a": 0, "b": 0, "c": 0},
}
G2_FOREMOST = {
    "a": {"a": 0, "b": 0, "d": 5},
    "b": {"b": 0, "a": 0, "d": 5},
    "d": {"d": 0, "b": 5},
}
G2_SHORTEST = {
    "a": {"a": 0, "b": 1, "d": 2},
    "b": {"b": 0, "a": 1, "d": 1},
    "d": {"d": 0, "b": 1},
}
G2_FASTEST = {
    "a": {"a": 0, "b": 0, "d": 5},
    "b": {"b": 0, "a": 0, "d": 0},
    "d": {"d": 0, "b": 0},
}


@pytest.mark.parametrize("source", "abcd")
def test_g1_matrices(g1, source):
    assert dict(foremost(g1, source, 0).values) == G1_FOREMOST[source]
    assert dict(shortest(g1, source, 0, 10).values) == G1_SHORTEST[source]
    assert dict(fastest(g1, source, 0).values) == G1_FASTEST[source]


@pytest.mark.parametrize("source", "abd")
def test_g2_matrices(g2, source):
    assert dict(foremost(g2, source, 0).values) == G2_FOREMOST[source]
    assert dict(shortest(g2, source, 0, 10).values) == G2_SHORTEST[source]
    assert dict(fastest(g2, source, 0).values) == G2_FASTEST[source]


def test_foremost_single_edge_waits():
    h = build_hypergraph([hyperedge("e", ["a", "b"], 5, 9)])
    assert foremost(h, "a", 0).values["b"] == 5
    assert foremost(h, "a", 7).values["b"] == 7
    assert foremost(h, "a", 9).values["b"] == 9
    assert "b" not in foremost(h, "a", 10).values


def test_foremost_after_everything_ended(g1):
    assert dict(foremost(g1, "a", 6).values) == {"a": 6}


def test_foremost_source_label_is_t0(g1):
    assert foremost(g1, "a", 42).values["a"] == 42


def test_unknown_source_rejected(g1):
    for fn in (lambda: foremost(g1, "z", 0), lambda: fastest(g1, "z", 0), lambda: shortest(g1, "z", 0, 3)):
        with pytest.raises(UnknownVertex):
            fn()


def test_shortest_rejects_nonpositive_max_hops(g1):
    with pytest.raises(NonPositiveMaxHops):
        shortest(g1, "a", 0, 0)


def test_shortest_respects_hop_budget(g2):
    assert dict(shortest(g2, "a", 0, 1).values) == {"a": 0, "b": 1}
    assert dict(shortest(g2, "a", 0, 2).values) == {"a": 0, "b": 1, "d": 2}


def test_shortest_source_always_zero_hops(g1):
    for v in g1.vertex_ids:
        assert shortest(g1, v, 0, 5).values[v] == 0


def test_fastest_forced_wait(g2):
    # leaving a at 0 is the only option; d costs the full five-tick wait
    assert fastest(g2, "a", 0).values["d"] == 5


def test_fastest_prefers_late_departure():
    h = build_hypergraph(
        [hyperedge("e1", ["s", "a"], 0, 100), hyperedge("e2", ["a", "v"], 8, 10)]
    )
    labels = fastest(h, "s", 0)
    assert labels.values["v"] == 0
    walk = reconstruct_walk(labels, "v")
    assert walk.departure >= 8
    validate_walk(h, walk)


def test_fastest_departure_bounded_by_middle_edge():
    # the optimal departure is capped by the second edge's end, not the first's
    h = build_hypergraph(
        [
            hyperedge("e1", ["s", "a"], 0, 100),
            hyperedge("e2", ["a", "b"], 0, 5),
            hyperedge("e3", ["b", "v"], 50, 60),
        ]
    )
    labels = fastest(h, "s", 0)
    assert labels.values["v"] == 45
    walk = reconstruct_walk(labels, "v")
    validate_walk(h, walk)
    assert walk.duration == 45


def test_fastest_clamps_departures_past_horizon_to_it():
    h = build_hypergraph(
        [hyperedge("e1", ["a", "b"], 0, 3), hyperedge("e2", ["b", "c"], 50, 100)]
    )
    assert fastest_departure_candidates(h, 0) == [100, 3, 0]
    labels = fastest(h, "a", 0, horizon=10)
    assert dict(labels.values) == {"a": 0, "b": 0}
    # the end 100 is clamped to the horizon, the source's largest departure
    assert labels.witnesses["a"] == TemporalWalk("a", 10, (), ())
    for walk in labels.witnesses.values():
        validate_walk(h, walk)
        assert walk.arrival <= 10


def test_fastest_departs_at_horizon_inside_a_long_edge():
    # departing at 0 waits 5 ticks; departing at the horizon 10 waits none
    h = build_hypergraph([hyperedge("e1", ["a", "b"], 5, 20)])
    labels = fastest(h, "a", 0, horizon=10)
    assert dict(labels.values) == {"a": 0, "b": 0}
    assert labels.witnesses["b"] == TemporalWalk("a", 10, (("e1", "b"),), (10,))


def test_equal_arrival_keeps_smallest_edge_then_prior():
    # v is reached at 5 from p over "b" (expanded first) and from q over "a"
    h = build_hypergraph(
        [
            hyperedge("x1", ["s", "p"], 1, 9),
            hyperedge("x2", ["s", "q"], 1, 9),
            hyperedge("b", ["p", "v"], 5, 5),
            hyperedge("a", ["q", "v"], 5, 5),
        ]
    )
    labels = foremost(h, "s", 0)
    assert labels.values["v"] == 5
    assert labels.predecessors["v"] == ("a", "q")
    labels = fastest(h, "s", 0)
    assert labels.values["v"] == 0
    assert labels.predecessors["v"] == ("a", "q")
    assert labels.witnesses["v"] == TemporalWalk("s", 5, (("x2", "q"), ("a", "v")), (5, 5))


# sha256 of foremost values and predecessors from the dedicated foremost
# loop at commit 71950a9, before foremost ran on the shared kernel
FOREMOST_DIGEST = "3bc95bdecd11b091b32286a9feff655bc669ca8c24a6bdce3a29b715e84c4c26"


def test_foremost_matches_pinned_digest_seeded():
    instances = [gen_desk_instance(seed) for seed in range(60)]
    instances += [
        gen_random(GenParams(vertex_count=60, edge_count=200, span=200, max_length=30, seed=seed))
        for seed in range(3)
    ]
    digest = hashlib.sha256()
    for h in instances:
        for source in h.vertex_ids[:20]:
            for t0, horizon in ((3, None), (3, 12), (17, None), (17, 60)):
                labels = foremost(h, source, t0, horizon)
                doc = [labels.values, labels.predecessors]
                digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
                values_only = foremost(h, source, t0, horizon, keep_predecessors=False)
                assert values_only.values == labels.values
    assert digest.hexdigest() == FOREMOST_DIGEST


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


def _foremost_by_heap(h, source, t0, horizon, keep_predecessors):
    """Foremost values and predecessors from fastest's heap kernel at the one departure t0."""
    src = h.index_of(source)
    _, reached, arrival, pred_edge, pred_prior = next(_earliest_arrivals(h, src, (t0,), horizon))
    ids = h.vertex_ids
    reached = sorted(reached)
    values = {ids[v]: arrival[v] for v in reached}
    if not keep_predecessors:
        return values, None
    edges = h.edges
    return values, {
        ids[v]: (edges[pred_edge[v]].id, ids[pred_prior[v]]) for v in reached if v != src
    }


def test_foremost_scan_matches_heap_kernel_seeded():
    rng = random.Random(10)
    for _ in range(60):
        vertex_count = rng.randint(4, 40)
        params = GenParams(
            vertex_count=vertex_count,
            edge_count=rng.randint(vertex_count, 150),
            span=rng.choice((3, 10, 30, 100, 1000)),  # short spans make ties dense
            max_length=rng.randint(0, 50),
            seed=rng.randrange(10**6),
        )
        h = gen_random(params)
        first, last = min(h.edge_starts), max(h.edge_ends)
        for source in rng.sample(h.vertex_ids, 4):
            for t0 in (first - 2, rng.randint(first, last), last + 1):
                for horizon in (None, t0 + rng.randint(0, params.span), t0 - 1):
                    for keep in (True, False):
                        labels = foremost(h, source, t0, horizon, keep)
                        got = (labels.values, labels.predecessors)
                        assert got == _foremost_by_heap(h, source, t0, horizon, keep)
                        if horizon is not None and horizon < t0:
                            assert labels.values == {source: t0}


def test_foremost_applies_a_tie_at_the_tick_that_settles_every_vertex():
    # at tick 5, edge b from p reaches v, the last vertex reached; settling q
    # at 5 then relaxes edge a, which ties at v and wins on its smaller id
    h = build_hypergraph(
        [
            hyperedge("x1", ["s", "p"], 1, 1),
            hyperedge("a", ["q", "v"], 2, 9),
            hyperedge("b", ["p", "v"], 5, 5),
            hyperedge("x2", ["s", "q"], 5, 5),
            hyperedge("late", ["s", "v"], 8, 8),
        ]
    )
    labels = foremost(h, "s", 0)
    assert labels.values == {"p": 1, "q": 5, "s": 0, "v": 5}
    assert labels.predecessors == {"p": ("x1", "s"), "q": ("x2", "s"), "v": ("a", "q")}
    assert (labels.values, labels.predecessors) == _foremost_by_heap(h, "s", 0, None, True)


def test_horizon_prunes_labels(g1):
    assert dict(foremost(g1, "a", 0, horizon=3).values) == {"a": 0, "b": 1, "c": 2}
    assert dict(shortest(g1, "a", 0, 10, horizon=3).values) == {"a": 0, "b": 1, "c": 2}


def test_values_only_mode(g1):
    labels = foremost(g1, "a", 0, keep_predecessors=False)
    assert labels.predecessors is None
    assert labels.witnesses is None
    with pytest.raises(PathsError):
        reconstruct_walk(labels, "c")


# --- reconstruction ---------------------------------------------------------


def test_reconstruct_foremost_g1(g1):
    labels = foremost(g1, "a", 0)
    walk = reconstruct_walk(labels, "c")
    assert walk.hops == (("e1", "b"), ("e2", "c"))
    assert walk.arrivals == (1, 2)
    validate_walk(g1, walk)


def test_reconstruct_source_is_empty_walk(g1):
    for metric_fn in (
        lambda: foremost(g1, "a", 0),
        lambda: shortest(g1, "a", 0, 5),
        lambda: fastest(g1, "a", 0),
    ):
        walk = reconstruct_walk(metric_fn(), "a")
        assert walk.hops == ()
        assert walk.terminus == "a"


def test_reconstruct_unreached(g2):
    labels = foremost(g2, "d", 0)
    with pytest.raises(Unreached):
        reconstruct_walk(labels, "a")


def test_reconstructed_walks_attain_labels(g1, g2):
    for h in (g1, g2):
        for source in h.vertex_ids:
            for labels in (
                foremost(h, source, 0),
                shortest(h, source, 0, 10),
                fastest(h, source, 0),
            ):
                for target in labels.values:
                    walk = reconstruct_walk(labels, target)
                    validate_walk(h, walk)
                    assert walk.terminus == target
                    assert walk_metric_value(walk, labels.metric) == labels.values[target]


def _assert_chain_reaches_source(labels, target):
    seen = set()
    v = target
    while v != labels.source:
        assert v not in seen, "predecessor chain cycled"
        seen.add(v)
        assert len(seen) <= len(labels.values)
        edge_id, v = labels.predecessors[v]


def test_predecessor_chains_terminate_at_source():
    for seed in range(40):
        h = gen_desk_instance(seed)
        source = h.vertex_ids[0]
        for labels in (
            foremost(h, source, 0),
            shortest(h, source, 0, h.vertex_count),
            fastest(h, source, 0),
        ):
            for target in labels.values:
                _assert_chain_reaches_source(labels, target)


# --- walk validation --------------------------------------------------------


def test_validate_walk_rejects_bad_chaining(g1):
    with pytest.raises(InfeasibleWalk):
        validate_walk(g1, TemporalWalk("a", 0, (("e2", "c"),), (2,)))  # a not in e2


def test_validate_walk_rejects_closed_edge(g1):
    with pytest.raises(InfeasibleWalk):
        validate_walk(g1, TemporalWalk("a", 4, (("e1", "b"),), (4,)))  # e1 ended at 3


def test_validate_walk_rejects_wrong_arrival(g1):
    with pytest.raises(InfeasibleWalk):
        validate_walk(g1, TemporalWalk("a", 0, (("e1", "b"),), (0,)))  # must be max(0,1)=1


def test_validate_walk_rejects_unknown_edge(g1):
    with pytest.raises(InfeasibleWalk):
        validate_walk(g1, TemporalWalk("a", 0, (("nope", "b"),), (0,)))


def test_validate_walk_accepts_empty(g1):
    validate_walk(g1, TemporalWalk("a", 0, (), ()))


# --- cross-metric invariants on seeded instances ----------------------------


def test_reachability_consistency_seeded():
    for seed in range(60):
        h = gen_desk_instance(seed)
        for source in h.vertex_ids:
            fm = foremost(h, source, 0, keep_predecessors=False)
            sh = shortest(h, source, 0, h.vertex_count, keep_predecessors=False)
            fa = fastest(h, source, 0, keep_predecessors=False)
            assert set(fm.values) == set(sh.values) == set(fa.values)


def test_foremost_monotone_in_t0_seeded():
    for seed in range(60):
        h = gen_desk_instance(seed)
        source = h.vertex_ids[seed % h.vertex_count]
        lo = foremost(h, source, 0, keep_predecessors=False)
        hi = foremost(h, source, 5, keep_predecessors=False)
        assert set(hi.values) <= set(lo.values)
        for v in hi.values:
            assert hi.values[v] >= lo.values[v]


def test_fastest_bounded_by_foremost_seeded():
    for seed in range(60):
        h = gen_desk_instance(seed)
        for t0 in (0, 3):
            source = h.vertex_ids[0]
            fm = foremost(h, source, t0, keep_predecessors=False)
            fa = fastest(h, source, t0, keep_predecessors=False)
            for v in fa.values:
                assert fa.values[v] <= fm.values[v] - t0


def test_layering_stabilizes_seeded():
    for seed in range(40):
        h = gen_desk_instance(seed)
        source = h.vertex_ids[0]
        prev: dict = {}
        for k in range(1, h.vertex_count + 3):
            cur = dict(shortest(h, source, 0, k, keep_predecessors=False).values)
            # hop labels never change once assigned; coverage only grows
            for v, hops in prev.items():
                assert cur[v] == hops
            prev = cur
        full = dict(shortest(h, source, 0, h.vertex_count, keep_predecessors=False).values)
        beyond = dict(shortest(h, source, 0, h.vertex_count + 5, keep_predecessors=False).values)
        assert full == beyond


def _best_foremost_over(h, source, departures, horizon):
    """Fastest by definition: the best foremost run over the given departures."""
    best: dict = {}
    for tau in departures:
        for v, a in foremost(h, source, tau, horizon, keep_predecessors=False).values.items():
            best[v] = min(best.get(v, a - tau), a - tau)
    return best


def _fastest_reference(h, source, t0, horizon):
    """The best foremost run over every candidate departure, clamped to the horizon."""
    departures = fastest_departure_candidates(h, t0)
    if horizon is not None:
        departures = {min(tau, max(horizon, t0)) for tau in departures}
    return _best_foremost_over(h, source, departures, horizon)


@pytest.mark.parametrize("seed", range(6))
def test_fastest_matches_per_departure_reference_seeded(seed):
    h = gen_random(GenParams(vertex_count=30, edge_count=80, span=200, max_length=30, seed=seed))
    for source in h.vertex_ids[::6]:
        for t0, horizon in ((17, None), (17, 120), (60, 60), (60, 90)):
            labels = fastest(h, source, t0, horizon)
            assert dict(labels.values) == _fastest_reference(h, source, t0, horizon)
            for target, walk in labels.witnesses.items():
                _assert_chain_reaches_source(labels, target)
                validate_walk(h, walk)
                assert walk.terminus == target
                assert walk.departure >= t0
                assert walk_metric_value(walk, labels.metric) == labels.values[target]
                if horizon is not None:
                    assert walk.departure <= horizon and walk.arrival <= horizon


def test_fastest_under_horizon_matches_every_integer_departure_seeded():
    # integer ticks, so every departure in [t0, horizon] is tried: no candidate set is assumed
    rng = random.Random(11)
    for seed in range(30):
        h = gen_random(GenParams(vertex_count=30, edge_count=80, span=100, max_length=20, seed=seed))
        for _ in range(6):
            source = rng.choice(h.vertex_ids)
            t0 = rng.randrange(0, 80)
            horizon = rng.randrange(t0, 121)
            labels = fastest(h, source, t0, horizon)
            brute = _best_foremost_over(h, source, range(t0, horizon + 1), horizon)
            assert dict(labels.values) == brute, (seed, source, t0, horizon)
            for target, walk in labels.witnesses.items():
                validate_walk(h, walk)
                assert t0 <= walk.departure and walk.arrival <= horizon
                assert walk_metric_value(walk, labels.metric) == labels.values[target]


def test_fastest_departure_candidates_contract():
    for seed in range(30):
        h = gen_desk_instance(seed)
        for t0 in (0, 5, 25):
            cands = fastest_departure_candidates(h, t0)
            assert cands == sorted(set(cands), reverse=True)
            assert set(cands) == {t0} | {end for end in h.edge_ends if end >= t0}
            assert fastest_departure_candidates(h, t0, None) == cands
            for horizon in (t0 - 1, t0, t0 + 7, 40):
                cap = max(horizon, t0)
                clamped = fastest_departure_candidates(h, t0, horizon)
                assert clamped == sorted(set(clamped), reverse=True)
                assert set(clamped) == {t0} | {min(end, cap) for end in h.edge_ends if end >= t0}


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


def test_fastest_scan_matches_heap_kernel_seeded():
    rng = random.Random(14)
    runs = 0
    for _ in range(40):
        vertex_count = rng.randint(4, 40)
        params = GenParams(
            vertex_count=vertex_count,
            edge_count=rng.randint(vertex_count, 150),
            span=rng.choice((3, 10, 30, 100, 1000)),  # short spans make ties dense
            max_length=rng.randint(0, 300),
            seed=rng.randrange(10**6),
        )
        h = gen_random(params)
        first, last = min(h.edge_starts), max(h.edge_ends)
        for source in rng.sample(h.vertex_ids, 2):
            for t0 in (first - 2, rng.randint(first, last), last + 1):
                for horizon in (None, t0, t0 - 1, t0 + rng.randint(1, params.span)):
                    want = _fastest_heap_reference(h, source, t0, horizon)
                    assert fastest(h, source, t0, horizon, False).values == want
                    labels = fastest(h, source, t0, horizon)
                    assert labels.values == want
                    runs += 2
                    if horizon is not None and horizon < t0:
                        assert labels.witnesses == {source: TemporalWalk(source, t0, (), ())}
                        continue
                    for target, walk in labels.witnesses.items():
                        _assert_chain_reaches_source(labels, target)
                        validate_walk(h, walk)
                        assert walk.terminus == target
                        assert walk_metric_value(walk, labels.metric) == want[target]
                        assert walk.departure >= t0
                        if horizon is not None:
                            assert walk.arrival <= horizon
    assert runs >= 300


def test_fastest_keeps_the_first_of_two_rises_with_equal_duration():
    # v rises at tick 3 over e1, e2 (minimum end 1) and again at tick 9 over
    # e3, e4 (minimum end 7): both walks last 2, and the first rise is kept
    h = build_hypergraph(
        [
            hyperedge("e1", ["s", "p"], 1, 1),
            hyperedge("e2", ["p", "v"], 3, 3),
            hyperedge("e3", ["s", "q"], 5, 7),
            hyperedge("e4", ["q", "v"], 9, 9),
        ]
    )
    labels = fastest(h, "s", 0)
    assert labels.values == {"p": 0, "q": 0, "s": 0, "v": 2}
    assert labels.values == _fastest_heap_reference(h, "s", 0, None)
    assert labels.witnesses["v"] == TemporalWalk("s", 1, (("e1", "p"), ("e2", "v")), (1, 3))
    assert labels.predecessors["v"] == ("e2", "p")
    assert fastest(h, "s", 0, keep_predecessors=False).values == labels.values


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
                    elif arr == cur[0] and (h.edges[ei].id, ids[u]) < (
                        h.edges[cur[1]].id,
                        ids[cur[2]],
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
                rev.append((h.edges[ev_edge[ev]].id, ids[ev_vertex[ev]], ev_arrival[ev]))
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


def test_shortest_matches_reference_seeded():
    rng = random.Random(7)
    for seed in range(12):
        h = gen_random(GenParams(vertex_count=30, edge_count=90, span=200, max_length=30, seed=seed))
        n = h.vertex_count
        for source in h.vertex_ids[seed % 3 :: 5]:
            t0 = rng.choice((0, 40, 120))
            for horizon in (None, t0 + 15, t0 + 150):
                for max_hops in (1, 2, 3, n):
                    keep = rng.random() < 0.5
                    got = shortest(h, source, t0, max_hops, horizon, keep)
                    want = _shortest_reference(h, source, t0, max_hops, horizon, keep)
                    assert got == want, (seed, source, t0, horizon, max_hops, keep)


def test_shortest_reexpansion_relaxes_edges_skipped_at_a_later_arrival():
    # x is first reached at 10 over e1, then at 2 over y; expanded again at 2
    # it must relax e4 (closed at 10) and e5 (start 9, between 2 and 10)
    h = build_hypergraph(
        [
            hyperedge("e1", ["s", "x"], 10, 10),
            hyperedge("e2", ["s", "y"], 0, 0),
            hyperedge("e3", ["y", "x"], 2, 2),
            hyperedge("e4", ["x", "a"], 1, 5),
            hyperedge("e5", ["x", "b"], 9, 20),
            hyperedge("e6", ["x", "c"], 12, 15),
            hyperedge("e7", ["b", "d"], 0, 9),
        ]
    )
    labels = shortest(h, "s", 0, h.vertex_count)
    assert dict(labels.values) == {"a": 3, "b": 2, "c": 2, "d": 4, "s": 0, "x": 1, "y": 1}
    assert labels == _shortest_reference(h, "s", 0, h.vertex_count)
    assert labels.witnesses["d"].hops == (("e2", "y"), ("e3", "x"), ("e5", "b"), ("e7", "d"))
    assert labels.witnesses["d"].arrivals == (0, 2, 9, 9)
    for target, walk in labels.witnesses.items():
        validate_walk(h, walk)
        assert walk_metric_value(walk, labels.metric) == labels.values[target]

import hashlib
import json
import random
import re

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
    read_network,
    reconstruct_walk,
    shortest,
    validate_walk,
    walk_metric_value,
    write_network,
)
from thd.errors import (
    InfeasibleWalk,
    NonPositiveMaxHops,
    PathsError,
    Unreached,
    UnknownVertex,
)
from thd.io import walk_doc
from thd.paths import NARROW, Metric, fastest_departure_candidates
from thd.simulate import SimulationPlan, resolve_t0

from references import _fastest_heap_reference, _foremost_by_heap, _shortest_reference

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
# loop at commit 71950a9, before foremost ran on the shared kernel; and of
# fastest values, predecessors and witness walks at commit fa5de41, before
# fastest built its witnesses with shortest's walk builder
PINNED_DIGESTS = {
    Metric.FOREMOST: "3bc95bdecd11b091b32286a9feff655bc669ca8c24a6bdce3a29b715e84c4c26",
    Metric.FASTEST: "54b65d7486650df6c172ff1e1daee342b151f01028596accdc951aefdc0c8c01",
}


@pytest.mark.parametrize("metric", [Metric.FOREMOST, Metric.FASTEST], ids=lambda m: m.value)
def test_matches_pinned_digest_seeded(metric):
    kernel = foremost if metric is Metric.FOREMOST else fastest
    instances = [gen_desk_instance(seed) for seed in range(60)]
    instances += [
        gen_random(GenParams(vertex_count=60, edge_count=200, span=200, max_length=30, seed=seed))
        for seed in range(3)
    ]
    digest = hashlib.sha256()
    for h in instances:
        for source in h.vertex_ids[:20]:
            for t0, horizon in ((3, None), (3, 12), (17, None), (17, 60)):
                labels = kernel(h, source, t0, horizon)
                doc = [labels.values, labels.predecessors]
                if labels.witnesses is not None:
                    doc.append({v: walk_doc(w) for v, w in labels.witnesses.items()})
                digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
                values_only = kernel(h, source, t0, horizon, keep_predecessors=False)
                assert values_only.values == labels.values
    assert digest.hexdigest() == PINNED_DIGESTS[metric]


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


@pytest.mark.parametrize("narrow", [NARROW, 1], ids=["narrow-default", "narrow-1"])
@pytest.mark.parametrize(
    "params",
    [
        GenParams(vertex_count=1000, edge_count=5000, span=100_000, max_length=5_000, seed=25),
        GenParams(vertex_count=1500, edge_count=6000, span=300, max_length=20, seed=25),
        GenParams(vertex_count=1000, edge_count=3500, span=5_000, max_length=400, seed=25),
        GenParams(vertex_count=400, edge_count=2000, span=1000, max_length=0, seed=25),
    ],
    ids=["sparse-ticks", "tie-dense", "unreachable", "instantaneous"],
)
def test_foremost_matches_heap_kernel_where_the_scan_narrows(params, narrow, monkeypatch):
    # on these networks the unsettled vertices come to hold few edges against
    # the edges left, so the scan narrows to theirs, and vertices that are
    # unreachable or past the horizon end the narrowed scan; at 1 it narrows
    # earlier and more often
    monkeypatch.setattr("thd.paths.NARROW", narrow)
    h = gen_random(params)
    for source in random.Random(params.seed).sample(h.vertex_ids, 10):
        for t0 in (0, resolve_t0(h, SimulationPlan(), source), params.span // 3):
            for horizon in (None, t0 + params.span // 2):
                for keep in (False, True):
                    labels = foremost(h, source, t0, horizon, keep)
                    got = (labels.values, labels.predecessors)
                    assert got == _foremost_by_heap(h, source, t0, horizon, keep), (source, t0, horizon, keep)


def _fillers():
    # edges between s and a, settled by tick 1, opening after everything
    # else: after tick 1 the unsettled vertices hold few enough edges against
    # them that the scan narrows
    return [hyperedge(f"f{i:03}", ["s", "a"], 20, 20) for i in range(4 * NARROW)]


def test_foremost_narrowed_scan_reaches_through_a_vertex_unsettled_at_the_switch():
    # after the switch at tick 1, e3 opens at 3 with no member settled; b
    # settles at 5 over e2 and relaxes e3 then, the only way to c
    h = build_hypergraph(
        [
            hyperedge("e1", ["s", "a"], 1, 1),
            hyperedge("e2", ["a", "b"], 5, 5),
            hyperedge("e3", ["b", "c"], 3, 9),
            *_fillers(),
        ]
    )
    for keep in (False, True):
        labels = foremost(h, "s", 0, keep_predecessors=keep)
        assert labels.values == {"a": 1, "b": 5, "c": 5, "s": 0}
        assert (labels.values, labels.predecessors) == _foremost_by_heap(h, "s", 0, None, keep)
    assert labels.predecessors == {"a": ("e1", "s"), "b": ("e2", "a"), "c": ("e3", "b")}


def test_foremost_narrowed_scan_keeps_the_smaller_edge_on_a_tie():
    # after the switch at tick 1, g1 and g2 both open at 6 and deliver 6 to
    # t; g1 is the smaller edge, though its prior a is the larger vertex
    h = build_hypergraph(
        [
            hyperedge("e1", ["s", "a"], 1, 1),
            hyperedge("g2", ["s", "t"], 6, 6),
            hyperedge("g1", ["a", "t"], 6, 6),
            *_fillers(),
        ]
    )
    labels = foremost(h, "s", 0)
    assert labels.values == {"a": 1, "s": 0, "t": 6}
    assert labels.predecessors == {"a": ("e1", "s"), "t": ("g1", "a")}
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


@pytest.mark.parametrize(
    "walk, message",
    [
        (TemporalWalk("z", 0, (), ()), "source 'z' not in hypergraph"),
        (TemporalWalk("a", 0, (("e1", "b"),), ()), "hops and arrivals differ in length"),
        (TemporalWalk("a", 0, (("nope", "b"),), (0,)), "hop 0: unknown edge 'nope'"),
        (TemporalWalk("a", 0, (("e2", "c"),), (2,)), "hop 0: 'a' does not join edge 'e2'"),
        (TemporalWalk("a", 0, (("e1", "d"),), (1,)), "hop 0: 'd' does not join edge 'e1'"),
        (TemporalWalk("a", 4, (("e1", "b"),), (4,)), "hop 0: edge 'e1' closed at 3, reached at 4"),
        (TemporalWalk("a", 0, (("e1", "b"),), (0,)), "hop 0: arrival 0 != max(prev, start) = 1"),
    ],
    ids=["unknown-source", "lengths-differ", "unknown-edge", "bad-chaining",
         "via-not-on-edge", "closed-edge", "wrong-arrival"],
)
def test_validate_walk_rejects(g1, walk, message):
    # the same refusals on the network built from the parsed document
    for h in (g1, build_hypergraph(read_network(write_network(g1))[0])):
        with pytest.raises(InfeasibleWalk, match=re.escape(message)):
            validate_walk(h, walk)


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


@pytest.mark.parametrize(
    "params",
    [
        GenParams(vertex_count=1000, edge_count=5000, span=100_000, max_length=5_000, seed=19),
        GenParams(vertex_count=1500, edge_count=6000, span=300, max_length=20, seed=19),
    ],
    ids=["sparse-ticks", "tie-dense"],
)
def test_every_kernel_matches_its_reference_mid_size(params):
    # the seeded tests above use at most 40 vertices; here each kernel meets
    # its reference on networks of a thousand and more, at t0 0 and at each
    # source's default t0, with and without a horizon
    h = gen_random(params)
    n = h.vertex_count
    for source in random.Random(params.seed).sample(h.vertex_ids, 6):
        for t0 in (0, resolve_t0(h, SimulationPlan(), source)):
            for horizon in (None, t0 + params.span // 5):
                labels = foremost(h, source, t0, horizon)
                want = _foremost_by_heap(h, source, t0, horizon, True)
                assert (labels.values, labels.predecessors) == want
                want = _fastest_heap_reference(h, source, t0, horizon)
                assert fastest(h, source, t0, horizon, False).values == want
                want = _shortest_reference(h, source, t0, n, horizon)
                assert shortest(h, source, t0, n, horizon) == want


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


@pytest.mark.parametrize(
    "params",
    [
        GenParams(vertex_count=1000, edge_count=5000, span=100_000, max_length=5_000, seed=22),
        GenParams(vertex_count=1500, edge_count=6000, span=300, max_length=20, seed=22),
        GenParams(vertex_count=300, edge_count=3000, span=50, max_length=5, seed=22),
        GenParams(vertex_count=200, edge_count=400, span=1000, max_length=0, seed=22),
    ],
    ids=["sparse-ticks", "tie-dense", "edge-dense", "instantaneous"],
)
def test_shortest_matches_reference_where_the_last_layer_is_pulled(params):
    # on these networks the rounds end with few vertices left against a
    # large frontier, so the bottom-up check of a layer both labels every
    # vertex left and, at a vertex still two hops out, falls back to the push
    h = gen_random(params)
    n = h.vertex_count
    for source in random.Random(params.seed).sample(h.vertex_ids, 10):
        for t0 in (0, params.span // 3):
            for horizon in (None, t0 + params.span // 2):
                for keep in (False, True):
                    want = _shortest_reference(h, source, t0, n, horizon, keep)
                    got = shortest(h, source, t0, n, horizon, keep)
                    assert got == want, (source, t0, horizon, keep)


def _assert_shortest_matches_reference(h, source):
    labels = shortest(h, source, 0, h.vertex_count)
    assert labels == _shortest_reference(h, source, 0, h.vertex_count)
    for target, walk in labels.witnesses.items():
        validate_walk(h, walk)
        assert walk_metric_value(walk, labels.metric) == labels.values[target]
    return labels


def test_shortest_pull_falls_back_to_the_push_then_labels_the_last_vertex():
    # after layer 1, b1, b2 and c are left against a frontier of a1-a4, but
    # c is two hops out, so layer 2 is pushed. That push also brings a4 from
    # 6 forward to 1 over e3. Then c alone is left, and layer 3 pulls it
    # over e6, which closed before a4's first arrival
    h = build_hypergraph(
        [
            hyperedge("e1", ["s", "a1", "a2", "a3"], 0, 0),
            hyperedge("e2", ["s", "a4"], 6, 6),
            hyperedge("e3", ["a1", "a4"], 1, 1),
            hyperedge("e4", ["a1", "b1"], 1, 9),
            hyperedge("e5", ["a2", "b2"], 2, 9),
            hyperedge("e6", ["a4", "c"], 3, 5),
            hyperedge("e7", ["b1", "c"], 5, 9),
            hyperedge("e8", ["b2", "c"], 4, 9),
        ]
    )
    labels = _assert_shortest_matches_reference(h, "s")
    assert dict(labels.values) == {"a1": 1, "a2": 1, "a3": 1, "a4": 1, "b1": 2, "b2": 2, "c": 3, "s": 0}
    assert labels.witnesses["c"] == TemporalWalk(
        "s", 0, (("e1", "a1"), ("e3", "a4"), ("e6", "c")), (0, 1, 3)
    )
    assert labels.predecessors["c"] == ("e6", "a4")


def test_shortest_pull_breaks_an_arrival_tie_on_edge_then_prior():
    # t is left alone against p, q and r: over e4 from p and over e3 from q
    # it arrives at 4. e3 is the smaller edge, though it starts later and q
    # is the larger prior, so it carries t's witness
    h = build_hypergraph(
        [
            hyperedge("e1", ["s", "q", "r"], 0, 0),
            hyperedge("e2", ["s", "p"], 4, 4),
            hyperedge("e3", ["q", "t"], 4, 9),
            hyperedge("e4", ["p", "t"], 1, 9),
            hyperedge("e5", ["r", "t"], 6, 9),
        ]
    )
    labels = _assert_shortest_matches_reference(h, "s")
    assert dict(labels.values) == {"p": 1, "q": 1, "r": 1, "s": 0, "t": 2}
    assert labels.witnesses["t"] == TemporalWalk("s", 0, (("e1", "q"), ("e3", "t")), (0, 4))
    assert labels.predecessors["t"] == ("e3", "q")

import pytest

from thd import (
    build_hypergraph,
    differential_report,
    enumerate_walks,
    gen_desk_instance,
    gen_structured,
    hyperedge,
    oracle_distances,
    validate_walk,
)
from thd.errors import UnknownVertex


def walks_as_tuples(h, source, t0, max_hops):
    return [w.hops for w in enumerate_walks(h, source, t0, max_hops)]


def test_enumeration_g1_one_hop(g1):
    assert walks_as_tuples(g1, "a", 0, 1) == [
        (),
        (("e1", "b"),),
        (("e3", "c"),),
        (("e3", "d"),),
    ]


def test_enumeration_zero_budget(g1):
    assert walks_as_tuples(g1, "a", 0, 0) == [()]


def test_enumeration_after_all_edges_ended(g1):
    assert walks_as_tuples(g1, "a", 6, 3) == [()]


def test_enumeration_excludes_self_hops(g1):
    for hops in walks_as_tuples(g1, "a", 0, 3):
        at = "a"
        for _, via in hops:
            assert via != at
            at = via


def test_enumeration_unknown_source(g1):
    with pytest.raises(UnknownVertex):
        list(enumerate_walks(g1, "zz", 0, 1))


def test_enumeration_walks_unique_and_feasible(g1):
    seen = set()
    for walk in enumerate_walks(g1, "a", 0, 4):
        assert walk.hops not in seen
        seen.add(walk.hops)
        validate_walk(g1, walk)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_clique_walk_count_closed_form(k, budget):
    """On one k-clique hyperedge, each hop picks any of the k-1 others."""
    h = gen_structured("clique", k, [1])
    source = h.vertex_ids[0]
    count = sum(1 for _ in enumerate_walks(h, source, 0, budget))
    assert count == sum((k - 1) ** j for j in range(budget + 1))


def test_oracle_g1_hand_values(g1):
    orc = oracle_distances(g1, "a", 0, 4)
    assert dict(orc.foremost) == {"a": 0, "b": 1, "c": 2, "d": 4}
    assert dict(orc.hops) == {"a": 0, "b": 1, "c": 1, "d": 1}
    assert dict(orc.duration) == {"a": 0, "b": 0, "c": 0, "d": 0}


def test_oracle_g2_hand_values(g2):
    orc = oracle_distances(g2, "a", 0, 3)
    assert dict(orc.duration) == {"a": 0, "b": 0, "d": 5}


def test_oracle_isolated_source():
    h = build_hypergraph(
        [hyperedge("e1", ["x", "y"], 0, 1), hyperedge("e2", ["z", "w"], 0, 1)]
    )
    orc = oracle_distances(h, "x", 0, 3)
    assert set(orc.foremost) == {"x", "y"}


def test_oracle_witnesses_attain_values(g1, g2):
    for h in (g1, g2):
        for source in h.vertex_ids:
            orc = oracle_distances(h, source, 0, h.vertex_count)
            for v, walk in orc.foremost_witness.items():
                validate_walk(h, walk)
                assert walk.arrival == orc.foremost[v]
            for v, walk in orc.hops_witness.items():
                validate_walk(h, walk)
                assert walk.hop_count == orc.hops[v]
            for v, walk in orc.duration_witness.items():
                validate_walk(h, walk)
                assert walk.duration == orc.duration[v]
                assert walk.departure >= 0


def test_oracle_invariant_under_edge_input_order(g1):
    records = list(g1.edges)
    shuffled = build_hypergraph([records[2], records[0], records[1]])
    a = oracle_distances(g1, "a", 0, 4)
    b = oracle_distances(shuffled, "a", 0, 4)
    assert dict(a.foremost) == dict(b.foremost)
    assert dict(a.hops) == dict(b.hops)
    assert dict(a.duration) == dict(b.duration)


def test_differential_report_clean_on_fixtures(g1, g2):
    assert differential_report(g1) == []
    assert differential_report(g2) == []


def test_differential_report_flags_a_broken_graph(g1, monkeypatch):
    # sanity check that the comparator can fail: corrupt foremost
    import thd.oracle as oracle_mod

    real = oracle_mod.foremost

    def broken(h, source, t0, horizon=None, keep_predecessors=True):
        labels = real(h, source, t0, horizon, keep_predecessors)
        values = dict(labels.values)
        for v in values:
            if v != source:
                values[v] += 1
        return type(labels)(
            labels.source, labels.t0, labels.metric, values, labels.predecessors
        )

    monkeypatch.setattr(oracle_mod, "foremost", broken)
    assert differential_report(g1) != []


def test_differential_seeded_instances_smoke():
    for seed in range(25):
        assert differential_report(gen_desk_instance(seed)) == []


def test_differential_seeded_instances_under_horizon():
    for seed in range(100):
        h = gen_desk_instance(seed)
        for t0, horizon in ((0, 6), (2, 9)):
            assert differential_report(h, t0=t0, horizon=horizon) == [], (seed, t0, horizon)

import hashlib

import pytest

from thd import (
    GenParams,
    fastest,
    foremost,
    gen_desk_instance,
    gen_random,
    gen_structured,
    shortest,
    stats,
    write_network,
)
from thd.errors import ParamsInvalid


def test_requested_counts_exact():
    params = GenParams(vertex_count=50, edge_count=120, seed=7)
    st = stats(gen_random(params))
    assert st.vertex_count == 50
    assert st.edge_count == 120


# sha256 of write_network for each generator, recorded before edges were
# stored in id order: generated ids are zero-padded in generation order, so
# the documents must not change (every perfbench network is a gen_random one)
GEN_DIGESTS = [
    (lambda: gen_random(GenParams(300, 1500, seed=3)),
     "962d4a22c8c19e4ed4de3bb8fac4795763d634e4b293e0ca86ec0d0798f1f9ab"),
    (lambda: gen_structured("chain", 12),
     "0f81663a89118a346b88047f640ede19cee3991894082c7315a9a12077d6b37b"),
    (lambda: gen_structured("star", 15),
     "16a926af346aee2100b49d9d29d0e21521c33862b097cfef87234377bc2c0bef"),
    (lambda: gen_structured("clique", 5),
     "1cd2b930a8323b731ffb18ce4fbfbe92976a490a1668089239b64da35d414e53"),
]


@pytest.mark.parametrize("make, digest", GEN_DIGESTS, ids=["random", "chain", "star", "clique"])
def test_generated_documents_match_pinned_digests(make, digest):
    assert hashlib.sha256(write_network(make())).hexdigest() == digest


def test_same_seed_same_bytes():
    params = GenParams(vertex_count=30, edge_count=80, seed=99)
    assert write_network(gen_random(params)) == write_network(gen_random(params))


def test_different_seed_different_graph():
    a = gen_random(GenParams(vertex_count=30, edge_count=80, seed=1))
    b = gen_random(GenParams(vertex_count=30, edge_count=80, seed=2))
    assert write_network(a) != write_network(b)


def test_minimal_two_vertex_graph():
    h = gen_random(GenParams(vertex_count=2, edge_count=1, max_participants=2, seed=0))
    assert h.vertex_count == 2
    assert h.edge_count == 1
    assert len(h.edges[0].participants) == 2


def test_edges_respect_span_and_sizes():
    params = GenParams(
        vertex_count=20, edge_count=60, min_participants=2, max_participants=5,
        span=40, min_length=1, max_length=9, seed=3,
    )
    h = gen_random(params)
    for e in h.edges:
        assert 0 <= e.start <= e.end <= 40
        assert 2 <= len(e.participants) <= 5


@pytest.mark.parametrize(
    "params",
    [
        GenParams(vertex_count=1, edge_count=1),
        GenParams(vertex_count=5, edge_count=-1),
        GenParams(vertex_count=5, edge_count=3, min_participants=1),
        GenParams(vertex_count=5, edge_count=3, max_participants=9),
        GenParams(vertex_count=5, edge_count=3, min_length=4, max_length=2),
        GenParams(vertex_count=100, edge_count=2),  # cannot cover all vertices
    ],
)
def test_invalid_params_rejected(params):
    with pytest.raises(ParamsInvalid):
        gen_random(params)


def test_chain_closed_form_distances():
    for n in range(2, 65):
        h = gen_structured("chain", n)
        first = h.vertex_ids[0]
        far = f"v{n:0{len(str(n))}d}"
        fm = foremost(h, first, 0, keep_predecessors=False)
        sh = shortest(h, first, 0, n + 1, keep_predecessors=False)
        assert fm.values[far] == n
        assert sh.values[far] == n
        assert len(fm.values) == n + 1


def test_chain_reversed_times_unreachable():
    h = gen_structured("chain", 3, [3, 2, 1])
    fm = foremost(h, "v0", 0, keep_predecessors=False)
    assert "v3" not in fm.values
    assert dict(fm.values) == {"v0": 0, "v1": 3}


def test_clique_all_pairs_one_hop():
    for k in range(2, 65):
        h = gen_structured("clique", k, [7])
        src = h.vertex_ids[0]
        sh = shortest(h, src, 0, 3, keep_predecessors=False)
        assert all(sh.values[v] == 1 for v in h.vertex_ids if v != src)
        fa = fastest(h, src, 0, keep_predecessors=False)
        assert all(fa.values[v] == 0 for v in h.vertex_ids)


def test_star_closed_form_all_sizes():
    for n in range(2, 65):
        h = gen_structured("star", n)
        fm = foremost(h, "hub", 0, keep_predecessors=False)
        assert len(fm.values) == n + 1


def test_star_hub_reaches_all_leaves():
    h = gen_structured("star", 6)
    fm = foremost(h, "hub", 0, keep_predecessors=False)
    assert len(fm.values) == 7
    # leaf i first reachable when its spoke opens
    for i, v in enumerate(sorted(v for v in h.vertex_ids if v != "hub")):
        assert fm.values[v] == i + 1


def test_structured_rejects_bad_args():
    with pytest.raises(ParamsInvalid):
        gen_structured("chain", 1)
    with pytest.raises(ParamsInvalid):
        gen_structured("chain", 3, [1, 2])
    with pytest.raises(ParamsInvalid):
        gen_structured("pentagram", 5)


def test_desk_instances_build_and_vary():
    sizes = set()
    for seed in range(30):
        h = gen_desk_instance(seed)
        assert 2 <= h.vertex_count <= 8
        assert 1 <= h.edge_count <= 12
        sizes.add((h.vertex_count, h.edge_count))
    assert len(sizes) > 5

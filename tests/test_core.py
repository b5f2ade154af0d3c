import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thd
from thd import (
    GenParams,
    Metric,
    SimulationPlan,
    build_hypergraph,
    gen_random,
    hyperedge,
    read_network,
    reconstruct_walk,
    run,
    stats,
    validate_walk,
    write_network,
    write_results,
)
from thd.core import MAX_TICK, TemporalHyperedge, TimeVaryingHypergraph
from thd.errors import (
    DuplicateEdgeId,
    HypergraphError,
    InvalidInterval,
    InvalidVertexId,
    RecordInvalid,
    TooFewParticipants,
    UnknownVertex,
)


def incident_ids(h, vertex):
    return [h.edge_ids[ei] for ei in h.incidence[h.index_of(vertex)]]


def test_empty_input():
    h = build_hypergraph([])
    assert h.vertex_count == 0
    assert h.edge_count == 0
    st_ = stats(h)
    assert (st_.vertex_count, st_.edge_count) == (0, 0)
    assert st_.participant_histogram == {}
    assert st_.time_span is None


def test_single_edge_shape():
    h = build_hypergraph([hyperedge("e1", ["a", "b"], 1, 3)])
    assert h.vertex_ids == ("a", "b")
    assert incident_ids(h, "a") == ["e1"]
    assert incident_ids(h, "b") == ["e1"]


def test_g1_incidence_sorted_by_start(g1):
    assert incident_ids(g1, "a") == ["e1", "e3"]
    assert incident_ids(g1, "c") == ["e2", "e3"]
    assert [g1.edge_ids[ei] for ei in g1.edge_order] == ["e1", "e2", "e3"]


def test_incidence_tie_break_by_edge_id():
    h = build_hypergraph(
        [
            hyperedge("z", ["a", "b"], 5, 9),
            hyperedge("m", ["a", "c"], 5, 9),
        ]
    )
    assert incident_ids(h, "a") == ["m", "z"]
    assert [h.edge_ids[ei] for ei in h.edge_order] == ["m", "z"]
    assert [e.id for e in h.edges] == ["m", "z"]  # id order, not input order


def test_edge_by_id(g1):
    assert [g1.edge_by_id(i).start for i in ("e1", "e2", "e3")] == [1, 2, 4]
    for missing in ("a", "e15", "z"):  # before, between and after the ids
        with pytest.raises(KeyError):
            g1.edge_by_id(missing)


def test_unknown_vertex_has_no_index(g1):
    with pytest.raises(UnknownVertex, match="vertex 'nope' not in hypergraph"):
        g1.index_of("nope")
    assert "nope" not in g1


def test_g1_stats(g1):
    st_ = stats(g1)
    assert st_.vertex_count == 4
    assert st_.edge_count == 3
    assert st_.participant_histogram == {2: 2, 3: 1}
    assert st_.time_span == (1, 5)


def test_duplicate_edge_id_rejected():
    records = [hyperedge("e1", ["a", "b"], 0, 1), hyperedge("e1", ["b", "c"], 0, 1)]
    with pytest.raises(DuplicateEdgeId, match="edge id 'e1' appears more than once"):
        build_hypergraph(records)
    # of several repeated ids, the smallest is named, whatever the input order
    records = [hyperedge(i, ["a", "b"], 0, 1) for i in ("e2", "e2", "e1", "e1")]
    with pytest.raises(DuplicateEdgeId, match="edge id 'e1' appears more than once"):
        build_hypergraph(records)


def test_inverted_interval_rejected():
    with pytest.raises(InvalidInterval):
        build_hypergraph([hyperedge("e1", ["a", "b"], 3, 1)])


def test_instantaneous_interval_legal():
    h = build_hypergraph([hyperedge("e1", ["a", "b"], 2, 2)])
    (edge,) = h.edges
    assert edge.start == edge.end == 2


def test_too_few_participants_rejected():
    with pytest.raises(TooFewParticipants):
        build_hypergraph([hyperedge("e1", ["a"], 0, 1)])
    # duplicate ids collapse in the set and are rejected, not silently kept
    with pytest.raises(TooFewParticipants):
        build_hypergraph([hyperedge("e1", ["a", "a"], 0, 1)])


def test_empty_identifiers_rejected():
    with pytest.raises(InvalidVertexId):
        build_hypergraph([hyperedge("", ["a", "b"], 0, 1)])
    with pytest.raises(InvalidVertexId):
        build_hypergraph([hyperedge("e1", ["a", ""], 0, 1)])


def test_bool_ticks_rejected():
    # write_network would write false/true, which read_network refuses
    for start, end in [(False, True), (False, 1), (0, True)]:
        with pytest.raises(InvalidInterval, match="ticks must be integers"):
            build_hypergraph([hyperedge("e", ["a", "b"], start, end)])
    h = build_hypergraph([hyperedge("e", ["a", "b"], 0, 1)])
    edges, _ = read_network(write_network(h))
    assert build_hypergraph(edges) == h


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("id", "", InvalidVertexId, "edge id must be a nonempty string, got ''"),
        ("participants", frozenset(["a", ""]), InvalidVertexId,
         "edge 'e': participant must be a nonempty string, got ''"),
        ("participants", frozenset(["a"]), TooFewParticipants,
         "edge 'e' has 1 participant(s), need >= 2"),
        ("start", False, InvalidInterval, "edge 'e': ticks must be integers"),
        ("end", MAX_TICK + 1, InvalidInterval, "edge 'e': tick outside representable range"),
        ("start", 2, InvalidInterval, "edge 'e': start 2 > end 1"),
        ("id", "e\ud800", InvalidVertexId, "edge id 'e\\ud800' is not valid UTF-8"),
    ],
    ids=["empty-id", "empty-participant", "one-participant", "bool-tick",
         "out-of-range", "inverted", "lone-surrogate"],
)
def test_invalid_edge_cannot_be_constructed(field, value, error, message):
    fields = {"id": "e", "participants": frozenset(["a", "b"]), "start": 0, "end": 1}
    fields[field] = value
    valid = hyperedge("e", ["a", "b"], 0, 1)
    for construct in (
        lambda: TemporalHyperedge(**fields),
        lambda: hyperedge(fields["id"], fields["participants"], fields["start"], fields["end"]),
        lambda: dataclasses.replace(valid, **{field: value}),
    ):
        with pytest.raises(error) as err:
            construct()
        assert str(err.value) == message


@pytest.mark.parametrize(
    "edge_id, participants, message",
    [
        ("e\ud800", ["a", "b"], "edge id 'e\\ud800' is not valid UTF-8"),
        ("e", ["a\udc00", "b"], "edge 'e': participant 'a\\udc00' is not valid UTF-8"),
    ],
    ids=["edge-id", "participant"],
)
def test_ids_that_utf8_cannot_encode_rejected(edge_id, participants, message):
    with pytest.raises(InvalidVertexId) as err:
        build_hypergraph([hyperedge(edge_id, participants, 0, 1)])
    assert str(err.value) == message
    # astral and non-ASCII ids are fine
    build_hypergraph([hyperedge("é\U0001f600", ["a\U0001f600", "b"], 0, 1)])


def test_vertex_interning_is_dense_and_sorted(g1):
    assert g1.vertex_ids == ("a", "b", "c", "d")
    assert [g1.index_of(v) for v in g1.vertex_ids] == [0, 1, 2, 3]
    with pytest.raises(UnknownVertex):
        g1.index_of("z")


@st.composite
def edge_records(draw):
    n_vertices = draw(st.integers(2, 8))
    names = [f"v{i}" for i in range(n_vertices)]
    n_edges = draw(st.integers(0, 12))
    records = []
    for i in range(n_edges):
        k = draw(st.integers(2, min(4, n_vertices)))
        participants = draw(
            st.lists(st.sampled_from(names), min_size=k, max_size=k, unique=True)
        )
        start = draw(st.integers(0, 20))
        end = start + draw(st.integers(0, 20))
        records.append(hyperedge(f"e{i}", participants, start, end))
    return records


@given(edge_records())
@settings(max_examples=150)
def test_incidence_matches_naive_rebuild(records):
    """Differential check of the sorted index against a direct scan."""
    h = build_hypergraph(records)
    edges = h.edges
    assert [e.id for e in edges] == sorted(r.id for r in records)
    for vi, vertex in enumerate(h.vertex_ids):
        naive = sorted(
            (i for i, e in enumerate(edges) if vertex in e.participants),
            key=lambda i: (edges[i].start, edges[i].id),
        )
        assert list(h.incidence[vi]) == naive
    assert sum(len(lst) for lst in h.incidence) == sum(
        len(e.participants) for e in edges
    )
    assert set().union(*(e.participants for e in edges), set()) == set(h.vertex_ids)


@given(edge_records())
@settings(max_examples=60)
def test_build_is_pure(records):
    a = build_hypergraph(records)
    b = build_hypergraph(records)
    assert a == b


@given(edge_records())
@settings(max_examples=60)
def test_stats_match_input(records):
    h = build_hypergraph(records)
    st_ = stats(h)
    assert st_.edge_count == len(records)
    assert st_.vertex_count == len({p for r in records for p in r.participants})
    assert sum(st_.participant_histogram.values()) == len(records)


# --- one validation, and the network as columns --------------------------------


@pytest.mark.parametrize(
    "edge_id, participants, start, end",
    [
        ("e\ud800", ["a", "b"], 0, 1),
        ("e", ["a\udc00", "b"], 0, 1),
        ("e", ["a"], 0, 1),
        ("e", ["a", "b"], 0, 2**62 + 1),
        ("e", ["a", "b"], 2, 1),
    ],
    ids=["surrogate-id", "surrogate-participant", "one-participant", "out-of-range",
         "inverted"],
)
def test_parser_and_constructor_share_one_reason(edge_id, participants, start, end):
    with pytest.raises(HypergraphError) as built:
        hyperedge(edge_id, participants, start, end)
    record = {"id": edge_id, "participants": participants, "start": start, "end": end}
    with pytest.raises(RecordInvalid) as parsed:
        read_network(json.dumps({"edges": [record]}).encode())
    assert str(parsed.value) == f"edge record 0: {parsed.value.reason}"
    assert parsed.value.reason == str(built.value)


@pytest.mark.parametrize(
    "record, built_message, reason",
    [
        ({"id": ""}, "edge id must be a nonempty string, got ''", "missing or empty 'id'"),
        ({"start": False}, "edge 'e': ticks must be integers",
         "'start' must be an integer or ISO-8601 string"),
    ],
    ids=["empty-id", "bool-tick"],
)
def test_json_shape_reasons_come_before_the_edge_check(record, built_message, reason):
    # the parser refuses a JSON value of the wrong shape before check_edge sees it
    fields = {"id": "e", "participants": ["a", "b"], "start": 0, "end": 1, **record}
    with pytest.raises(HypergraphError, match=f"^{built_message}$"):
        hyperedge(fields["id"], fields["participants"], fields["start"], fields["end"])
    with pytest.raises(RecordInvalid) as parsed:
        read_network(json.dumps({"edges": [fields]}).encode())
    assert parsed.value.reason == reason


_NAME_BAD_PARTICIPANT = """
import json
from thd import hyperedge, read_network
from thd.errors import HypergraphError, RecordInvalid
parts = ["c", "b\\udc00", "a\\ud800"]
try:
    hyperedge("e", parts, 0, 1)
except HypergraphError as exc:
    built = str(exc)
try:
    record = {"id": "e", "participants": parts, "start": 0, "end": 1}
    read_network(json.dumps({"edges": [record]}).encode())
except RecordInvalid as exc:
    print(json.dumps([built, exc.reason]))
"""


def test_smallest_bad_participant_is_named_under_any_hash_seed():
    names = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(thd.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", _NAME_BAD_PARTICIPANT], env=env,
                             capture_output=True, text=True, check=True).stdout
        names.append(json.loads(out))
    expect = "edge 'e': participant 'a\\ud800' is not valid UTF-8"
    assert names == [[expect, expect]] * 2


def test_the_network_holds_no_record_per_edge(g1):
    assert [f.name for f in dataclasses.fields(TimeVaryingHypergraph)] == [
        "vertex_ids", "edge_ids", "edge_starts", "edge_ends", "edge_members", "incidence",
        "edge_order", "_vertex_index",
    ]
    held = [getattr(g1, f.name) for f in dataclasses.fields(g1)]
    assert not any(isinstance(x, TemporalHyperedge) for column in held for x in column)
    assert g1.edges == (hyperedge("e1", ["a", "b"], 1, 3), hyperedge("e2", ["b", "c"], 2, 5),
                        hyperedge("e3", ["a", "c", "d"], 4, 4))


def test_parsed_rows_build_the_network_the_records_build(g1):
    edges, _ = read_network(write_network(g1))
    rows = list(edges)
    assert rows == [
        ("e1", ("a", "b"), 1, 3), ("e2", ("b", "c"), 2, 5), ("e3", ("a", "c", "d"), 4, 4)
    ]
    h = build_hypergraph(edges)
    assert h == g1 == build_hypergraph(rows[::-1])
    assert all(h.edge_ids[i] is row[0] for i, row in enumerate(rows))
    assert h.edge_by_id("e2") == hyperedge("e2", ["b", "c"], 2, 5)
    assert stats(h) == stats(g1)
    assert write_network(h) == write_network(g1)


def test_parsed_columns_bound_the_bytes_retained_per_edge():
    # gen_random 4,000 V / 20,000 E, CPython 3.10, 3.11 and 3.13: a row tuple and a
    # participant tuple per edge retained 233-243 B/edge after the read and 370-418
    # after read and build; the columns retain 164-176 and 292-303
    data = write_network(gen_random(GenParams(vertex_count=4000, edge_count=20_000, seed=1,
                                              max_participants=4)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        edges, _ = read_network(data)
        read = tracemalloc.get_traced_memory()[0] - base
        h = build_hypergraph(edges)
        built = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert h.edge_count == 20_000
    assert read / h.edge_count < 205
    assert built / h.edge_count < 335


def test_no_record_is_made_from_read_to_results(g1, monkeypatch):
    def refuse(self):
        raise AssertionError("a TemporalHyperedge was constructed")

    data = write_network(g1)
    monkeypatch.setattr(TemporalHyperedge, "__post_init__", refuse)
    h = build_hypergraph(read_network(data)[0])
    plan = SimulationPlan(metrics=tuple(Metric), t0=0, keep_predecessors=True)
    result = run(h, plan)
    for labels in result.labels:
        for target in labels.values:
            validate_walk(h, reconstruct_walk(labels, target))
    assert write_results(result) == write_results(run(g1, plan))

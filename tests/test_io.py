import json
import sys
from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thd import (
    GenParams,
    Metric,
    SimulationPlan,
    build_hypergraph,
    fastest,
    gen_random,
    read_network,
    run,
    shortest,
    write_network,
    write_results,
)
from thd.errors import MalformedJson, MixedTimeEncodings, RecordInvalid
from thd import io as thd_io
from thd.io import canonical_json_bytes, entry_labels


def test_empty_document():
    edges, report = read_network(b'{"name":"g","edges":[]}')
    assert list(edges) == []
    assert report.name == "g"
    assert report.record_count == 0
    assert report.time_encoding is None


def test_round_trip_identity(g1):
    data = write_network(g1, name="g1")
    edges, report = read_network(data)
    assert build_hypergraph(edges) == g1
    assert report.schema == 1
    assert report.time_encoding == "ticks"


def test_write_is_canonical(g1):
    assert write_network(g1) == write_network(g1)
    # canonical encoding sorts keys, so a permuted document differs from
    # ours only until it is re-read and re-written
    doc = json.loads(write_network(g1))
    permuted = json.dumps(doc, sort_keys=False).encode()
    edges, _ = read_network(permuted)
    assert write_network(build_hypergraph(edges)) == write_network(g1)


def test_calendar_timestamps_become_ms_ticks():
    doc = {
        "schema": 1,
        "name": "cal",
        "edges": [
            {
                "id": "e1",
                "participants": ["a", "b"],
                "start": "1970-01-01T00:00:01Z",
                "end": "1970-01-01T00:00:02.500+00:00",
            }
        ],
    }
    edges, report = read_network(json.dumps(doc).encode())
    [(_, _, start, end)] = edges
    assert (start, end) == (1000, 2500)
    assert report.time_encoding == "calendar"


def test_mixed_encodings_within_record():
    doc = {"edges": [{"id": "e", "participants": ["a", "b"], "start": 1, "end": "1970-01-01T00:00:01Z"}]}
    with pytest.raises(MixedTimeEncodings):
        read_network(json.dumps(doc).encode())


def test_mixed_encodings_across_records():
    doc = {
        "edges": [
            {"id": "e1", "participants": ["a", "b"], "start": 1, "end": 2},
            {
                "id": "e2",
                "participants": ["b", "c"],
                "start": "2023-04-01T00:00:00Z",
                "end": "2023-04-01T00:00:00Z",
            },
        ]
    }
    with pytest.raises(MixedTimeEncodings):
        read_network(json.dumps(doc).encode())


def test_naive_timestamp_rejected():
    doc = {"edges": [{"id": "e", "participants": ["a", "b"], "start": "2023-04-01T00:00:00", "end": "2023-04-01T00:00:00"}]}
    with pytest.raises(RecordInvalid):
        read_network(json.dumps(doc).encode())


# one grammar on every supported Python: YYYY-MM-DD, T or a space, HH:MM:SS,
# an optional 3- or 6-digit fraction, then Z or +-HH:MM
@pytest.mark.parametrize(
    "text, ms",
    [
        ("1970-01-01T00:00:01Z", 1000),
        ("1970-01-01 00:00:01Z", 1000),
        ("1970-01-01T00:00:02.500+00:00", 2500),
        ("1970-01-01T00:00:00.123456Z", 123),
        ("1970-01-01T00:00:00.999999-00:00", 999),
        ("1970-01-01T01:00:00+01:00", 0),
        ("1969-12-31T19:00:00-05:00", 0),
        ("2024-02-29T23:59:59.001+23:59", 1709164859001),
    ],
)
def test_calendar_grammar_accepts(text, ms):
    doc = {"edges": [{"id": "e", "participants": ["a", "b"], "start": text, "end": text}]}
    [(_, _, start, end)], _ = read_network(json.dumps(doc).encode())
    assert start == end == ms


@pytest.mark.parametrize(
    "text, reason",
    [
        ("2024-01-01T00:00:00", "has no UTC offset"),
        ("2024-01-01 00:00:00.123", "has no UTC offset"),
        ("2024-01-01", "not an ISO-8601 timestamp"),
        ("20240101T000000Z", "not an ISO-8601 timestamp"),
        ("2024-01-01T000000Z", "not an ISO-8601 timestamp"),
        ("2024-W01-1T00:00:00Z", "not an ISO-8601 timestamp"),
        ("2024-01-01t00:00:00Z", "not an ISO-8601 timestamp"),
        ("2024-01-01x00:00:00Z", "not an ISO-8601 timestamp"),
        ("2024-01-01T00:00Z", "not an ISO-8601 timestamp"),
        ("2024-01-01T00Z", "not an ISO-8601 timestamp"),
        *((f"2024-01-01T00:00:00.{'1' * n}Z", "not an ISO-8601 timestamp") for n in (1, 2, 4, 5, 7)),
        ("2024-01-01T00:00:00,123Z", "not an ISO-8601 timestamp"),
        ("2024-01-01T00:00:00+0000", "not an ISO-8601 timestamp"),
        ("2024-01-01T00:00:00+00", "not an ISO-8601 timestamp"),
        ("2024-01-01T00:00:00+00:00:00", "not an ISO-8601 timestamp"),
        ("2024-01-01T00:00:00z", "not an ISO-8601 timestamp"),
        (" 2024-01-01T00:00:00Z", "not an ISO-8601 timestamp"),
        ("2024-01-01T00:00:00Z\n", "not an ISO-8601 timestamp"),
        ("\uff12\uff10\uff12\uff14-01-01T00:00:00Z", "not an ISO-8601 timestamp"),
        ("2024-13-01T00:00:00Z", "not an ISO-8601 timestamp"),
        ("2023-02-29T00:00:00Z", "not an ISO-8601 timestamp"),
        ("2024-01-01T24:00:00Z", "not an ISO-8601 timestamp"),
        ("2024-01-01T23:59:60Z", "not an ISO-8601 timestamp"),
        ("2024-01-01T00:00:00+24:00", "not an ISO-8601 timestamp"),
        ("2024-13-01T00:00:00", "not an ISO-8601 timestamp"),
    ],
)
def test_calendar_grammar_refuses(text, reason):
    doc = {"edges": [{"id": "e", "participants": ["a", "b"], "start": text, "end": text}]}
    with pytest.raises(RecordInvalid) as err:
        read_network(json.dumps(doc).encode())
    assert reason in err.value.reason and repr(text) in err.value.reason


@pytest.mark.parametrize(
    "record, reason_part",
    [
        ({"participants": ["a", "b"], "start": 0, "end": 1}, "id"),
        ({"id": "e", "participants": ["a"], "start": 0, "end": 1}, "participant"),
        ({"id": "e", "participants": ["a", "a"], "start": 0, "end": 1}, "duplicate"),
        ({"id": "e", "participants": ["a", "b"], "start": 5, "end": 1}, "start"),
        ({"id": "e", "participants": ["a", "b"], "start": 0.5, "end": 1}, "integer"),
        ({"id": "e", "participants": ["a", "b"], "start": True, "end": 1}, "integer"),
        ({"id": "e", "participants": "ab", "start": 0, "end": 1}, "array"),
        ({"id": "e", "participants": ["a", "b"], "start": 0}, "end"),
        ({"id": "e", "participants": ["a", "b"], "start": 0, "end": 10**30}, "range"),
        ("not an object", "object"),
    ],
)
def test_invalid_records_strict(record, reason_part):
    doc = {"edges": [record]}
    with pytest.raises(RecordInvalid) as err:
        read_network(json.dumps(doc).encode())
    assert err.value.index == 0
    assert reason_part in err.value.reason


@pytest.mark.parametrize(
    "start, end", [(0, 1), ("2024-01-01T00:00:00Z", "2024-01-01T00:00:01Z")],
    ids=["ticks", "calendar"],
)
def test_participants_are_interned_across_records(start, end):
    edges = [
        {"id": f"e{i}", "participants": ["\u00e9t\u00e9", other], "start": start, "end": end}
        for i, other in enumerate("bc")
    ]
    data = json.dumps({"schema": 1, "edges": edges}, ensure_ascii=False).encode()
    (_, first, _, _), (_, second, _, _) = read_network(data)[0]
    (a,) = set(first) - {"b"}
    (b,) = set(second) - {"c"}
    assert a == "\u00e9t\u00e9"
    assert a is b


def test_lenient_skips_and_counts():
    doc = {
        "edges": [
            {"id": "e1", "participants": ["a", "b"], "start": 0, "end": 1},
            {"id": "bad", "participants": ["a"], "start": 0, "end": 1},
            {"id": "e1", "participants": ["a", "x"], "start": 0, "end": 1},
            {"id": "e2", "participants": ["b", "c"], "start": 2, "end": 3},
            {"id": "e3", "participants": ["y", "z"], "start": 5, "end": 4},
        ]
    }
    edges, report = read_network(json.dumps(doc).encode(), strict=False)
    assert [edge_id for edge_id, *_ in edges] == ["e1", "e2"]
    assert [index for index, _ in report.skipped] == [1, 2, 4]
    assert "duplicate edge id" in report.skipped[1][1]
    # a skipped record leaves no trace: x, y and z appear only in skipped records
    assert list(edges) == [("e1", ("a", "b"), 0, 1), ("e2", ("b", "c"), 2, 3)]
    assert build_hypergraph(edges).vertex_ids == ("a", "b", "c")


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"   ",
        b"[]",
        b"{",
        b'{"edges": [',
        b'{"edges": [{]}',
        b'{"edges": [{"id": "e", "participants": ["a", "b"], "start": 1, "end": 2} , ]}',
        b'{"edges": [{"id": "e", "participants": ["a", "b"], "start": 1, "end": 2} {}]}',
        b'{"edges": []} trailing',
        b'{"edges": [] "name": "x"}',
        b'{"edges": [NaN]}',
        b'{"schema": 2, "edges": []}',
        b'{"edges": [], "edges": []}',
        b'{"a": \xff\xfe}',
        b'{"a": ' + b"[" * 20000 + b"]" * 20000 + b", \"edges\": []}",
    ],
)
def test_malformed_documents(data):
    with pytest.raises(MalformedJson):
        read_network(data)


def test_missing_edges_key_is_empty():
    edges, report = read_network(b'{"name": "g"}')
    assert list(edges) == []


def test_multi_chunk_streaming():
    # force the incremental reader across many chunk boundaries
    records = [
        {"id": f"e{i}", "participants": [f"v{i}", f"v{i+1}", "pad" + "x" * 300], "start": i, "end": i + 2}
        for i in range(2000)
    ]
    data = json.dumps({"schema": 1, "name": "big", "edges": records}).encode()
    assert len(data) > 5 * 64 * 1024
    edges, report = read_network(data)
    assert len(edges) == 2000
    assert report.record_count == 2000


class _ShortReads:
    """A stream that returns at most `step` bytes per read, to hit every buffer edge."""

    def __init__(self, data, step):
        self._data, self._pos, self._step = data, 0, step

    def read(self, n):
        chunk = self._data[self._pos : self._pos + min(n, self._step)]
        self._pos += len(chunk)
        return chunk


def test_malformed_offset_is_document_offset_at_any_read_size(monkeypatch):
    records = [
        {"id": f"e{i}", "participants": [f"v{i}", "\u00e9" * (1 + i % 50)], "start": i, "end": i + 2}
        for i in range(1500)
    ]
    text = json.dumps({"schema": 1, "edges": records}, separators=(",", ":"), ensure_ascii=False)
    invalid = text.replace('"start":1200,', '"start":@,')
    truncated = text[: text.index('"id":"e1000"') + 8]
    for doc in (invalid, truncated):
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(doc)
        offset = whole.value.pos  # a character offset, past the first 64 KiB chunk
        assert offset > 64 * 1024
        # 1-byte chunks refill inside every value and every UTF-8 sequence;
        # 1-byte reads are gathered into whole 64 KiB chunks
        for chunk, step in ((1, 1), (64 * 1024, 1), (64 * 1024, 64 * 1024)):
            monkeypatch.setattr(thd_io, "_CHUNK", chunk)
            with pytest.raises(MalformedJson) as err:
                read_network(_ShortReads(doc.encode(), step))
            assert str(err.value) == f"truncated or invalid JSON near offset {offset}"


def _too_many_digits():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return "9" * (limit + 1) if limit else None


@pytest.mark.parametrize(
    "value, reason",
    [
        ("NaN", "non-finite number 'NaN'"),
        ("-Infinity", "non-finite number '-Infinity'"),
        (_too_many_digits(), "integer string conversion"),
    ],
    ids=["nan", "-infinity", "digits"],
)
def test_value_more_text_cannot_mend_fails_at_once(value, reason):
    if value is None:
        pytest.skip("this interpreter has no int digit limit")
    records = [{"id": f"e{i}", "participants": ["a", "b"], "start": 0, "end": i} for i in range(20_000)]
    head = '{"edges":[{"id":"e","participants":["a","b"],"start":1,"end":%s},' % value
    data = (head + json.dumps(records)[1:] + "}").encode()
    assert len(data) > 10 * thd_io._CHUNK
    stream = _ShortReads(data, len(data))
    with pytest.raises(MalformedJson) as err:
        read_network(stream)
    assert str(err.value).startswith("invalid JSON value at offset 10: ")
    assert reason in str(err.value)
    assert stream._pos <= thd_io._CHUNK  # not "truncated" after reading it all


def test_short_reads_refill_whole_chunks(monkeypatch):
    # a refill re-decodes the value it stopped in from its first character,
    # so one refill per short read would cost time quadratic in its length
    records = [
        {"id": f"e{i}", "participants": [f"v{i}", "w" * (1 + i % 200)], "start": i, "end": i + 1}
        for i in range(1200)
    ]
    data = json.dumps({"schema": 1, "edges": records}).encode()
    assert len(data) > 2 * thd_io._CHUNK
    expected = _edge_tuples(read_network(data)[0])
    fills = []
    fill = thd_io._IncrementalReader._fill

    def counting_fill(reader):
        fills.append(len(reader.buf))
        fill(reader)

    monkeypatch.setattr(thd_io._IncrementalReader, "_fill", counting_fill)
    edges, _ = read_network(_ShortReads(data, 1))
    assert _edge_tuples(edges) == expected
    assert len(fills) <= len(data) // thd_io._CHUNK + 2


def _edge_tuples(edges):
    return [(edge_id, frozenset(members), start, end) for edge_id, members, start, end in edges]


def test_single_value_over_limit_rejected(monkeypatch):
    monkeypatch.setattr(thd_io, "MAX_VALUE_BYTES", 100_000)
    record = {"id": "e", "participants": ["a", "b" * 200_000], "start": 0, "end": 1}
    data = json.dumps({"edges": [record]}).encode()
    with pytest.raises(MalformedJson, match="single value exceeds size limit"):
        read_network(data)


def test_document_larger_than_value_limit_parses(monkeypatch):
    # the limit is per value: many small records may add up to far more
    monkeypatch.setattr(thd_io, "MAX_VALUE_BYTES", 10_000)
    records = [
        {"id": f"e{i}", "participants": [f"v{i % 97}", f"w{i % 89}"], "start": i, "end": i + 3}
        for i in range(20_000)
    ]
    data = json.dumps({"edges": records}).encode()
    assert len(data) > 100 * thd_io.MAX_VALUE_BYTES
    buffered = []
    fill = thd_io._IncrementalReader._fill

    def recording_fill(reader):
        fill(reader)
        buffered.append(len(reader.buf))

    monkeypatch.setattr(thd_io._IncrementalReader, "_fill", recording_fill)
    edges, report = read_network(data)
    assert report.record_count == 20_000
    assert max(buffered) <= 2 * 64 * 1024  # consumed text is dropped, not kept
    assert _edge_tuples(edges)[-1] == ("e19999", frozenset({"v17", "w63"}), 19999, 20002)


def test_whitespace_and_chunk_boundaries_parse_alike(monkeypatch):
    records = [
        {"id": f"e{i}", "participants": [f"v{i}", f"v{i + 1}", "p" * (1 + i % 300)], "start": -i, "end": i * 7}
        for i in range(1500)
    ]
    # an unknown top-level number, decoded on its own, may end at a chunk edge
    doc = {"count": 123456789, "schema": 1, "name": "ws", "edges": records}
    compact = json.dumps(doc, separators=(",", ":")).encode()
    assert len(compact) > 3 * 64 * 1024
    expected, _ = read_network(compact)
    assert len(expected) == 1500
    spaced = [
        json.dumps(doc, indent=2).encode(),
        json.dumps(doc, separators=(" ,\n\t", " : ")).encode(),
        b"\r\n " + compact.replace(b",", b" \n, ") + b" \n",
    ]
    for data in spaced:
        assert _edge_tuples(read_network(data)[0]) == _edge_tuples(expected)
    # 3-byte chunks refill inside every value; 2-byte reads are gathered
    # into whole chunks
    for chunk, step in ((3, 2), (64 * 1024 - 1, 64 * 1024 - 1)):
        monkeypatch.setattr(thd_io, "_CHUNK", chunk)
        for data in (compact, spaced[1]):
            edges, _ = read_network(_ShortReads(data, step))
            assert _edge_tuples(edges) == _edge_tuples(expected)


def test_lenient_skips_match_strict_reasons():
    records = [
        {"id": "e1", "participants": ["a", "b"], "start": 0, "end": 1},
        {"id": "e2", "participants": ["a", "b"], "start": True, "end": 1},
        {"id": "e3", "participants": ["a"], "start": 0, "end": 1},
        {"id": "e1", "participants": ["b", "c"], "start": 0, "end": 1},
        {"id": "é4", "participants": ["a", "b", "a"], "start": 0, "end": 1},
        {"id": "e5", "participants": ["a", "b"], "start": 2, "end": 1},
        {"id": "e6", "participants": ["a", 7], "start": 0, "end": 1},
        {"id": "e7", "participants": ["a", "b"], "start": 0, "end": 2**62 + 1},
        {"id": "", "participants": ["a", "b"], "start": 0, "end": 1},
        {"id": "e8\U0001f600", "participants": ["</x>", "b\\\""], "start": -5, "end": -5},
        ["e9"],
        {"id": "e10", "participants": ["a", ""], "start": 0, "end": 1},
        {"id": "e11", "participants": ["a", "b"], "end": 1},
        {"id": "e12", "participants": ["a", "b"], "start": 0, "end": 1.0},
    ]
    data = json.dumps({"edges": records}).encode()
    edges, report = read_network(data, strict=False)
    assert [edge_id for edge_id, *_ in edges] == ["e1", "e8\U0001f600"]
    assert list(report.skipped) == [
        (1, "'start' must be an integer or ISO-8601 string"),
        (2, "edge 'e3' has 1 participant(s), need >= 2"),
        (3, "duplicate edge id 'e1'"),
        (4, "duplicate participant"),
        (5, "edge 'e5': start 2 > end 1"),
        (6, "participants must be nonempty strings"),
        (7, "edge 'e7': tick outside representable range"),
        (8, "missing or empty 'id'"),
        (10, "edge record must be an object"),
        (11, "participants must be nonempty strings"),
        (12, "missing 'start'"),
        (13, "'end' must be an integer or ISO-8601 string"),
    ]
    for index, reason in report.skipped:
        with pytest.raises(RecordInvalid) as err:
            read_network(json.dumps({"edges": [records[0], records[index]]}).encode())
        assert (err.value.index, err.value.reason) == (1, reason)


@given(st.binary(max_size=400))
@settings(max_examples=300)
def test_arbitrary_bytes_never_crash(data):
    try:
        read_network(data)
    except (MalformedJson, MixedTimeEncodings, RecordInvalid):
        pass


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_network_round_trip_seeded(seed):
    h = gen_random(GenParams(vertex_count=6, edge_count=10, span=30, seed=seed))
    edges, _ = read_network(write_network(h))
    assert build_hypergraph(edges) == h


# --- result serialization ---------------------------------------------------


def test_results_json_stable_bytes(g1):
    plan = SimulationPlan(metrics=(Metric.FOREMOST,), t0=0)
    result = run(g1, plan)
    assert write_results(result, "json") == write_results(result, "json")
    doc = json.loads(write_results(result, "json"))
    assert doc["kind"] == "thd-result"
    assert len(doc["sources"]) == 4


def test_results_csv_g1_row_count(g1):
    plan = SimulationPlan(metrics=(Metric.FOREMOST,), t0=0)
    result = run(g1, plan)
    lines = write_results(result, "csv").decode().splitlines()
    assert lines[0] == "source,vertex,metric,value"
    assert len(lines) == 1 + 16  # 4 sources x 4 reached vertices
    assert lines[1] == "a,a,foremost,0"


def test_results_empty(g1):
    plan = SimulationPlan(metrics=(Metric.FOREMOST,), sources=(), t0=0)
    result = run(g1, plan)
    a = write_results(result, "json")
    assert a == write_results(result, "json")
    assert json.loads(a)["sources"] == []
    assert write_results(result, "csv").decode().splitlines() == ["source,vertex,metric,value"]


def _whole_document(result):
    """The result as one canonical_json_bytes of the whole document."""
    sources = [thd_io.source_doc(g) for _, g in groupby(result.labels, attrgetter("source"))]
    return canonical_json_bytes({"schema": 1, "kind": "thd-result", "provenance": result.provenance,
                                 "sources": sources, "summary": result.summary})


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "plan",
    [
        SimulationPlan(metrics=tuple(Metric), sample_size=8, sample_seed=1, keep_predecessors=True),
        SimulationPlan(metrics=tuple(Metric), sample_size=8, sample_seed=2, t0=0, horizon=30),
        SimulationPlan(metrics=tuple(Metric), sample_size=0),
    ],
    ids=["witnesses", "horizon", "no-sources"],
)
def test_results_json_joins_the_whole_document(seed, plan):
    # write_results encodes one source at a time between the document's prefix and summary
    h = gen_random(GenParams(vertex_count=25, edge_count=80, span=60, seed=seed))
    name = {v: f"\u00e9{v}\U0001f600" for v in h.vertex_ids}
    h = build_hypergraph((e.id, [name[p] for p in e.participants], e.start, e.end) for e in h.edges)
    result = run(h, plan)
    data = write_results(result, "json")
    assert data == _whole_document(result)
    assert (b'"sources":[]' in data) == (plan.sample_size == 0)


def test_unknown_format_rejected(g1):
    result = run(g1, SimulationPlan(t0=0))
    with pytest.raises(ValueError):
        write_results(result, "xml")


def test_results_round_trip_structurally(g1):
    metrics = (Metric.FOREMOST, Metric.SHORTEST, Metric.FASTEST)
    result = run(g1, SimulationPlan(metrics=metrics, t0=0, keep_predecessors=True))
    data = write_results(result, "json")
    doc = json.loads(data)
    assert canonical_json_bytes(doc) == data
    assert (doc["schema"], doc["kind"]) == (1, "thd-result")
    assert (doc["provenance"], doc["summary"]) == (result.provenance, result.summary)
    # each source's document decodes back into its labels
    own = {v: v for v in g1.vertex_ids}
    shared = {x: x for x in (*g1.edge_ends, *g1.edge_starts, *g1.edge_ids)}
    decoded = tuple(
        entry_labels(own, shared, d["source"], d["t0"], m, d["metrics"][m.value])
        for d in doc["sources"] for m in metrics
    )
    assert decoded == result.labels


def test_source_doc_shares_predecessors_and_walk_tuples():
    h = gen_random(GenParams(vertex_count=30, edge_count=90, span=60, seed=4))
    source = h.vertex_ids[0]
    labels = [shortest(h, source, 0, h.vertex_count), fastest(h, source, 0)]
    doc = thd_io.source_doc(labels)
    for lab in labels:
        entry = doc["metrics"][lab.metric.value]
        assert entry["predecessors"] is lab.predecessors
        assert len(entry["witnesses"]) == len(lab.values) > 1
        for v, walk in lab.witnesses.items():
            assert entry["witnesses"][v]["hops"] is walk.hops
            assert entry["witnesses"][v]["arrivals"] is walk.arrivals


def test_canonical_json_bytes_deterministic():
    a = canonical_json_bytes({"b": 1, "a": [1.5, 2], "c": None})
    b = canonical_json_bytes({"c": None, "a": [1.5, 2], "b": 1})
    assert a == b
    assert a.endswith(b"\n")

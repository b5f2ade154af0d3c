"""Network ingestion and result serialization.

One self-describing JSON document is the wire contract::

    {
      "schema": 1,
      "name": "example",
      "time_unit": "ticks",
      "edges": [
        {"id": "e1", "participants": ["alice", "bob"], "start": 1, "end": 3}
      ]
    }

``start``/``end`` are either integer ticks or ISO-8601 UTC timestamps
(converted to milliseconds since the epoch); mixing the two encodings in
one document is rejected. Parsing is incremental: each edge record is
decoded, checked and added to columns, and the buffer is trimmed in chunks,
dropping the consumed text each time the next 64 KiB is read. The buffer
stays bounded by the largest single value, which ``MAX_VALUE_BYTES``
limits on its own, plus a chunk, not by the document. Every malformed
record is reported with its index. Strict mode aborts on the first bad
record, lenient mode skips and counts them.

All emitted JSON is canonical (sorted keys, compact separators, shortest
float repr, trailing newline) so byte comparison is a valid equality
check for results. This module alone knows a result's layout: it encodes
and decodes the per-source documents that checkpoint records also carry.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import re
from codecs import getincrementaldecoder
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, BinaryIO, Iterable, Mapping

from .core import EdgeColumns, Tick, TimeVaryingHypergraph, check_edge
from .errors import HypergraphError, MalformedJson, MixedTimeEncodings, RecordInvalid
from .paths import DistanceLabels, Metric, TemporalWalk

if TYPE_CHECKING:
    from .simulate import DiffusionResult

SCHEMA_VERSION = 1

# hard ceiling on any single JSON value (one edge record, one metadata
# field); inputs beyond this are hostile, not data
MAX_VALUE_BYTES = 8 * 1024 * 1024
_CHUNK = 64 * 1024
_WS = re.compile(r"[ \t\n\r]*")
_COMMA = re.compile(r"[ \t\n\r]*,[ \t\n\r]*")
# the one timestamp grammar on every Python (``fromisoformat``'s grew in 3.11):
# YYYY-MM-DD, T or a space, HH:MM:SS, an optional 3- or 6-digit fraction, Z or +-HH:MM
_CALENDAR = re.compile(r"\d{4}-\d\d-\d\d[T ]\d\d:\d\d:\d\d(\.\d{3}(\d{3})?)?(Z|[+-]\d\d:\d\d)?", re.ASCII)


def canonical_json_bytes(obj: object) -> bytes:
    """Deterministic JSON encoding: byte-equal iff structurally equal."""
    text = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    )
    return (text + "\n").encode("utf-8")


@dataclass(frozen=True)
class ReadReport:
    """Document metadata plus what lenient mode skipped."""

    name: str | None
    time_unit: str | None
    schema: int | None
    time_encoding: str | None  # "ticks" | "calendar" | None (no records)
    record_count: int
    skipped: tuple[tuple[int, str], ...]


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name!r}")


class _IncrementalReader:
    """Pull-based JSON scanner over a byte stream with bounded buffering."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self._utf8 = getincrementaldecoder("utf-8")()
        self._decoder = json.JSONDecoder(parse_constant=_reject_constant)
        self.buf = ""
        self.pos = 0
        self.eof = False
        self.dropped = 0  # characters trimmed off the buffer's front so far

    def _fill(self) -> None:
        if self.eof:
            return
        # a full chunk, as BufferedReader.read gives: a short read must not
        # make the next raw_decode restart a long value for a few bytes
        chunk = bytearray()
        while len(chunk) < _CHUNK:
            part = self._stream.read(_CHUNK - len(chunk))
            if not part:
                self.eof = True
                break
            chunk += part
        try:
            text = self._utf8.decode(chunk, final=self.eof)
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"invalid UTF-8: {exc}") from None
        # drop the consumed text here, where the buffer is copied anyway
        self.dropped += self.pos
        self.buf = self.buf[self.pos :] + text
        self.pos = 0

    def skip_ws(self) -> None:
        self.pos = _WS.match(self.buf, self.pos).end()
        while self.pos == len(self.buf) and not self.eof:
            self._fill()
            self.pos = _WS.match(self.buf, self.pos).end()

    def peek(self) -> str | None:
        self.skip_ws()
        return self.buf[self.pos] if self.pos < len(self.buf) else None

    def expect(self, char: str) -> None:
        got = self.peek()
        if got != char:
            raise MalformedJson(f"expected {char!r}, found {got!r}")
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() is None

    def value(self) -> object:
        """Decode one JSON value, growing the buffer as needed."""
        self.skip_ws()
        while True:
            try:
                val, end = self._decoder.raw_decode(self.buf, self.pos)
            except RecursionError:
                raise MalformedJson("value nested too deeply") from None
            except json.JSONDecodeError as exc:
                if self.eof:
                    offset = self.dropped + exc.pos  # a character offset
                    raise MalformedJson(f"truncated or invalid JSON near offset {offset}") from None
            except ValueError as exc:
                # a non-finite constant or an oversized int: more text cannot
                # mend it, and the decoder gives no position but the value's
                offset = self.dropped + self.pos
                raise MalformedJson(f"invalid JSON value at offset {offset}: {exc}") from None
            else:
                # a number at the buffer edge may continue in the next chunk
                if end < len(self.buf) or self.eof:
                    self.pos = end
                    return val
            if len(self.buf) - self.pos > MAX_VALUE_BYTES:
                raise MalformedJson("single value exceeds size limit")
            self._fill()


def _calendar_to_ms(text: str) -> int:
    """Milliseconds since the epoch of a ``_CALENDAR`` timestamp; ValueError otherwise."""
    try:
        if not _CALENDAR.fullmatch(text):
            raise ValueError
        dt = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
    except ValueError:  # off the grammar, or a field out of range
        raise ValueError(f"not an ISO-8601 timestamp: {text!r}") from None
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    delta = dt - datetime(1970, 1, 1, tzinfo=timezone.utc)
    return (delta.days * 86400 + delta.seconds) * 1000 + delta.microseconds // 1000


def _tick_field(record: dict, key: str, index: int) -> tuple[int, str]:
    """Extract start/end as (tick, encoding); encoding is 'ticks' or 'calendar'."""
    if key not in record:
        raise RecordInvalid(index, f"missing {key!r}")
    raw = record[key]
    if type(raw) is int:  # not bool
        return raw, "ticks"
    if isinstance(raw, str):
        try:
            return _calendar_to_ms(raw), "calendar"
        except ValueError as exc:
            raise RecordInvalid(index, str(exc)) from None
    raise RecordInvalid(index, f"{key!r} must be an integer or ISO-8601 string")


def _parse_record(
    record: object, index: int, encoding: str | None, edges: EdgeColumns, seen_ids: set[str]
) -> str:
    """Check one decoded edge record, add it to `edges` and return its time encoding.

    `record` comes from the JSON decoder, which makes only exact dict,
    list, str, int, float, bool and None objects, so ``type(x) is`` checks
    suffice. The checks run in a fixed order, so a bad record always gets
    the same reason; the edge's own checks, :func:`~thd.core.check_edge`,
    and then the duplicate id check run last, and any failure is raised as
    RecordInvalid. Only a record that passes them all touches `edges`.
    """
    if type(record) is not dict:
        raise RecordInvalid(index, "edge record must be an object")
    edge_id = record.get("id")
    if type(edge_id) is not str or not edge_id:
        raise RecordInvalid(index, "missing or empty 'id'")
    members = record.get("participants")
    if type(members) is not list:
        raise RecordInvalid(index, "'participants' must be an array")
    for p in members:
        if type(p) is not str or not p:
            raise RecordInvalid(index, "participants must be nonempty strings")
    if len(set(members)) != len(members):
        raise RecordInvalid(index, "duplicate participant")

    start, end = record.get("start"), record.get("end")
    if type(start) is int and type(end) is int:
        enc = "ticks"
    else:
        start, enc = _tick_field(record, "start", index)
        end, enc_end = _tick_field(record, "end", index)
        if enc != enc_end:
            raise MixedTimeEncodings(f"edge record {index} mixes tick and calendar timestamps")
    if encoding is not None and enc != encoding:
        raise MixedTimeEncodings(
            f"edge record {index} uses {enc!r} but document started with {encoding!r}"
        )
    try:
        check_edge(edge_id, members, start, end)
    except HypergraphError as exc:
        raise RecordInvalid(index, str(exc)) from None
    if edge_id in seen_ids:
        raise RecordInvalid(index, f"duplicate edge id {edge_id!r}")
    seen_ids.add(edge_id)
    edges.add(edge_id, members, start, end)
    return enc


def read_network(
    source: BinaryIO | bytes | bytearray, strict: bool = True
) -> tuple[EdgeColumns, ReadReport]:
    """Parse a network document into metadata and checked edge columns for build_hypergraph.

    Records are added to the columns as they are parsed; no tuple is built per edge.
    Raises MalformedJson for structural problems, MixedTimeEncodings when
    tick and calendar timestamps meet, and RecordInvalid for the first bad
    record in strict mode. In lenient mode bad records are skipped and
    listed in the report. Duplicate edge ids are record errors here so
    lenient ingest can drop them visibly.
    """
    if isinstance(source, (bytes, bytearray)):
        source = _stdio.BytesIO(bytes(source))
    reader = _IncrementalReader(source)

    name: str | None = None
    time_unit: str | None = None
    schema: int | None = None
    encoding: str | None = None
    edges = EdgeColumns()
    seen_ids: set[str] = set()
    skipped: list[tuple[int, str]] = []
    saw_edges = False

    reader.expect("{")
    first_member = True
    while True:
        ch = reader.peek()
        if ch == "}":
            reader.pos += 1
            break
        if not first_member:
            reader.expect(",")
        first_member = False
        key = reader.value()
        if not isinstance(key, str):
            raise MalformedJson("object key must be a string")
        reader.expect(":")
        if key == "edges":
            if saw_edges:
                raise MalformedJson("duplicate 'edges' array")
            saw_edges = True
            reader.expect("[")
            index = 0
            if reader.peek() == "]":
                reader.pos += 1
            else:
                while True:
                    raw = reader.value()
                    try:
                        encoding = _parse_record(raw, index, encoding, edges, seen_ids)
                    except RecordInvalid as exc:
                        if strict:
                            raise
                        skipped.append((exc.index, exc.reason))
                    index += 1
                    if sep := _COMMA.match(reader.buf, reader.pos):
                        reader.pos = sep.end()
                        continue
                    ch = reader.peek()
                    if ch == ",":
                        reader.pos += 1
                    elif ch == "]":
                        reader.pos += 1
                        break
                    else:
                        raise MalformedJson(f"expected ',' or ']' in edges, found {ch!r}")
        else:
            val = reader.value()
            if key == "name" and isinstance(val, str):
                name = val
            elif key == "time_unit" and isinstance(val, str):
                time_unit = val
            elif key == "schema":
                if not isinstance(val, int) or isinstance(val, bool) or val != SCHEMA_VERSION:
                    raise MalformedJson(f"unsupported schema {val!r}")
                schema = val
    if not reader.at_end():
        raise MalformedJson("trailing data after document")

    report = ReadReport(
        name=name,
        time_unit=time_unit,
        schema=schema,
        time_encoding=encoding,
        record_count=len(edges),
        skipped=tuple(skipped),
    )
    return edges, report


# --------------------------------------------------------------------------
# writers
# --------------------------------------------------------------------------


def write_network(
    network: TimeVaryingHypergraph, name: str = "network", time_unit: str = "ticks"
) -> bytes:
    """Serialize a network to the canonical document; read_network inverts this.

    The network is written from its columns, in id order.
    """
    ids = network.vertex_ids
    rows = zip(network.edge_ids, ([ids[m] for m in ms] for ms in network.edge_members),
               network.edge_starts, network.edge_ends)
    edges = [{"id": i, "participants": p, "start": s, "end": t} for i, p, s, t in rows]
    return canonical_json_bytes(
        {"schema": SCHEMA_VERSION, "name": name, "time_unit": time_unit, "edges": edges})


def walk_doc(walk: TemporalWalk) -> dict:
    """JSON form of a witness walk, as result files and ``thd query --json`` carry it."""
    return {"departure": walk.departure, "hops": walk.hops, "arrivals": walk.arrivals}


def source_doc(labels: Iterable[DistanceLabels]) -> dict:
    """One source's document, as result files and checkpoint records carry it.

    Built from that source's labels, one per metric, which give ``source``
    and ``t0``; it shares each values and predecessors map and each walk's
    tuples, which JSON writes as arrays, instead of copying them.
    """
    metrics_doc: dict[str, dict] = {}
    for lab in labels:
        entry: dict = {"values": lab.values}
        if lab.predecessors is not None:
            entry["predecessors"] = lab.predecessors
        if lab.witnesses is not None:
            entry["witnesses"] = {v: walk_doc(w) for v, w in lab.witnesses.items()}
        metrics_doc[lab.metric.value] = entry
    return {"source": lab.source, "t0": lab.t0, "metrics": metrics_doc}


def entry_labels(own: Mapping[str, str], shared: dict, source: str, t0: Tick,
                 metric: Metric, entry: dict) -> DistanceLabels:
    """One metric's entry of a ``source_doc`` as labels made of the network's own objects.

    The entry comes from a checkpoint record or a pool worker. ``own`` maps vertex ids,
    and ``shared`` ticks (starts entered after ends) and edge ids, to the network's
    objects; a tick it lacks is kept as given. Each ``(edge id, vertex)`` pair is added
    to ``shared``, so equal hops are one tuple. Raises ValueError unless every value is
    an int at a vertex of the network, and KeyError for a predecessor or hop off it.
    """
    values = entry["values"]
    if any(type(x) is not int for x in values.values()) or not own.keys() >= values.keys():
        raise ValueError(f"{metric.value} values are not integers at vertices of the network")
    values = {own[v]: shared.get(x, x) for v, x in values.items()}
    preds, walks = entry.get("predecessors"), entry.get("witnesses")

    def hop(e: str, v: str) -> tuple[str, str]:
        pair = (shared[e], own[v])
        return shared.setdefault(pair, pair)

    return DistanceLabels(
        source, t0, metric, values,
        None if preds is None else {own[v]: hop(*p) for v, p in preds.items()},
        None if walks is None else {
            own[v]: TemporalWalk(source, shared.get(w["departure"], w["departure"]),
                                 tuple([hop(*p) for p in w["hops"]]),
                                 tuple([shared.get(x, x) for x in w["arrivals"]]))
            for v, w in walks.items()
        },
    )


def write_results(result: "DiffusionResult", fmt: str = "json") -> bytes:
    """Serialize a simulation result; canonical JSON or flat CSV.

    CSV emits one row per (source, vertex, metric, value), ordered by
    source, then metric, then vertex.
    """
    if fmt == "json":
        # the whole document's canonical bytes (keys kind, provenance, schema, sources, summary)
        head = canonical_json_bytes({"kind": "thd-result", "provenance": result.provenance, "schema": 1})
        buf = _stdio.BytesIO()
        buf.write(head[:-2] + b',"sources":[')
        for i, (_, labels) in enumerate(groupby(result.labels, attrgetter("source"))):
            buf.write((b"," if i else b"") + canonical_json_bytes(source_doc(labels))[:-1])
        buf.write(b"]," + canonical_json_bytes({"summary": result.summary})[1:])
        return buf.getvalue()
    if fmt == "csv":
        out = _stdio.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["source", "vertex", "metric", "value"])
        for lab in result.labels:
            writer.writerows([lab.source, v, lab.metric.value, lab.values[v]] for v in sorted(lab.values))
        return out.getvalue().encode("utf-8")
    raise ValueError(f"unknown format {fmt!r} (json, csv)")

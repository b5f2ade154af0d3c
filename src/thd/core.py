"""Time-varying hypergraph data model.

A communication network is a set of hyperedges, each connecting two or more
vertices and available during a closed tick interval ``[start, end]``.
Instantaneous edges (``start == end``) are legal. The built structure is
immutable and carries a per-vertex incidence index sorted by edge start,
which is what every traversal in :mod:`thd.paths` walks.

Ticks are plain integers and unit-agnostic; the ingest layer converts
calendar timestamps to milliseconds since the epoch.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Mapping

from .errors import (
    DuplicateEdgeId,
    InvalidInterval,
    InvalidVertexId,
    TooFewParticipants,
    UnknownVertex,
)

Tick = int
EdgeRow = tuple[str, Collection[str], Tick, Tick]

MIN_TICK = -(2**62)
MAX_TICK = 2**62
# surrogates (a lone JSON "\ud800" escape) are the only code points UTF-8 rejects
_SURROGATE = re.compile("[\ud800-\udfff]")


def check_edge(edge_id: str, participants: Collection[str], start: Tick, end: Tick) -> None:
    """Raise a :class:`~thd.errors.HypergraphError` subclass naming the edge's first problem.

    The one validation of an edge: ``TemporalHyperedge(...)`` and the network
    parser both call it. Among several bad participants it names the smallest,
    so the message does not depend on the iteration order of a set.
    """
    if not isinstance(edge_id, str) or not edge_id:
        raise InvalidVertexId(f"edge id must be a nonempty string, got {edge_id!r}")
    if not edge_id.isascii() and _SURROGATE.search(edge_id):
        raise InvalidVertexId(f"edge id {edge_id!r} is not valid UTF-8")
    for p in participants:
        if not isinstance(p, str) or not p or not p.isascii() and _SURROGATE.search(p):
            # only now look for the smallest: a non-string or empty one first
            bad = [q for q in participants if not isinstance(q, str) or not q]
            if bad:
                raise InvalidVertexId(f"edge {edge_id!r}: participant must be a nonempty "
                                      f"string, got {min(bad, key=repr)!r}")
            p = min(q for q in participants if _SURROGATE.search(q))
            raise InvalidVertexId(f"edge {edge_id!r}: participant {p!r} is not valid UTF-8")
    if len(participants) < 2:
        raise TooFewParticipants(f"edge {edge_id!r} has {len(participants)} participant(s), need >= 2")
    # a bool tick would be written as false/true, which read_network rejects
    if bool in (type(start), type(end)) or not (isinstance(start, int) and isinstance(end, int)):
        raise InvalidInterval(f"edge {edge_id!r}: ticks must be integers")
    if not (MIN_TICK <= start <= MAX_TICK and MIN_TICK <= end <= MAX_TICK):
        raise InvalidInterval(f"edge {edge_id!r}: tick outside representable range")
    if start > end:
        raise InvalidInterval(f"edge {edge_id!r}: start {start} > end {end}")


@dataclass(frozen=True, slots=True)
class TemporalHyperedge:
    """One interaction: who participated, and when the edge was open.

    An invalid edge cannot be constructed: ``TemporalHyperedge(...)``,
    :func:`hyperedge` and ``dataclasses.replace`` raise what :func:`check_edge`
    raises.
    """

    id: str
    participants: frozenset[str]
    start: Tick
    end: Tick

    def __post_init__(self) -> None:
        check_edge(self.id, self.participants, self.start, self.end)


def hyperedge(edge_id: str, participants: Iterable[str], start: Tick, end: Tick) -> TemporalHyperedge:
    """Convenience constructor accepting any iterable of participant ids."""
    return TemporalHyperedge(edge_id, frozenset(participants), start, end)


@dataclass(frozen=True)
class NetworkStats:
    vertex_count: int
    edge_count: int
    participant_histogram: Mapping[int, int]
    time_span: tuple[Tick, Tick] | None


@dataclass(frozen=True)
class TimeVaryingHypergraph:
    """Immutable network with interned vertices and a time-sorted incidence index.

    Vertex ids are interned to dense indices ``0 .. |V|-1`` and edge ids are
    stored as ``edge_ids``, both in lexicographic id order, so comparing two
    indexes compares their ids; all internal arrays are indexed by those, and no
    record per edge is kept. Construction goes through :func:`build_hypergraph`;
    instances are safe to share across concurrent readers.
    """

    vertex_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]
    # traversal arrays, parallel to `edge_ids`
    edge_starts: tuple[Tick, ...] = field(repr=False)
    edge_ends: tuple[Tick, ...] = field(repr=False)
    edge_members: tuple[tuple[int, ...], ...] = field(repr=False)
    # per-vertex edge indexes, ascending (start, edge index)
    incidence: tuple[tuple[int, ...], ...] = field(repr=False)
    # every edge index, ascending (start, edge index): the scan order
    edge_order: tuple[int, ...] = field(repr=False)
    _vertex_index: Mapping[str, int] = field(repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    @property
    def edge_count(self) -> int:
        return len(self.edge_ids)

    @property
    def edges(self) -> tuple[TemporalHyperedge, ...]:
        """Every edge as a record, in id order, built anew on each access."""
        return tuple(map(self._record, range(self.edge_count)))

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._vertex_index

    def index_of(self, vertex: str) -> int:
        """Dense index of a vertex id; raises UnknownVertex if absent."""
        try:
            return self._vertex_index[vertex]
        except KeyError:
            raise UnknownVertex(f"vertex {vertex!r} not in hypergraph") from None

    def edge_index(self, edge_id: str) -> int:
        """Index of an edge id, found by bisection; raises KeyError if absent."""
        i = bisect_left(self.edge_ids, edge_id)
        if i == len(self.edge_ids) or self.edge_ids[i] != edge_id:
            raise KeyError(edge_id)
        return i

    def edge_by_id(self, edge_id: str) -> TemporalHyperedge:
        """The edge with this id as a record; raises KeyError if absent."""
        return self._record(self.edge_index(edge_id))

    def _record(self, i: int) -> TemporalHyperedge:
        ids = self.vertex_ids
        members = frozenset([ids[m] for m in self.edge_members[i]])
        return TemporalHyperedge(self.edge_ids[i], members, self.edge_starts[i], self.edge_ends[i])


class EdgeColumns:
    """Checked edges (or `rows`) in input order as columns, with no tuple per edge.

    ``ids``, ``starts``, ``ends`` are parallel lists; ``numbers`` numbers vertex ids by first
    appearance, and edge ``i``'s are ``members[offsets[i]:offsets[i + 1]]`` in record order.
    Iterating yields ``(id, participants, start, end)`` rows, participants a tuple.
    """

    def __init__(self, rows: Iterable[EdgeRow] = ()) -> None:
        self.ids: list[str] = []
        self.starts: list[Tick] = []
        self.ends: list[Tick] = []
        self.numbers: dict[str, int] = {}
        self.members, self.offsets = array("q"), array("q", [0])
        for row in rows:
            self.add(*row)

    def add(self, edge_id: str, participants: Iterable[str], start: Tick, end: Tick) -> None:
        """Append one edge, which must have passed :func:`check_edge` with distinct participants."""
        numbers = self.numbers
        self.members.extend([numbers.setdefault(p, len(numbers)) for p in participants])
        self.offsets.append(len(self.members))
        self.ids.append(edge_id)
        self.starts.append(start)
        self.ends.append(end)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[str, tuple[str, ...], Tick, Tick]]:
        names, members, offsets = list(self.numbers), self.members, self.offsets
        for i, edge_id in enumerate(self.ids):
            yield (edge_id, tuple([names[m] for m in members[offsets[i]:offsets[i + 1]]]),
                   self.starts[i], self.ends[i])


def build_hypergraph(edges: EdgeColumns | Iterable[TemporalHyperedge | EdgeRow]) -> TimeVaryingHypergraph:
    """Assemble the immutable hypergraph from checked edges.

    Takes the :class:`EdgeColumns` :func:`thd.io.read_network` returns, or
    :class:`TemporalHyperedge` records and ``(id, participants, start, end)``
    rows, which are first added to one. Nothing is checked again: a record
    was checked when it was constructed, and a row must already have passed
    :func:`check_edge` with distinct participants. So the only error left is
    DuplicateEdgeId, raised for the smallest repeated id.

    The vertex table is the union of all participants, and ``edge_ids``
    holds the edge ids; both are in lexicographic id order, whatever the
    input order. The incidence index lists each (vertex, edge) membership
    exactly once, sorted ascending by edge start with ties broken by edge
    id, that is by edge index; ``edge_order`` lists every edge in that same
    order.
    """
    if not isinstance(edges, EdgeColumns):
        edges = EdgeColumns((e.id, e.participants, e.start, e.end) if isinstance(e, TemporalHyperedge)
                            else e for e in edges)
    by_id = sorted(range(len(edges)), key=edges.ids.__getitem__)
    edge_ids = tuple(map(edges.ids.__getitem__, by_id))
    for prev, edge_id in zip(edge_ids, edge_ids[1:]):
        if prev == edge_id:
            raise DuplicateEdgeId(f"edge id {edge_id!r} appears more than once")

    vertex_ids = tuple(sorted(edges.numbers))
    vertex_index = {v: i for i, v in enumerate(vertex_ids)}
    rank = list(map(vertex_index.__getitem__, edges.numbers))
    ranked, offsets = list(map(rank.__getitem__, edges.members)), edges.offsets
    edge_members = tuple([tuple(sorted(ranked[offsets[i]:offsets[i + 1]])) for i in by_id])
    edge_starts = tuple(map(edges.starts.__getitem__, by_id))
    edge_ends = tuple(map(edges.ends.__getitem__, by_id))
    del ranked, by_id  # freed before the incidence lists, which set the build's peak

    # (start, id) order: indexes are in id order, and the sort is stable
    order = sorted(range(len(edge_ids)), key=edge_starts.__getitem__)
    incidence_lists: list[list[int]] = [[] for _ in vertex_ids]
    for ei in order:
        for vi in edge_members[ei]:
            incidence_lists[vi].append(ei)

    incidence = tuple(map(tuple, incidence_lists))
    return TimeVaryingHypergraph(vertex_ids, edge_ids, edge_starts, edge_ends, edge_members,
                                 incidence, tuple(order), vertex_index)


def stats(h: TimeVaryingHypergraph) -> NetworkStats:
    """Exact counts over the data model; cheap enough to be a sanity check."""
    span = (min(h.edge_starts), max(h.edge_ends)) if h.edge_ids else None
    return NetworkStats(h.vertex_count, h.edge_count, dict(Counter(map(len, h.edge_members))), span)

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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateEdgeId,
    InvalidInterval,
    InvalidVertexId,
    TooFewParticipants,
    UnknownVertex,
)

Tick = int

MIN_TICK = -(2**62)
MAX_TICK = 2**62
# surrogates (a lone JSON "\ud800" escape) are the only code points UTF-8 rejects
_SURROGATE = re.compile("[\ud800-\udfff]")
_edge_id = attrgetter("id")  # the sort key of edges


@dataclass(frozen=True, slots=True)
class TemporalHyperedge:
    """One interaction: who participated, and when the edge was open.

    An invalid edge cannot be constructed: ``TemporalHyperedge(...)``,
    :func:`hyperedge` and ``dataclasses.replace`` raise a
    :class:`~thd.errors.HypergraphError` subclass naming the first problem.
    """

    id: str
    participants: frozenset[str]
    start: Tick
    end: Tick

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise InvalidVertexId(f"edge id must be a nonempty string, got {self.id!r}")
        if not self.id.isascii() and _SURROGATE.search(self.id):
            raise InvalidVertexId(f"edge id {self.id!r} is not valid UTF-8")
        for p in self.participants:
            if not isinstance(p, str) or not p:
                raise InvalidVertexId(
                    f"edge {self.id!r}: participant must be a nonempty string, got {p!r}"
                )
            if not p.isascii() and _SURROGATE.search(p):
                raise InvalidVertexId(f"edge {self.id!r}: participant {p!r} is not valid UTF-8")
        if len(self.participants) < 2:
            raise TooFewParticipants(
                f"edge {self.id!r} has {len(self.participants)} participant(s), need >= 2"
            )
        # a bool tick would be written as false/true, which read_network rejects
        ticks = (type(self.start), type(self.end))
        if bool in ticks or not (isinstance(self.start, int) and isinstance(self.end, int)):
            raise InvalidInterval(f"edge {self.id!r}: ticks must be integers")
        if not (MIN_TICK <= self.start <= MAX_TICK and MIN_TICK <= self.end <= MAX_TICK):
            raise InvalidInterval(f"edge {self.id!r}: tick outside representable range")
        if self.start > self.end:
            raise InvalidInterval(f"edge {self.id!r}: start {self.start} > end {self.end}")


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

    Vertex ids are interned to dense indices ``0 .. |V|-1`` and ``edges``
    are stored, both in lexicographic id order, so comparing two indexes
    compares their ids; all internal arrays are indexed by those.
    Construction goes through :func:`build_hypergraph`; instances are safe
    to share across concurrent readers.
    """

    vertex_ids: tuple[str, ...]
    edges: tuple[TemporalHyperedge, ...]
    # traversal arrays, parallel to `edges`
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
        return len(self.edges)

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._vertex_index

    def index_of(self, vertex: str) -> int:
        """Dense index of a vertex id; raises UnknownVertex if absent."""
        try:
            return self._vertex_index[vertex]
        except KeyError:
            raise UnknownVertex(f"vertex {vertex!r} not in hypergraph") from None

    def edge_by_id(self, edge_id: str) -> TemporalHyperedge:
        """The edge with this id, found by bisection; raises KeyError if absent."""
        i = bisect_left(self.edges, edge_id, key=_edge_id)
        if i == len(self.edges) or self.edges[i].id != edge_id:
            raise KeyError(edge_id)
        return self.edges[i]


def build_hypergraph(edge_records: Sequence[TemporalHyperedge]) -> TimeVaryingHypergraph:
    """Assemble the immutable hypergraph from valid edge records.

    The vertex table is the union of all participants, and ``edges`` holds
    the records; both are in lexicographic id order, whatever the input
    order. The incidence index lists each (vertex, edge) membership exactly
    once, sorted ascending by edge start with ties broken by edge id, that
    is by edge index; ``edge_order`` lists every edge in that same order.

    Each record was validated when it was constructed, so the only
    error left is DuplicateEdgeId, raised for the smallest repeated id.
    """
    edges = tuple(sorted(edge_records, key=_edge_id))
    for prev, edge in zip(edges, edges[1:]):
        if prev.id == edge.id:
            raise DuplicateEdgeId(f"edge id {edge.id!r} appears more than once")

    vertex_ids = tuple(sorted(set().union(*[e.participants for e in edges])))
    vertex_index = {v: i for i, v in enumerate(vertex_ids)}

    edge_starts = tuple([e.start for e in edges])
    edge_ends = tuple([e.end for e in edges])
    index_of = vertex_index.__getitem__
    edge_members = tuple([tuple(sorted(map(index_of, e.participants))) for e in edges])

    # (start, id) order: indexes are in id order, and the sort is stable
    order = sorted(range(len(edges)), key=edge_starts.__getitem__)
    incidence_lists: list[list[int]] = [[] for _ in vertex_ids]
    for ei in order:
        for vi in edge_members[ei]:
            incidence_lists[vi].append(ei)

    return TimeVaryingHypergraph(
        vertex_ids=vertex_ids,
        edges=edges,
        edge_starts=edge_starts,
        edge_ends=edge_ends,
        edge_members=edge_members,
        incidence=tuple(map(tuple, incidence_lists)),
        edge_order=tuple(order),
        _vertex_index=vertex_index,
    )


def stats(h: TimeVaryingHypergraph) -> NetworkStats:
    """Exact counts over the data model; cheap enough to be a sanity check."""
    histogram = Counter(len(e.participants) for e in h.edges)
    if h.edges:
        span = (min(h.edge_starts), max(h.edge_ends))
    else:
        span = None
    return NetworkStats(
        vertex_count=h.vertex_count,
        edge_count=h.edge_count,
        participant_histogram=dict(histogram),
        time_span=span,
    )

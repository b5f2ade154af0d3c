"""Seeded fuzz harnesses for the ingest parser and the graph/path layer.

Everything is driven by one ``random.Random`` so failures replay from the
seed alone. The harnesses return counters; callers assert on them. A
"crash" is any exception that is not part of the documented error
contract; a "hang" is any single input exceeding the wall budget.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from thd import build_hypergraph, foremost, read_network, write_network
from thd.core import TemporalHyperedge
from thd.errors import HypergraphError, IoError
from thd.gen import GenParams, gen_random

WALL_BUDGET_SECONDS = 10.0


@dataclass
class FuzzStats:
    executions: int = 0
    ok: int = 0
    rejected: int = 0
    crashes: list = field(default_factory=list)
    slowest_seconds: float = 0.0
    hangs: int = 0

    def record_time(self, elapsed: float) -> None:
        if elapsed > self.slowest_seconds:
            self.slowest_seconds = elapsed
        if elapsed > WALL_BUDGET_SECONDS:
            self.hangs += 1


def _valid_doc_pool(rng: random.Random, count: int) -> list[bytes]:
    pool = []
    for _ in range(count):
        n = rng.randint(2, 6)
        h = gen_random(
            GenParams(
                vertex_count=n,
                edge_count=rng.randint((n + 1) // 2, 8),
                max_participants=min(4, n),
                span=rng.randint(0, 50),
                seed=rng.getrandbits(32),
            )
        )
        pool.append(write_network(h, name=f"fuzz{rng.getrandbits(16)}"))
    return pool


def _random_json_pool(rng: random.Random, count: int) -> list[bytes]:
    def value(depth: int):
        kind = rng.randint(0, 6 if depth < 3 else 3)
        if kind == 0:
            return rng.randint(-(10**12), 10**12)
        if kind == 1:
            return rng.choice([True, False, None])
        if kind == 2:
            return rng.random() * 10**6
        if kind == 3:
            return "".join(chr(rng.randint(32, 0x2FF)) for _ in range(rng.randint(0, 12)))
        if kind == 4:
            return [value(depth + 1) for _ in range(rng.randint(0, 4))]
        return {str(rng.randint(0, 99)): value(depth + 1) for _ in range(rng.randint(0, 4))}

    pool = []
    for _ in range(count):
        doc = {
            "schema": rng.choice([1, 1, 2, "1", None]),
            "name": "r",
            "edges": [value(0) for _ in range(rng.randint(0, 6))],
        }
        pool.append(json.dumps(doc).encode("utf-8", "surrogatepass"))
    return pool


def _mutate(rng: random.Random, data: bytes) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        if not buf:
            buf = bytearray(rng.randbytes(rng.randint(1, 40)))
            continue
        op = rng.randint(0, 4)
        pos = rng.randrange(len(buf))
        if op == 0:
            buf[pos] = rng.randint(0, 255)
        elif op == 1:
            del buf[pos : pos + rng.randint(1, 8)]
        elif op == 2:
            buf[pos:pos] = rng.randbytes(rng.randint(1, 8))
        elif op == 3:
            buf = buf[:pos]  # truncate
        else:
            chunk = buf[pos : pos + rng.randint(1, 16)]
            buf[pos:pos] = chunk  # duplicate a segment
    return bytes(buf)


def fuzz_read_network(executions: int, seed: int = 0) -> FuzzStats:
    """Arbitrary and generator-mutated byte inputs against the parser."""
    rng = random.Random(seed)
    valid_pool = _valid_doc_pool(rng, 40)
    json_pool = _random_json_pool(rng, 120)
    stats = FuzzStats()
    for _ in range(executions):
        roll = rng.random()
        if roll < 0.35:
            data = rng.randbytes(rng.randint(0, 120))
        elif roll < 0.75:
            data = _mutate(rng, rng.choice(valid_pool))
        elif roll < 0.95:
            data = _mutate(rng, rng.choice(json_pool))
        else:
            data = rng.choice(valid_pool)  # the happy path must stay happy
        stats.executions += 1
        started = time.perf_counter()
        try:
            read_network(data, strict=rng.random() < 0.5)
            stats.ok += 1
        except IoError:
            stats.rejected += 1
        except Exception as exc:  # noqa: BLE001 - the whole point
            stats.crashes.append((data[:120], repr(exc)))
        stats.record_time(time.perf_counter() - started)
    return stats


_VERTEX_POOL = ["a", "b", "c", "d", "e", "f", ""]


def _mutant_records(rng: random.Random) -> list[tuple]:
    """Fields of up to 8 edge records, some invalid; the caller constructs them."""
    n = rng.randint(0, 8)
    records = []
    for i in range(n):
        ticks = sorted(rng.randint(-30, 30) for _ in range(2))
        if rng.random() < 0.25:
            ticks.reverse()  # inverted interval
        if rng.random() < 0.1:
            ticks[1] = ticks[1] + 2**63  # out of range
        k = rng.randint(0, 4)
        participants = frozenset(rng.sample(_VERTEX_POOL, k)) if k else frozenset()
        edge_id = rng.choice([f"e{i}", f"e{rng.randint(0, n)}", ""])
        records.append((edge_id, participants, ticks[0], ticks[1]))
    return records


def fuzz_build_and_foremost(executions: int, seed: int = 0) -> FuzzStats:
    """Generator-mutated edge records against build and traversal.

    A successful build must produce labels satisfying the basic contract:
    the source labels itself with t0 and no arrival precedes it.
    """
    rng = random.Random(seed)
    stats = FuzzStats()
    for _ in range(executions):
        records = _mutant_records(rng)
        stats.executions += 1
        started = time.perf_counter()
        try:
            # an invalid record is rejected as it is constructed
            h = build_hypergraph([TemporalHyperedge(*fields) for fields in records])
        except HypergraphError:
            stats.rejected += 1
            stats.record_time(time.perf_counter() - started)
            continue
        except Exception as exc:  # noqa: BLE001
            stats.crashes.append((records, repr(exc)))
            stats.record_time(time.perf_counter() - started)
            continue
        try:
            if h.vertex_count:
                source = h.vertex_ids[rng.randrange(h.vertex_count)]
                t0 = rng.randint(-5, 25)
                labels = foremost(h, source, t0, keep_predecessors=False)
                assert labels.values[source] == t0
                assert all(v >= t0 for v in labels.values.values())
                assert all(v in h for v in labels.values)
            stats.ok += 1
        except Exception as exc:  # noqa: BLE001
            stats.crashes.append((records, repr(exc)))
        stats.record_time(time.perf_counter() - started)
    return stats

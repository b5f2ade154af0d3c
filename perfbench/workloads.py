"""The benchmark's workloads: which network, which plan, and why.

Each workload is chosen so that one layer does most of its work. The
network comes from ``thd.gen.gen_random`` with the benchmark's ``--seed``;
the source sample is seeded by a constant per workload, so a seed fixes
the whole input. Everything here is plain data so the orchestrator can
read it without importing ``thd``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

# acceptance criterion 5's scale network
SCALE_NETWORK = {
    "vertex_count": 37_103,
    "edge_count": 309_740,
    "max_participants": 4,
    "span": 1_000_000,
    "max_length": 50_000,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    network: dict  # GenParams fields except seed
    metric: str
    focus: str  # the span prefix of the layer chosen to dominate the run
    sample_size: int | None  # None: every vertex is a source
    keep_predecessors: bool
    parallelism: int
    checkpoint: bool
    sample_seed: int = 1
    t0: int = 0
    checkpoint_interval: int = 25

    def network_key(self, seed: int) -> str:
        """File name of the cached network, keyed by generator parameters and seed."""
        params = json.dumps(self.network, sort_keys=True).encode()
        return f"net-{hashlib.sha256(params).hexdigest()[:12]}-s{seed}.json"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="scale-foremost",
            why=(
                "scale network, 12 foremost sources, values only: ingest, build, "
                "input_digest and the foremost kernel show; shortest, fastest and "
                "checkpoints are bypassed"
            ),
            network=SCALE_NETWORK,
            metric="foremost",
            focus="paths.foremost",
            sample_size=12,
            keep_predecessors=False,
            parallelism=1,
            checkpoint=False,
        ),
        Workload(
            name="scale-shortest",
            why=(
                "same network, 2 shortest sources: the shortest kernel does most of "
                "the run; set-up equals scale-foremost's, so a set-up gain shows in both"
            ),
            network=SCALE_NETWORK,
            metric="shortest",
            focus="paths.shortest",
            sample_size=2,
            keep_predecessors=False,
            parallelism=1,
            checkpoint=False,
        ),
        Workload(
            name="small-fastest",
            why=(
                "300 V / 1,500 E, 12 fastest sources with witnesses: the per-departure "
                "fastest loop does over 99% of the run, set-up is negligible"
            ),
            network={"vertex_count": 300, "edge_count": 1_500, "span": 100_000, "max_length": 5_000},
            metric="fastest",
            focus="paths.fastest",
            sample_size=12,
            keep_predecessors=True,
            parallelism=1,
            checkpoint=False,
        ),
        Workload(
            name="all-sources-ck",
            why=(
                "1,000 V / 3,500 E, every vertex a foremost source on the process pool "
                "with a checkpoint every 25 sources: checkpoint rewrites and aggregation "
                "dominate, kernels do not"
            ),
            network={"vertex_count": 1_000, "edge_count": 3_500, "span": 5_000, "max_length": 400},
            metric="foremost",
            focus="simulate.checkpoint_write",
            sample_size=None,
            keep_predecessors=False,
            parallelism=2,
            checkpoint=True,
        ),
    )
}


def worker_count(w: Workload) -> int:
    """Pool size for a run: the workload's parallelism, never more than nproc."""
    return max(1, min(w.parallelism, os.cpu_count() or 1))

"""Correctness checks on one pass's result, run after its timed region.

Pinned: each source's label ``values`` (as a digest) and the summary
quantiles, recorded from the seed commit per (workload, seed) in
``pins.json``. Witnesses and ``provenance`` are not pinned, because a
faster kernel may legitimately pick another optimal witness or change
``input_digest``. Independent of pins: every witness must be a feasible
walk whose metric equals its label, and the summary must be re-derivable
from the labels.
"""

from __future__ import annotations

import hashlib
import json

from thd.errors import InfeasibleWalk
from thd.paths import validate_walk, walk_metric_value


def values_digest(values) -> str:
    text = json.dumps(dict(values), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _nearest_rank(sorted_values: list[int], percentile: int) -> int:
    rank = max(1, -(-percentile * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def witness_failures(h, labels) -> list[str]:
    """Reasons the witnesses of one label set fail, empty when sound."""
    out = []
    for v, value in labels.values.items():
        walk = labels.witnesses.get(v)
        if walk is None:
            out.append(f"{v}: no witness")
            continue
        try:
            validate_walk(h, walk)
        except InfeasibleWalk as exc:
            out.append(f"{v}: infeasible witness: {exc}")
            continue
        if walk.source != labels.source or walk.terminus != v or walk.departure < labels.t0:
            out.append(f"{v}: witness does not lead from the source to {v}")
        elif walk_metric_value(walk, labels.metric) != value:
            out.append(f"{v}: witness value {walk_metric_value(walk, labels.metric)} != label {value}")
    return out


def summary_failures(result) -> list[str]:
    """Compare the summary against one re-derived from the labels."""
    out = []
    summary = result.summary
    pooled: dict[str, list[int]] = {}
    for labels, entry in zip(result.labels, summary["per_source"]):
        m = labels.metric.value
        if entry["source"] != labels.source or entry["reached"][m] != len(labels.values):
            out.append(f"per_source entry for {labels.source} disagrees with its labels")
        pooled.setdefault(m, []).extend(labels.values.values())
    for m, values in pooled.items():
        values.sort()
        expect = {p: _nearest_rank(values, int(p[1:])) for p in ("p50", "p90", "p99")} if values else None
        if summary["quantiles"].get(m) != expect:
            out.append(f"summary quantiles of {m} are {summary['quantiles'].get(m)}, labels give {expect}")
    return out


def check_result(h, result, witnesses: bool) -> dict:
    """Digests to compare against pins, plus failures found without pins."""
    failures: dict[str, str] = {}
    if witnesses:
        for labels in result.labels:
            reasons = witness_failures(h, labels)
            if reasons:
                failures[labels.source] = reasons[0]
    return {
        "digests": {labels.source: values_digest(labels.values) for labels in result.labels},
        "quantiles": result.summary["quantiles"],
        "witness_failures": failures,
        "summary_failures": summary_failures(result),
    }

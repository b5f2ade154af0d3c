"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to watch the
verdict lines stream). Several criteria are deliberately heavy; the whole
module is sized for commodity hardware.
"""

import os
import resource
import signal
import subprocess
import sys
import time

import pytest

from conftest import flushed_sources, make_g1, make_g2
from fuzz_util import fuzz_build_and_foremost, fuzz_read_network

from thd import (
    GenParams,
    Metric,
    SimulationPlan,
    differential_report,
    fastest,
    foremost,
    gen_desk_instance,
    gen_random,
    oracle_distances,
    run,
    shortest,
    stats,
    write_results,
)

DIFF_TRIALS = 1000
DIFF_SEED_BASE = 20_000
FUZZ_READS = 1_000_000
FUZZ_BUILDS = 100_000
PROPERTY_TRIALS = 500
SCALE_VERTICES = 37_103
SCALE_EDGES = 309_740
SCALE_SOURCES = 100
SCALE_WALL_BUDGET = 600.0
SCALE_MEMORY_BUDGET_MIB = 4096.0


VERDICTS: list[str] = []


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line, flush=True)  # visible live under -s; summary hook reprints always


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criteria 1 and 2 share one differential sweep over 1000 instances."""
    started = time.perf_counter()
    value_mismatches: list[str] = []
    witness_violations: list[str] = []
    for trial in range(DIFF_TRIALS):
        h = gen_desk_instance(DIFF_SEED_BASE + trial)
        for line in differential_report(h, t0=0):
            tagged = f"trial {trial}: {line}"
            if "witness" in line:
                witness_violations.append(tagged)
            else:
                value_mismatches.append(tagged)
    elapsed = time.perf_counter() - started
    return value_mismatches, witness_violations, elapsed


def test_criterion_1_oracle_equivalence(oracle_sweep):
    value_mismatches, _, elapsed = oracle_sweep
    ok = not value_mismatches and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"{DIFF_TRIALS} instances, all sources, all metrics: "
        f"{len(value_mismatches)} mismatches in {elapsed:.1f}s (budget 60s)",
    )
    assert value_mismatches == []
    assert elapsed < 60.0


def test_criterion_2_witness_soundness(oracle_sweep):
    _, witness_violations, _ = oracle_sweep
    _verdict(
        2,
        not witness_violations,
        f"every reconstructed walk feasible and value-exact: "
        f"{len(witness_violations)} violations",
    )
    assert witness_violations == []


G1_EXPECTED = {
    Metric.FOREMOST: {
        "a": {"a": 0, "b": 1, "c": 2, "d": 4},
        "b": {"b": 0, "a": 1, "c": 2, "d": 4},
        "c": {"c": 0, "a": 2, "b": 2, "d": 4},
        "d": {"d": 0, "a": 4, "b": 4, "c": 4},
    },
    Metric.SHORTEST: {
        "a": {"a": 0, "b": 1, "c": 1, "d": 1},
        "b": {"b": 0, "a": 1, "c": 1, "d": 2},
        "c": {"c": 0, "a": 1, "b": 1, "d": 1},
        "d": {"d": 0, "a": 1, "b": 2, "c": 1},
    },
    Metric.FASTEST: {
        "a": {"a": 0, "b": 0, "c": 0, "d": 0},
        "b": {"b": 0, "a": 0, "c": 0, "d": 0},
        "c": {"c": 0, "a": 0, "b": 0, "d": 0},
        "d": {"d": 0, "a": 0, "b": 0, "c": 0},
    },
}
G2_EXPECTED = {
    Metric.FOREMOST: {
        "a": {"a": 0, "b": 0, "d": 5},
        "b": {"b": 0, "a": 0, "d": 5},
        "d": {"d": 0, "b": 5},
    },
    Metric.SHORTEST: {
        "a": {"a": 0, "b": 1, "d": 2},
        "b": {"b": 0, "a": 1, "d": 1},
        "d": {"d": 0, "b": 1},
    },
    Metric.FASTEST: {
        "a": {"a": 0, "b": 0, "d": 5},
        "b": {"b": 0, "a": 0, "d": 0},
        "d": {"d": 0, "b": 0},
    },
}


def test_criterion_3_hand_fixture_matrix():
    failures = []
    for h, expected, tag in ((make_g1(), G1_EXPECTED, "G1"), (make_g2(), G2_EXPECTED, "G2")):
        for source in h.vertex_ids:
            got = {
                Metric.FOREMOST: dict(foremost(h, source, 0).values),
                Metric.SHORTEST: dict(shortest(h, source, 0, h.vertex_count).values),
                Metric.FASTEST: dict(fastest(h, source, 0).values),
            }
            orc = oracle_distances(h, source, 0, h.vertex_count)
            oracle_view = {
                Metric.FOREMOST: dict(orc.foremost),
                Metric.SHORTEST: dict(orc.hops),
                Metric.FASTEST: dict(orc.duration),
            }
            for metric in Metric:
                if got[metric] != expected[metric][source]:
                    failures.append(f"{tag} {metric.value} from {source}: {got[metric]}")
                if oracle_view[metric] != expected[metric][source]:
                    failures.append(f"{tag} oracle disagrees with hand values: {metric.value} from {source}")
    _verdict(3, not failures, f"G1 and G2, all sources, all metrics, oracle-confirmed: {len(failures)} deviations")
    assert failures == []


@pytest.fixture(scope="module")
def determinism_net(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("determinism")
    h = gen_random(GenParams(vertex_count=3000, edge_count=10_000, span=5000, max_length=400, seed=2024))
    from thd.io import write_network

    net_path = tmp / "net10k.json"
    net_path.write_bytes(write_network(h, name="det10k"))
    return h, net_path, tmp


def test_criterion_4_determinism_and_resume(determinism_net):
    h, net_path, tmp = determinism_net

    plan_kwargs = dict(
        metrics=(Metric.FOREMOST,), sample_size=150, sample_seed=7, t0=0
    )
    outputs = {}
    for degree in (1, 2, 8):
        result = run(h, SimulationPlan(parallelism=degree, **plan_kwargs))
        outputs[degree] = write_results(result)
    parallel_ok = outputs[1] == outputs[2] == outputs[8]

    # interrupt a real process mid-run with SIGKILL, then resume
    out_path = tmp / "out.json"
    ck_path = tmp / "ck"
    cmd = [
        sys.executable, "-m", "thd.cli", "simulate", str(net_path),
        "-o", str(out_path), "--t0", "0", "--sample", "150", "--seed", "7",
        "--checkpoint", str(ck_path), "--checkpoint-interval", "3", "--parallel", "1",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killed_midway = False
    for _ in range(3000):
        if proc.poll() is not None:
            break
        if ck_path.exists():
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            killed_midway = True
            break
        time.sleep(0.01)
    assert killed_midway, "process finished before the first checkpoint flush"
    flushed = len(flushed_sources(ck_path))
    assert 0 < flushed < 150

    resumed = subprocess.run(cmd, capture_output=True)
    resume_ok = resumed.returncode == 0 and out_path.read_bytes() == outputs[1]

    _verdict(
        4,
        parallel_ok and resume_ok,
        f"parallelism 1/2/8 byte-identical: {parallel_ok}; "
        f"SIGKILL after {flushed} flushed sources, resume byte-identical: {resume_ok}",
    )
    assert parallel_ok
    assert resume_ok


def test_criterion_5_scale_smoke():
    started = time.perf_counter()
    h = gen_random(
        GenParams(
            vertex_count=SCALE_VERTICES,
            edge_count=SCALE_EDGES,
            max_participants=4,
            span=1_000_000,
            max_length=50_000,
            seed=1,
        )
    )
    st = stats(h)
    assert (st.vertex_count, st.edge_count) == (SCALE_VERTICES, SCALE_EDGES)

    plan = SimulationPlan(
        metrics=(Metric.FOREMOST,), sample_size=SCALE_SOURCES, sample_seed=1, t0=0
    )
    result = run(h, plan)
    elapsed = time.perf_counter() - started
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n_sources = len(result.summary["per_source"])
    ok = (
        n_sources == SCALE_SOURCES
        and elapsed < SCALE_WALL_BUDGET
        and peak_mib < SCALE_MEMORY_BUDGET_MIB
    )
    _verdict(
        5,
        ok,
        f"{SCALE_VERTICES} vertices / {SCALE_EDGES} edges, {n_sources} foremost sources: "
        f"{elapsed:.0f}s (budget {SCALE_WALL_BUDGET:.0f}s), peak {peak_mib:.0f} MiB (budget 4096)",
    )
    assert n_sources == SCALE_SOURCES
    assert elapsed < SCALE_WALL_BUDGET
    assert peak_mib < SCALE_MEMORY_BUDGET_MIB


def test_criterion_6_fuzz_robustness():
    reads = fuzz_read_network(FUZZ_READS, seed=42)
    builds = fuzz_build_and_foremost(FUZZ_BUILDS, seed=42)
    ok = (
        not reads.crashes
        and not builds.crashes
        and reads.hangs == 0
        and builds.hangs == 0
    )
    _verdict(
        6,
        ok,
        f"{FUZZ_READS} parser + {FUZZ_BUILDS} build/traverse executions: "
        f"{len(reads.crashes) + len(builds.crashes)} crashes, "
        f"{reads.hangs + builds.hangs} hangs, "
        f"slowest input {max(reads.slowest_seconds, builds.slowest_seconds) * 1000:.0f}ms",
    )
    assert reads.crashes == []
    assert builds.crashes == []
    assert reads.hangs == 0
    assert builds.hangs == 0


def test_criterion_7_invariant_suite():
    violations = []
    for trial in range(PROPERTY_TRIALS):
        seed = 50_000 + trial
        h = gen_desk_instance(seed)
        source = h.vertex_ids[seed % h.vertex_count]

        fm0 = foremost(h, source, 0, keep_predecessors=False)
        sh = shortest(h, source, 0, h.vertex_count, keep_predecessors=False)
        fa0 = fastest(h, source, 0, keep_predecessors=False)

        if not (set(fm0.values) == set(sh.values) == set(fa0.values)):
            violations.append(f"{seed}: reachability differs across metrics")

        t0b = 1 + seed % 7
        fmb = foremost(h, source, t0b, keep_predecessors=False)
        if not set(fmb.values) <= set(fm0.values):
            violations.append(f"{seed}: later t0 reached new vertices")
        if any(fmb.values[v] < fm0.values[v] for v in fmb.values):
            violations.append(f"{seed}: later t0 improved an arrival")

        if any(fa0.values[v] > fm0.values[v] - 0 for v in fa0.values):
            violations.append(f"{seed}: fastest exceeds foremost - t0")

        full = dict(sh.values)
        for budget in (max(1, h.vertex_count // 2), h.vertex_count + 4):
            part = dict(shortest(h, source, 0, budget, keep_predecessors=False).values)
            if budget > h.vertex_count and part != full:
                violations.append(f"{seed}: layering did not stabilize by |V|")
            if any(full[v] != hops for v, hops in part.items() if hops <= budget):
                violations.append(f"{seed}: hop label changed between budgets")

    _verdict(
        7,
        not violations,
        f"4 invariants x {PROPERTY_TRIALS} instances: {len(violations)} violations",
    )
    assert violations == []

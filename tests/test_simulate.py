import hashlib
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from thd import (
    GenParams,
    Metric,
    SimulationPlan,
    build_hypergraph,
    gen_desk_instance,
    gen_random,
    hyperedge,
    run,
    write_results,
)
import thd
from thd import simulate
from thd.errors import CheckpointMismatch, CorruptCheckpoint, PlanInvalid
from thd.simulate import (
    aggregate,
    checkpoint_load,
    checkpoint_write,
    input_digest,
    nearest_rank,
    plan_digest,
)

from conftest import write_version_1_checkpoint

FOREMOST_PLAN = SimulationPlan(metrics=(Metric.FOREMOST,), t0=0)


def small_net(seed=5):
    return gen_random(GenParams(vertex_count=40, edge_count=120, span=60, seed=seed))


# --- plan validation --------------------------------------------------------


@pytest.mark.parametrize(
    "plan",
    [
        SimulationPlan(metrics=()),
        SimulationPlan(metrics=(Metric.FOREMOST, Metric.FOREMOST)),
        SimulationPlan(sources=("a", "a")),
        SimulationPlan(sources=("nope",)),
        SimulationPlan(sources=("a",), sample_size=2),
        SimulationPlan(sample_size=99),
        SimulationPlan(sample_size=-1),
        SimulationPlan(max_hops=0),
        SimulationPlan(parallelism=0),
        SimulationPlan(checkpoint_interval=0),
        SimulationPlan(t0=10, horizon=3),
    ],
)
def test_invalid_plans_rejected(g1, plan):
    with pytest.raises(PlanInvalid):
        run(g1, plan)


def test_horizon_against_earliest_t0(g1):
    # earliest incident start for d is 4, so a horizon of 2 cannot hold
    with pytest.raises(PlanInvalid):
        run(g1, SimulationPlan(horizon=2))


# --- fixture run ------------------------------------------------------------


def test_g1_all_sources_foremost(g1):
    result = run(g1, FOREMOST_PLAN)
    by_source = {lab.source: dict(lab.values) for lab in result.labels}
    assert by_source == {
        "a": {"a": 0, "b": 1, "c": 2, "d": 4},
        "b": {"b": 0, "a": 1, "c": 2, "d": 4},
        "c": {"c": 0, "a": 2, "b": 2, "d": 4},
        "d": {"d": 0, "a": 4, "b": 4, "c": 4},
    }
    reached = {e["source"]: e["reached"]["foremost"] for e in result.summary["per_source"]}
    assert reached == {"a": 4, "b": 4, "c": 4, "d": 4}
    ratios = {e["source"]: e["ratio"]["foremost"] for e in result.summary["per_source"]}
    assert ratios == {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
    # pooled multiset of the 16 arrivals, nearest-rank
    assert result.summary["quantiles"]["foremost"] == {"p50": 2, "p90": 4, "p99": 4}


def test_default_t0_is_earliest_incident_start(g1):
    result = run(g1, SimulationPlan(metrics=(Metric.FOREMOST,)))
    t0s = {d["source"]: d["t0"] for d in result.to_document()["sources"]}
    assert t0s == {"a": 1, "b": 1, "c": 2, "d": 4}


def test_isolated_source_reaches_itself_only(g1):
    # after every edge has closed, a source reaches nobody but itself
    plan = SimulationPlan(metrics=(Metric.FOREMOST,), sources=("a",), t0=99)
    result = run(g1, plan)
    entry = result.summary["per_source"][0]
    assert entry["reached"]["foremost"] == 1
    assert entry["ratio"]["foremost"] == 1 / 4


def test_empty_source_list(g1):
    result = run(g1, SimulationPlan(sources=(), t0=0))
    assert result.labels == ()
    assert result.summary["per_source"] == []
    assert result.summary["quantiles"] == {}


def test_sample_sources_seeded(g1):
    r1 = run(g1, SimulationPlan(sample_size=2, sample_seed=3, t0=0))
    r2 = run(g1, SimulationPlan(sample_size=2, sample_seed=3, t0=0))
    assert write_results(r1) == write_results(r2)
    assert len(r1.summary["per_source"]) == 2


def test_multiple_metrics_per_source(g1):
    plan = SimulationPlan(metrics=(Metric.FOREMOST, Metric.SHORTEST, Metric.FASTEST), t0=0)
    result = run(g1, plan)
    assert len(result.labels) == 12  # 4 sources x 3 metrics
    metrics = {lab.metric for lab in result.labels}
    assert metrics == {Metric.FOREMOST, Metric.SHORTEST, Metric.FASTEST}


def test_keep_predecessors_round_trips(g1):
    plan = SimulationPlan(
        metrics=(Metric.FOREMOST, Metric.SHORTEST, Metric.FASTEST),
        t0=0,
        keep_predecessors=True,
    )
    result = run(g1, plan)
    doc = result.to_document()
    for source_doc in doc["sources"]:
        for entry in source_doc["metrics"].values():
            assert "predecessors" in entry
    assert write_results(result) == write_results(run(g1, plan))


# --- determinism ------------------------------------------------------------


def test_parallelism_does_not_change_bytes():
    h = small_net()
    outs = []
    for degree in (1, 2, 8):
        plan = SimulationPlan(
            metrics=(Metric.FOREMOST, Metric.FASTEST), t0=0, parallelism=degree
        )
        outs.append(write_results(run(h, plan)))
    assert outs[0] == outs[1] == outs[2]


def test_horizon_monotonicity_seeded():
    for seed in range(12):
        h = gen_desk_instance(seed)
        base = None
        for horizon in (20, 10, 5):
            plan = SimulationPlan(metrics=(Metric.FOREMOST,), t0=0, horizon=horizon)
            result = run(h, plan)
            counts = [e["reached"]["foremost"] for e in result.summary["per_source"]]
            if base is not None:
                assert all(c <= b for c, b in zip(counts, base))
            base = counts


# --- digests and checkpoints ------------------------------------------------


def test_input_digest_order_independent(g1):
    records = list(g1.edges)
    shuffled = build_hypergraph([records[1], records[2], records[0]])
    assert input_digest(g1) == input_digest(shuffled)
    other = build_hypergraph(records[:2])
    assert input_digest(g1) != input_digest(other)


def _input_digest_reference(h):
    """input_digest as one json.dumps per edge; the fast digest must equal it."""
    digest = hashlib.sha256()
    for e in sorted(h.edges, key=lambda e: e.id):
        digest.update(
            json.dumps(
                [e.id, sorted(e.participants), e.start, e.end],
                separators=(",", ":"),
                ensure_ascii=False,
            ).encode("utf-8")
        )
    return digest.hexdigest()


ODD_IDS = ['q"uote', "back\\slash", "tab\tnl\n\x00\x1f\x7f", "é", "ß\u2028", "😀", "a😀b", "</script>", "\\u0041"]
ODD_TICKS = [(-(2**62), 2**62), (-5, -1), (0, 0), (-(2**62), -(2**62)), (2**62, 2**62), (-1, 7), (3, 3), (10**12, 10**15), (1, 2)]


def test_input_digest_matches_reference(g1, g2):
    # pinned, so that a change to both copies is still caught
    assert input_digest(g1) == "de39f4be16fab9ffd4e6524dd0beaf0b479bcf0265df666717f0a760d59a9702"
    odd = build_hypergraph(
        [
            hyperedge(edge_id, [edge_id, ODD_IDS[i - 1], "v"], start, end)
            for i, (edge_id, (start, end)) in enumerate(zip(ODD_IDS, ODD_TICKS))
        ]
    )
    networks = [g1, g2, odd, build_hypergraph([])]
    networks += [
        gen_random(GenParams(vertex_count=30, edge_count=90, max_participants=5, span=50, seed=s))
        for s in range(5)
    ]
    for h in networks:
        assert input_digest(h) == _input_digest_reference(h)


def test_plan_digest_ignores_execution_knobs(g1):
    a = SimulationPlan(t0=0, parallelism=1, checkpoint_interval=5)
    b = SimulationPlan(t0=0, parallelism=8, checkpoint_path="x", checkpoint_interval=50)
    assert plan_digest(a) == plan_digest(b)
    c = SimulationPlan(t0=1)
    assert plan_digest(a) != plan_digest(c)


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "ck"
    docs = {"a": {"source": "a", "t0": 0, "metrics": {}}}
    checkpoint_write(path, "ind", "pld", docs)
    ind, pld, loaded = checkpoint_load(path)
    assert (ind, pld) == ("ind", "pld")
    assert loaded == docs


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "ck"
    path.write_bytes(b"")
    with pytest.raises(CorruptCheckpoint):
        checkpoint_load(path)
    path.write_bytes(b"not json\n")
    with pytest.raises(CorruptCheckpoint):
        checkpoint_load(path)
    checkpoint_write(path, "i", "p", {"a": {"source": "a", "t0": 0, "metrics": {}}})
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint):
        checkpoint_load(path)


def _empty_docs(sources):
    return {s: {"source": s, "t0": 0, "metrics": {}} for s in sources}


@pytest.mark.parametrize("record", ["b", "c"])
def test_checkpoint_corrupt_complete_record_refused(tmp_path, record):
    path = tmp_path / "ck"
    checkpoint_write(path, "i", "p", _empty_docs("abc"))
    raw = bytearray(path.read_bytes())
    raw[raw.index(b'"source":"%s"' % record.encode()) - 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint, match="hash mismatch"):
        checkpoint_load(path)


def test_checkpoint_duplicate_source_refused(tmp_path):
    path = tmp_path / "ck"
    checkpoint_write(path, "i", "p", _empty_docs("ab"))
    checkpoint_write(path, "i", "p", _empty_docs("b"))
    with pytest.raises(CorruptCheckpoint, match="duplicate"):
        checkpoint_load(path)


def test_checkpoint_version_1_refused(tmp_path):
    path = tmp_path / "ck"
    write_version_1_checkpoint(path)
    with pytest.raises(CorruptCheckpoint, match="unsupported version 1"):
        checkpoint_load(path)


@pytest.mark.parametrize("missing", ["input_digest", "plan_digest"])
def test_checkpoint_header_without_digest_refused(tmp_path, missing):
    path = tmp_path / "ck"
    checkpoint_write(path, "i", "p", _empty_docs("ab"))
    header, _, records = path.read_bytes().partition(b"\n")
    doc = json.loads(header)
    del doc[missing]
    path.write_bytes(json.dumps(doc).encode() + b"\n" + records)
    with pytest.raises(CorruptCheckpoint, match="lacks its input and plan digests"):
        checkpoint_load(path)


def test_checkpoint_mismatch_refused(tmp_path, g1, g2):
    plan = SimulationPlan(t0=0, checkpoint_path=str(tmp_path / "ck"), checkpoint_interval=1)
    run(g1, plan)
    with pytest.raises(CheckpointMismatch):
        run(g2, plan)  # same plan, different input
    plan2 = SimulationPlan(
        metrics=(Metric.SHORTEST,), t0=0,
        checkpoint_path=str(tmp_path / "ck"), checkpoint_interval=1,
    )
    with pytest.raises(CheckpointMismatch):
        run(g1, plan2)  # same input, different plan


def test_flushed_sources_independent_of_parallelism(tmp_path, monkeypatch):
    h = small_net(seed=13)
    flushed = []
    monkeypatch.setattr(
        simulate, "checkpoint_write", lambda path, i, p, docs: flushed[-1].append(sorted(docs))
    )
    for degree in (1, 2):
        flushed.append([])
        plan = SimulationPlan(
            t0=0, parallelism=degree, checkpoint_path=str(tmp_path / f"ck{degree}"),
            checkpoint_interval=3,
        )
        run(h, plan)
    assert len(flushed[0]) == -(-h.vertex_count // 3)
    assert flushed[0] == flushed[1]
    # each flush carries only the sources completed since the previous one
    assert [s for batch in flushed[0] for s in batch] == list(h.vertex_ids)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_checkpoint_flushes_only_append(tmp_path, monkeypatch, parallelism):
    h = small_net(seed=14)
    ck = tmp_path / "ck"
    snapshots = []
    write = simulate.checkpoint_write

    def snapshotting_write(path, *args):
        write(path, *args)
        snapshots.append(ck.read_bytes())

    monkeypatch.setattr(simulate, "checkpoint_write", snapshotting_write)
    run(h, SimulationPlan(
        t0=0, parallelism=parallelism, checkpoint_path=str(ck), checkpoint_interval=4
    ))
    assert len(snapshots) == -(-h.vertex_count // 4)
    for before, after in zip(snapshots, snapshots[1:]):
        assert len(after) > len(before) and after.startswith(before)
    assert sorted(checkpoint_load(ck)[2]) == list(h.vertex_ids)
    assert len(snapshots[-1].splitlines()) == 1 + h.vertex_count  # header + one record each


@pytest.mark.parametrize("parallelism", [1, 2])
def test_torn_tail_dropped_and_resume_byte_identical(tmp_path, caplog, parallelism):
    h = small_net(seed=15)
    ck = tmp_path / "ck"
    plan = SimulationPlan(
        t0=0, parallelism=parallelism, checkpoint_path=str(ck), checkpoint_interval=4
    )
    baseline = write_results(run(h, SimulationPlan(t0=0)))
    run(h, plan)
    full = ck.read_bytes()

    # cut the log half-way through the record of the 11th source, as a
    # crash during a flush would leave it
    kept = 10
    starts = [i + 1 for i, byte in enumerate(full) if byte == ord("\n")]
    cut = (starts[kept] + starts[kept + 1]) // 2
    ck.write_bytes(full[:cut])
    assert sorted(checkpoint_load(ck)[2]) == list(h.vertex_ids[:kept])

    recomputed = []
    with caplog.at_level(logging.INFO, logger="thd.simulate"):
        result = run(h, plan, progress=recomputed.append)
    assert recomputed == list(h.vertex_ids[kept:])
    assert write_results(result) == baseline
    torn = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert torn == [
        f"checkpoint: dropped a torn tail of {cut - starts[kept]} bytes (1 incomplete record)"
    ]
    assert f"checkpoint: {kept} of {h.vertex_count} sources already complete" in caplog.messages

    # the cut record was truncated away, not glued to the next append
    assert ck.read_bytes() == full
    assert sorted(checkpoint_load(ck)[2]) == list(h.vertex_ids)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_interrupt_and_resume_byte_identical(tmp_path, parallelism):
    h = small_net(seed=11)
    ck = str(tmp_path / "ck")
    plan = SimulationPlan(
        t0=0, parallelism=parallelism, checkpoint_path=ck, checkpoint_interval=2
    )

    baseline = write_results(run(h, SimulationPlan(t0=0)))

    interrupted_after = 7
    seen = []

    def tripwire(source):
        seen.append(source)
        if len(seen) >= interrupted_after:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run(h, plan, progress=tripwire)
    assert simulate._WORKER_STATE is None

    _, _, flushed = checkpoint_load(ck)
    # last full interval of 2 before the interrupt, in source order
    assert sorted(flushed) == list(h.vertex_ids[:6])

    recomputed = []
    result = run(h, plan, progress=recomputed.append)
    assert len(recomputed) == h.vertex_count - len(flushed)
    assert write_results(result) == baseline


@pytest.mark.parametrize("parallelism", [1, 2])
def test_interrupt_and_resume_with_witnesses_matches_fresh_run(tmp_path, parallelism):
    # resumed sources come back from their checkpoint records: predecessors,
    # witness walks and per-source t0 must survive the round trip exactly
    h = small_net(seed=16)
    metrics = (Metric.FASTEST, Metric.FOREMOST, Metric.SHORTEST)
    fresh = run(h, SimulationPlan(metrics=metrics, keep_predecessors=True))
    plan = SimulationPlan(
        metrics=metrics, keep_predecessors=True, parallelism=parallelism,
        checkpoint_path=str(tmp_path / "ck"), checkpoint_interval=3,
    )
    seen = []

    def tripwire(source):
        seen.append(source)
        if len(seen) >= 10:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run(h, plan, progress=tripwire)
    assert sorted(checkpoint_load(plan.checkpoint_path)[2]) == list(h.vertex_ids[:9])

    recomputed = []
    resumed = run(h, plan, progress=recomputed.append)
    assert recomputed == list(h.vertex_ids[9:])
    assert write_results(resumed, "json") == write_results(fresh, "json")
    assert write_results(resumed, "csv") == write_results(fresh, "csv")
    assert resumed.labels == fresh.labels
    assert resumed.summary == fresh.summary
    assert any(lab.witnesses for lab in resumed.labels)


# Runs a two-process checkpointed plan and, at the first finished source,
# writes the pool's worker pids and blocks until it is killed.
_RUN_UNTIL_KILLED = """
import multiprocessing, os, sys, time
from thd import GenParams, SimulationPlan, gen_random, run

def progress(source):
    pids = " ".join(str(p.pid) for p in multiprocessing.active_children())
    with open(sys.argv[1] + ".tmp", "w") as f:
        f.write(pids)
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(120)

h = gen_random(GenParams(vertex_count=40, edge_count=120, span=60, seed=5))
plan = SimulationPlan(t0=0, parallelism=2, checkpoint_path=sys.argv[2])
run(h, plan, progress)
"""


def _exited(pid):
    """True once ``pid`` is gone or a zombie that no one has reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_pool_workers_exit_when_the_parent_is_killed(tmp_path):
    pids_file = tmp_path / "pids"
    env = dict(os.environ, PYTHONPATH=str(Path(thd.__file__).parents[1]))
    cmd = [sys.executable, "-c", _RUN_UNTIL_KILLED, str(pids_file), str(tmp_path / "ck")]
    proc = subprocess.Popen(cmd, env=env)
    try:
        deadline = time.monotonic() + 60
        while not pids_file.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        workers = [int(pid) for pid in pids_file.read_text().split()]
        assert len(workers) == 2
    finally:
        proc.kill()
        proc.wait(timeout=10)
    try:
        deadline = time.monotonic() + 10
        while not all(_exited(pid) for pid in workers):
            assert time.monotonic() < deadline, "pool workers outlived their parent"
            time.sleep(0.1)
    finally:
        for pid in workers:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


def test_completed_checkpoint_short_circuits(tmp_path):
    h = small_net(seed=12)
    ck = str(tmp_path / "ck")
    plan = SimulationPlan(t0=0, checkpoint_path=ck, checkpoint_interval=3)
    first = write_results(run(h, plan))
    recomputed = []
    second = write_results(run(h, plan, progress=recomputed.append))
    assert recomputed == []
    assert first == second


# --- aggregation ------------------------------------------------------------


def test_nearest_rank_reference_values():
    values = [15, 20, 35, 40, 50]
    assert nearest_rank(values, 5) == 15
    assert nearest_rank(values, 30) == 20
    assert nearest_rank(values, 40) == 20
    assert nearest_rank(values, 50) == 35
    assert nearest_rank(values, 100) == 50


def test_aggregate_rejects_conflicting_sources(g1):
    from thd import foremost

    labels = {Metric.FOREMOST: foremost(g1, "a", 0)}
    with pytest.raises(PlanInvalid):
        aggregate([labels, labels], g1.vertex_count)


def test_summary_is_function_of_labels(g1):
    r1 = run(g1, FOREMOST_PLAN)
    r2 = run(g1, SimulationPlan(metrics=(Metric.FOREMOST,), t0=0, parallelism=2))
    assert json.dumps(r1.summary, sort_keys=True) == json.dumps(r2.summary, sort_keys=True)

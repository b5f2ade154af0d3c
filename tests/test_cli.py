import hashlib
import json
import subprocess
import sys

import pytest

from thd import write_network
from thd.cli import main
from thd.io import canonical_json_bytes

from conftest import make_g1, write_version_1_checkpoint


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.json"
    path.write_bytes(write_network(make_g1(), name="g1"))
    return str(path)


def test_validate_ok(g1_file, capsys):
    assert main(["validate", g1_file]) == 0
    out = capsys.readouterr().out
    assert "4 vertices, 3 edges" in out
    assert "[1, 5]" in out


def test_validate_json(g1_file, capsys):
    assert main(["validate", g1_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 4
    assert doc["edges"] == 3
    assert doc["participant_histogram"] == {"2": 2, "3": 1}


def test_validate_empty_edges(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_bytes(b'{"schema":1,"name":"e","edges":[]}')
    assert main(["validate", str(path)]) == 0
    assert "0 vertices, 0 edges" in capsys.readouterr().out


def test_validate_bad_record_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(
        b'{"edges":[{"id":"e","participants":["a","b"],"start":9,"end":1}]}'
    )
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_lenient_skips(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(
        b'{"edges":['
        b'{"id":"e","participants":["a","b"],"start":9,"end":1},'
        b'{"id":"f","participants":["a","b"],"start":1,"end":2}]}'
    )
    assert main(["validate", str(path), "--lenient"]) == 0
    out = capsys.readouterr().out
    assert "2 vertices, 1 edges" in out
    assert "skipped 1 invalid record" in out


SURROGATE_RECORDS = [
    b'{"id":"e\\ud800","participants":["a","b"],"start":1,"end":2}',
    b'{"id":"e","participants":["a\\udc00","b"],"start":1,"end":2}',
]


@pytest.mark.parametrize("bad", SURROGATE_RECORDS, ids=["edge-id", "participant"])
def test_id_utf8_cannot_encode_is_invalid_record(tmp_path, capsys, bad):
    path = tmp_path / "surrogate.json"
    path.write_bytes(
        b'{"edges":[{"id":"f","participants":["a","b"],"start":1,"end":2},' + bad + b"]}"
    )
    out = tmp_path / "result.json"
    for command in (["validate", str(path)], ["simulate", str(path), "-o", str(out)]):
        assert main(command) == 1
        assert "edge record 1:" in capsys.readouterr().err
    assert main(["validate", str(path), "--lenient"]) == 0
    assert "record 1: " in capsys.readouterr().out
    assert main(["simulate", str(path), "--lenient", "-o", str(out), "--t0", "0"]) == 0
    assert [s["source"] for s in json.loads(out.read_bytes())["sources"]] == ["a", "b"]


def test_missing_file_exits_1(capsys):
    assert main(["validate", "/nonexistent/net.json"]) == 1


def test_query_foremost(g1_file, capsys):
    assert main(["query", g1_file, "--source", "a", "--target", "c", "--t0", "0"]) == 0
    out = capsys.readouterr().out
    assert "foremost(a -> c) = 2" in out
    assert "e1 -> b @ 1" in out
    assert "e2 -> c @ 2" in out


def test_query_self_is_zero(g1_file, capsys):
    assert main(["query", g1_file, "--source", "a", "--target", "a", "--metric", "shortest"]) == 0
    assert "shortest(a -> a) = 0" in capsys.readouterr().out


def test_query_unreached_exit_code(g1_file, capsys):
    assert main(["query", g1_file, "--source", "a", "--target", "z"]) == 4
    assert "unreached" in capsys.readouterr().err


def test_query_json(g1_file, capsys):
    assert main(
        ["query", g1_file, "--source", "a", "--target", "d", "--metric", "fastest", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 0
    assert doc["walk"]["departure"] == 4


@pytest.mark.parametrize("metric", ["foremost", "shortest", "fastest"])
def test_query_zero_max_hops_rejected(g1_file, capsys, metric):
    # 0 is a hop budget, not "no limit"; the plan is checked as simulate's is
    assert main(
        ["query", g1_file, "--source", "a", "--target", "b", "--metric", metric, "--max-hops", "0"]
    ) == 1
    assert "error:" in capsys.readouterr().err


def test_query_unknown_metric_is_usage_error(g1_file):
    with pytest.raises(SystemExit) as exc:
        main(["query", g1_file, "--source", "a", "--target", "b", "--metric", "quickest"])
    assert exc.value.code == 2


@pytest.mark.parametrize("metric", ["shortest", "fastest"])
def test_query_walk_matches_simulate_witness(tmp_path, capsys, metric):
    net = tmp_path / "net.json"
    assert main(["gen", "-o", str(net), "--vertices", "30", "--edges", "90", "--seed", "3"]) == 0
    source = json.loads(net.read_bytes())["edges"][0]["participants"][0]
    out = tmp_path / "r.json"
    assert main(
        ["simulate", str(net), "-o", str(out), "--metric", metric, "--keep-predecessors",
         "--sources", source, "--t0", "40"]
    ) == 0
    witnesses = json.loads(out.read_bytes())["sources"][0]["metrics"][metric]["witnesses"]
    assert len(witnesses) > 1
    capsys.readouterr()
    for target, witness in witnesses.items():
        assert main(
            ["query", str(net), "--source", source, "--target", target, "--metric", metric,
             "--t0", "40", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["walk"] == witness


@pytest.mark.parametrize("metric", ["shortest", "fastest"])
def test_query_horizon_matches_simulate_witness(tmp_path, capsys, metric):
    net = tmp_path / "net.json"
    assert main(["gen", "-o", str(net), "--vertices", "30", "--edges", "90", "--seed", "3"]) == 0
    source = json.loads(net.read_bytes())["edges"][0]["participants"][0]
    entries = {}
    for horizon in ([], ["--horizon", "300"]):
        out = tmp_path / f"r{len(horizon)}.json"
        assert main(
            ["simulate", str(net), "-o", str(out), "--metric", metric, "--keep-predecessors",
             "--sources", source, "--t0", "40", *horizon]
        ) == 0
        entries[bool(horizon)] = json.loads(out.read_bytes())["sources"][0]["metrics"][metric]
    assert entries[True]["witnesses"] != entries[False]["witnesses"]  # the horizon tells
    capsys.readouterr()
    for target, witness in entries[True]["witnesses"].items():
        assert main(
            ["query", str(net), "--source", source, "--target", target, "--metric", metric,
             "--t0", "40", "--horizon", "300", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["value"], doc["walk"]) == (entries[True]["values"][target], witness)


def test_simulate_writes_result_file(g1_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["simulate", g1_file, "-o", str(out), "--t0", "0"]) == 0
    doc = json.loads(out.read_bytes())
    assert len(doc["sources"]) == 4
    assert doc["summary"]["quantiles"]["foremost"] == {"p50": 2, "p90": 4, "p99": 4}


def test_simulate_csv(g1_file, tmp_path):
    out = tmp_path / "result.csv"
    assert main(["simulate", g1_file, "-o", str(out), "--t0", "0", "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 17


def test_simulate_deterministic_across_parallelism(g1_file, tmp_path):
    outs = []
    for degree in ("1", "3"):
        out = tmp_path / f"r{degree}.json"
        assert main(
            ["simulate", g1_file, "-o", str(out), "--t0", "0", "--parallel", degree,
             "--metric", "foremost", "--metric", "fastest"]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_explicit_sources_and_horizon(g1_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(
        ["simulate", g1_file, "-o", str(out), "--t0", "0", "--sources", "a,b", "--horizon", "3"]
    ) == 0
    doc = json.loads(out.read_bytes())
    assert [s["source"] for s in doc["sources"]] == ["a", "b"]
    assert doc["sources"][0]["metrics"]["foremost"]["values"] == {"a": 0, "b": 1, "c": 2}


def test_simulate_empty_sources_is_an_unknown_source(g1_file, tmp_path, capsys):
    # "" names the one source '', as "a," names 'a' and ''; it never means every vertex
    out = tmp_path / "r.json"
    assert main(["simulate", g1_file, "-o", str(out), "--sources", ""]) == 1
    assert "error: source '' not in network" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_empty_sources_with_sample_is_a_usage_conflict(g1_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["simulate", g1_file, "-o", str(out), "--sources", "", "--sample", "2"]) == 1
    assert "error: explicit sources and sample are mutually exclusive" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_bad_checkpoint_exits_1(g1_file, tmp_path, capsys):
    ck = tmp_path / "ck"
    ck.write_bytes(b"garbage\n")
    out = tmp_path / "r.json"
    assert main(["simulate", g1_file, "-o", str(out), "--t0", "0", "--checkpoint", str(ck)]) == 1
    assert "error:" in capsys.readouterr().err


def _list_source(doc):
    doc["source"] = [doc["source"]]


def _no_metrics(doc):
    del doc["metrics"]


def _bogus_metric(doc):
    doc["metrics"]["bogus"] = doc["metrics"].pop("foremost")


def _string_value(doc):
    values = doc["metrics"]["foremost"]["values"]
    values["b"] = str(values["b"])


def _string_t0(doc):
    doc["t0"] = str(doc["t0"])


def _unknown_vertex(doc):
    doc["metrics"]["foremost"]["values"]["zz"] = 9


def _unplanned_source(doc):
    doc["source"] = "c"


def _unknown_prior(doc):
    doc["metrics"]["foremost"]["predecessors"]["a"][1] = "zz"


def _unknown_edge(doc):
    doc["metrics"]["foremost"]["predecessors"]["a"][0] = "zz"


@pytest.mark.parametrize(
    "damage",
    [_list_source, _no_metrics, _bogus_metric, _string_value, _string_t0, _unknown_vertex,
     _unplanned_source, _unknown_prior, _unknown_edge],
    ids=["list-source", "no-metrics", "bogus-metric", "string-value", "string-t0",
         "unknown-vertex", "unplanned-source", "unknown-prior", "unknown-edge"],
)
def test_simulate_checkpoint_record_not_a_source_document_exits_1(
    g1_file, tmp_path, capsys, damage
):
    ck = tmp_path / "ck"
    out = tmp_path / "r.json"
    args = ["simulate", g1_file, "-o", str(out), "--t0", "0", "--sources", "a,b",
            "--keep-predecessors", "--checkpoint", str(ck)]
    assert main(args) == 0
    header, first, second = ck.read_bytes().splitlines(keepends=True)
    doc = json.loads(second.partition(b" ")[2])
    damage(doc)
    body = canonical_json_bytes(doc)  # a hash-valid record
    ck.write_bytes(header + first + hashlib.sha256(body).hexdigest().encode() + b" " + body)
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"bad record at byte {len(header + first)}" in err


def test_simulate_version_1_checkpoint_exits_1(g1_file, tmp_path, capsys):
    ck = tmp_path / "ck"
    write_version_1_checkpoint(ck)
    out = tmp_path / "r.json"
    assert main(["simulate", g1_file, "-o", str(out), "--t0", "0", "--checkpoint", str(ck)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "unsupported version 1" in err


def test_simulate_checkpoint_header_without_digests_exits_1(g1_file, tmp_path, capsys):
    ck = tmp_path / "ck"
    ck.write_bytes(b'{"kind":"thd-checkpoint","version":2}\n')
    out = tmp_path / "r.json"
    assert main(["simulate", g1_file, "-o", str(out), "--t0", "0", "--checkpoint", str(ck)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "lacks its input and plan digests" in err


def test_thd_threads_env_sets_default(g1_file, tmp_path, monkeypatch):
    monkeypatch.setenv("THD_THREADS", "2")
    out = tmp_path / "r.json"
    assert main(["simulate", g1_file, "-o", str(out), "--t0", "0"]) == 0
    monkeypatch.setenv("THD_THREADS", "bogus")
    out2 = tmp_path / "r2.json"
    assert main(["simulate", g1_file, "-o", str(out2), "--t0", "0"]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_invalid_thd_threads_warns_once_where_used(g1_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THD_THREADS", "bogus")
    assert main(["gen", "-o", str(tmp_path / "net.json"), "--vertices", "10", "--edges", "20"]) == 0
    assert "THD_THREADS" not in capsys.readouterr().err
    assert main(["simulate", g1_file, "-o", str(tmp_path / "r.json"), "--t0", "0"]) == 0
    assert capsys.readouterr().err.count("warning: ignoring invalid THD_THREADS='bogus'") == 1


def test_gen_random_then_validate(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["gen", "-o", str(out), "--vertices", "30", "--edges", "90", "--seed", "4"]) == 0
    assert main(["validate", str(out)]) == 0
    assert "30 vertices, 90 edges" in capsys.readouterr().out


def test_gen_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert main(["gen", "-o", str(p), "--vertices", "20", "--edges", "50", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_structured_chain(tmp_path, capsys):
    out = tmp_path / "chain.json"
    assert main(["gen", "-o", str(out), "--shape", "chain", "--size", "5"]) == 0
    assert main(["query", str(out), "--source", "v0", "--target", "v5", "--metric", "shortest"]) == 0
    assert "shortest(v0 -> v5) = 5" in capsys.readouterr().out


def test_gen_invalid_params_exit_1(tmp_path):
    assert main(["gen", "-o", str(tmp_path / "x"), "--vertices", "1", "--edges", "3"]) == 1


def test_verify_seeded_trials(capsys):
    assert main(["verify", "--trials", "15", "--seed", "77"]) == 0
    assert "15 trial(s), 0 mismatch(es)" in capsys.readouterr().out


def test_verify_input_file(g1_file, capsys):
    assert main(["verify", g1_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_verify_refuses_large_input(tmp_path, capsys):
    from thd import GenParams, gen_random

    big = tmp_path / "big.json"
    big.write_bytes(write_network(gen_random(GenParams(vertex_count=30, edge_count=60, seed=0))))
    assert main(["verify", str(big)]) == 1


def test_usage_error_unknown_command():
    for command in ("frobnicate", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2


def test_console_entry_point(g1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "thd.cli", "validate", g1_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4 vertices" in proc.stdout

"""One fresh process per step of a benchmark run; prints one JSON line.

    child.py gen   WORKLOAD SEED OUT      generate and serialize the network
    child.py setup NETWORK                time open + read_network + build_hypergraph
    child.py pass  WORKLOAD NETWORK WORKDIR TRACE
                                          the simulate pipeline once, then checks

A pass drives the library exactly as ``thd simulate`` does: open the
network file, ``read_network``, ``build_hypergraph``, ``simulate.run``,
``write_results``, write the bytes to a file. The orchestrator puts
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, Workload, worker_count  # noqa: E402


def peak_rss_mib() -> float:
    """Largest resident set of this process and of its waited-for children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def gen(w: Workload, seed: int, out: Path) -> dict:
    from thd.gen import GenParams, gen_random
    from thd.io import write_network

    h = gen_random(GenParams(seed=seed, **w.network))
    data = write_network(h, name=f"{w.name}-s{seed}")
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, out)
    return {"bytes": len(data)}


def setup(network: Path) -> dict:
    from thd.core import build_hypergraph
    from thd.io import read_network

    started = perf_counter()
    with open(network, "rb") as fh:
        edges, _ = read_network(fh, strict=True)
    build_hypergraph(edges)
    return {"setup_s": perf_counter() - started}


def simulate_pass(w: Workload, network: Path, workdir: Path, trace: bool) -> dict:
    import thd.simulate as simulate
    from thd.core import build_hypergraph
    from thd.io import read_network, write_results
    from thd.paths import Metric

    from checks import check_result
    from tracing import Tracer, layer_metrics

    checkpoint = workdir / f"{w.name}.ckpt"
    # an existing checkpoint would resume the run; old span files would count twice
    for stale in (checkpoint, checkpoint.with_name(checkpoint.name + ".tmp"), *workdir.glob("spans-*.json")):
        stale.unlink(missing_ok=True)
    out_path = workdir / f"{w.name}.result.json"
    plan = simulate.SimulationPlan(
        metrics=(Metric(w.metric),),
        sample_size=w.sample_size,
        sample_seed=w.sample_seed,
        t0=w.t0,
        keep_predecessors=w.keep_predecessors,
        parallelism=worker_count(w),
        checkpoint_path=str(checkpoint) if w.checkpoint else None,
        checkpoint_interval=w.checkpoint_interval,
    )
    tracer = Tracer(workdir) if trace else None
    if tracer is not None:
        tracer.install()
    span = tracer.span if tracer is not None else (lambda name: nullcontext({}))
    ticks: list[float] = []

    started = perf_counter()
    with span("io.read_network"):
        with open(network, "rb") as fh:
            edges, _ = read_network(fh, strict=True)
    with span("core.build_hypergraph"):
        h = build_hypergraph(edges)
    set_up = perf_counter()
    with span("simulate.run"):
        result = simulate.run(h, plan, progress=lambda _source: ticks.append(perf_counter()))
    ran = perf_counter()
    with span("io.write_results"):
        data = write_results(result, "json")
    with span("cli.write_output"):
        out_path.write_bytes(data)
    finished = perf_counter()
    peak = peak_rss_mib()

    total_s = finished - started
    doc = {
        "vertices": h.vertex_count,
        "edges": h.edge_count,
        "sources": len(result.labels),
        "setup_s": set_up - started,
        "run_s": ran - set_up,
        "total_s": total_s,
        "intervals_ms": [(b - a) * 1000 for a, b in zip(ticks, ticks[1:])],
        "peak_rss_mib": peak,
        "result_sha256": hashlib.sha256(data).hexdigest(),
        "check": check_result(h, result, witnesses=w.keep_predecessors),
    }
    if tracer is not None:
        doc["layers"] = layer_metrics(
            tracer.spans,
            tracer.worker_spans(),
            total_s=total_s,
            file_bytes=network.stat().st_size,
            records=len(edges),
            result_bytes=len(data),
            focus=w.focus,
        )
    out_path.unlink()
    checkpoint.unlink(missing_ok=True)
    return doc


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "gen":
        doc = gen(WORKLOADS[rest[0]], int(rest[1]), Path(rest[2]))
    elif mode == "setup":
        doc = setup(Path(rest[0]))
    elif mode == "pass":
        doc = simulate_pass(WORKLOADS[rest[0]], Path(rest[1]), Path(rest[2]), rest[3] == "1")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

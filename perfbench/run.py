"""Benchmark of the ``thd simulate`` pipeline, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src``. The network for (workload, seed) is generated once and cached
under ``perfbench/.work`` outside any timed region. Every timed step runs
in a fresh process (``child.py``), so no heap carries from one pass or
workload into the next.

``--trace 0`` prints the end-to-end metrics: set-up-only passes, then
full pipeline passes repeated until ``--seconds`` have passed (at least
one). ``--trace 1`` prints the per-layer metrics: one untraced pass and
two traced passes, whose exact work counts must agree. Every pass's
output is checked (see ``checks.py``). The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, worker_count  # noqa: E402

SETUP_ONLY_PASSES = 2
TRACED_PASSES = 2
TIME_LIMIT_S = 170.0  # per workload, under the 180 s a run may take

# work counts that must repeat exactly between two traced passes
EXACT_COUNTS = (
    "io.read_network.records",
    "paths.foremost.calls",
    "paths.foremost.reached",
    "paths.shortest.calls",
    "paths.shortest.reached",
    "paths.shortest.max_hop",
    "paths.fastest.calls",
    "paths.fastest.reached",
    "paths.fastest.departures",
    "simulate.checkpoint_write.calls",
    "io.write_results.bytes",
)


class BenchError(Exception):
    pass


def child(deadline: float, *argv: str) -> dict:
    """Run one ``child.py`` step in a fresh process; return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before child {argv[0]}")
    pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv],
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,  # one process group: pool workers die with it
    )
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {argv[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(argv[:2])} exited with code {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def network_file(w: Workload, seed: int, deadline: float) -> Path:
    path = WORK / w.network_key(seed)
    if not path.exists():
        child(deadline, "gen", w.name, str(seed), str(path))
    return path


def load_pins(w: Workload, seed: int) -> dict | None:
    pins = json.loads((HERE / "pins.json").read_text())
    return pins.get(w.name, {}).get(str(seed))


class Verdict:
    """Correctness over all passes of one run."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict | None = None

    def add(self, p: dict) -> None:
        check = p["check"]
        digests = check["digests"]
        bad = set(check["witness_failures"])
        for source, reason in check["witness_failures"].items():
            self.problems.append(f"witness of {source}: {reason}")
        expect = self.pins["digests"] if self.pins is not None else (self.first or p)["check"]["digests"]
        bad |= {s for s in expect.keys() | digests.keys() if expect.get(s) != digests.get(s)}
        summary = list(check["summary_failures"])
        if self.pins is not None and check["quantiles"] != self.pins["quantiles"]:
            summary.append(f"quantiles {check['quantiles']} != pinned {self.pins['quantiles']}")
        if summary:  # the summary covers every source of the pass
            self.problems.extend(summary)
            bad |= set(digests)
        if self.first is not None and p["result_sha256"] != self.first["result_sha256"] and not bad:
            self.problems.append("result bytes differ between passes of the same input")
        if bad - set(check["witness_failures"]):
            self.problems.append(f"label values differ from the reference for {len(bad)} source(s)")
        self.attempted += len(digests)
        self.failed += len(bad)
        self.first = self.first or p

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def run_untraced(w: Workload, seconds: float, net: Path, deadline: float, verdict: Verdict):
    setups = [child(deadline, "setup", str(net))["setup_s"] for _ in range(SETUP_ONLY_PASSES)]
    passes: list[dict] = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        passes.append(child(deadline, "pass", w.name, str(net), str(WORK), "0"))
        verdict.add(passes[-1])
    setups += [p["setup_s"] for p in passes]
    if worker_count(w) == 1:
        intervals = [x for p in passes for x in p["intervals_ms"]]
        interval_note = f"median of {len(intervals)} callback intervals"
        source_ms = median(intervals)
    else:
        # pool completions reach run() in bursts, so the median interval is
        # a few microseconds; use the mean interval of each pass instead
        means = [sum(p["intervals_ms"]) / len(p["intervals_ms"]) for p in passes]
        interval_note = f"mean callback interval (pool), median over {len(means)} pass(es)"
        source_ms = median(means)
    metrics = {
        "setup_s": median(setups),
        "sources_per_s": median(p["sources"] / p["run_s"] for p in passes),
        "total_s": median(p["total_s"] for p in passes),
        "source_ms_p50": source_ms,
        "peak_rss_mib": median(p["peak_rss_mib"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "sources_per_s": f"median of {len(passes)} pass(es), {passes[0]['sources']} sources each",
        "total_s": f"median of {len(passes)} pass(es)",
        "source_ms_p50": interval_note,
        "peak_rss_mib": f"median of {len(passes)} pass(es)",
    }
    return metrics, notes, passes[0]


def run_traced(w: Workload, net: Path, deadline: float, verdict: Verdict):
    plain = child(deadline, "pass", w.name, str(net), str(WORK), "0")
    verdict.add(plain)
    traced = []
    for _ in range(TRACED_PASSES):
        traced.append(child(deadline, "pass", w.name, str(net), str(WORK), "1"))
        verdict.add(traced[-1])
    layers = [p["layers"] for p in traced]
    for name in EXACT_COUNTS:
        seen = {lay[name] for lay in layers}
        if len(seen) != 1:
            verdict.problems.append(f"work count {name} differs between traced passes: {sorted(seen)}")
    metrics = {name: median(lay[name] for lay in layers) for name in layers[0]}
    metrics.update({name: layers[0][name] for name in EXACT_COUNTS})
    metrics["trace.overhead_pct"] = 100 * (median(p["total_s"] for p in traced) / plain["total_s"] - 1)
    return metrics, {}, plain


def report(w: Workload, seed: int, info: dict, metrics: dict, notes: dict, units: dict, verdict: Verdict) -> None:
    pinned = f"values pinned for seed {seed}" if verdict.pins is not None else (
        f"no pins for seed {seed}: witness, summary and repeatability checks only"
    )
    print(
        f"== {w.name} (seed {seed}): {info['vertices']} V / {info['edges']} E, "
        f"{w.metric} from {info['sources']} source(s), {worker_count(w)} process(es)"
        f"{', checkpoint every %d' % w.checkpoint_interval if w.checkpoint else ''}"
    )
    for name, value in metrics.items():
        note = notes.get(name, "")
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
        print(f"  {name:36s} {text} {units.get(name, ''):8s} {note}".rstrip())
    if "focus.share_pct" in metrics:
        print(f"  {w.focus} does {metrics['focus.share_pct']:.1f}% of total_s (the layer this workload is for)")
    ratio = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    print(f"  {'failed_ratio':36s} {ratio:14.4f} {'fraction':8s} {verdict.failed} of {verdict.attempted} source checks failed; {pinned}")
    for problem in verdict.problems[:10]:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thd" / "__init__.py").is_file():
        print(f"error: no thd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed = True, 0, 0
    out_metrics: dict[str, dict] = {}
    for name in names:
        w = WORKLOADS[name]
        deadline = time.monotonic() + TIME_LIMIT_S
        verdict = Verdict(load_pins(w, args.seed))
        try:
            net = network_file(w, args.seed, deadline)
            if args.trace:
                metrics, notes, info = run_traced(w, net, deadline, verdict)
            else:
                metrics, notes, info = run_untraced(w, args.seconds, net, deadline, verdict)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        missing = set(units) - set(metrics)
        if missing:
            print(f"error: {name}: metrics not measured: {sorted(missing)}", file=sys.stderr)
            return 2
        report(w, args.seed, info, {n: metrics[n] for n in units}, notes, units, verdict)
        prefix = "" if len(names) == 1 else f"{name}/"
        for n, unit in units.items():
            out_metrics[prefix + n] = {"value": metrics[n], "unit": unit}
        correct = correct and verdict.correct
        attempted += verdict.attempted
        failed += verdict.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

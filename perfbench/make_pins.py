"""Record the reference results the benchmark checks every pass against.

    python3 perfbench/make_pins.py [--workload NAME] SEED [SEED ...]

For each workload (or the one named) and seed, runs one untraced pass of the code under
``src`` and stores each source's label-values digest and the summary
quantiles in ``pins.json`` (other seeds' pins are kept). Pins must come
from a commit whose results are trusted: the shipped pins were made at
the commit that introduced the benchmark, whose kernels pass the
exhaustive-oracle acceptance suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import HERE, WORK, WORKLOADS, Verdict, child, network_file


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="record pins.json")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    path = HERE / "pins.json"
    pins = json.loads(path.read_text())
    WORK.mkdir(exist_ok=True)
    workloads = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    for seed in args.seeds:
        for w in workloads:
            deadline = time.monotonic() + 600
            net = network_file(w, seed, deadline)
            p = child(deadline, "pass", w.name, str(net), str(WORK), "0")
            verdict = Verdict(None)
            verdict.add(p)
            if not verdict.correct:
                print(f"{w.name} seed {seed}: not pinned: {verdict.problems}", file=sys.stderr)
                return 1
            pins.setdefault(w.name, {})[str(seed)] = {
                "digests": p["check"]["digests"],
                "quantiles": p["check"]["quantiles"],
            }
            print(f"pinned {w.name} seed {seed}: {len(p['check']['digests'])} sources", flush=True)
    pins = {w: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0]))) for w, by_seed in sorted(pins.items())}
    path.write_text(json.dumps(pins, separators=(",", ":"), sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Every path kernel against its reference on the scale network.

The network is acceptance criterion 5's (37,103 vertices, 309,740 edges,
``gen_random`` seed 1). Three seeded sources start at t0 0, and a fourth at
its default t0 with a horizon. For each source it checks, as
``test_every_kernel_matches_its_reference_mid_size`` does on smaller networks:
foremost values, then values and predecessors, against ``_foremost_by_heap``; fastest
values, with and without witnesses, against ``_fastest_heap_reference``,
with every witness feasible and attaining its value; and shortest values,
then full labels with witnesses, against ``_shortest_reference``. Prints
one line per source and exits 1 on any mismatch. On a 2-vCPU VM with
CPython 3.11.7 it took 135 s in all, 22-45 s per source, and peaked at
292 MiB. Pytest does not collect it; run it as::

    PYTHONPATH=src python tests/scale_check.py
"""

import random
import sys
import time

from thd import GenParams, fastest, foremost, gen_random, shortest, validate_walk, walk_metric_value
from thd.errors import InfeasibleWalk
from thd.simulate import SimulationPlan, resolve_t0

from references import _fastest_heap_reference, _foremost_by_heap, _shortest_reference

PARAMS = GenParams(37_103, 309_740, max_participants=4, span=1_000_000, max_length=50_000, seed=1)


def check(h, source, t0, horizon) -> tuple[int, list[str]]:
    """The number of vertices reached from one source, and every kernel's
    mismatches against its reference from it."""
    problems = []
    want = _foremost_by_heap(h, source, t0, horizon, True)
    if foremost(h, source, t0, horizon, False).values != want[0]:
        problems.append("foremost values differ from the heap reference")
    labels = foremost(h, source, t0, horizon)
    if (labels.values, labels.predecessors) != want:
        problems.append("foremost values or predecessors differ from the heap reference")
    want = _fastest_heap_reference(h, source, t0, horizon)
    if fastest(h, source, t0, horizon, False).values != want:
        problems.append("fastest values differ from the heap reference")
    labels = fastest(h, source, t0, horizon)
    if labels.values != want:
        problems.append("fastest values with witnesses differ from the heap reference")
    for target, walk in labels.witnesses.items():
        try:
            validate_walk(h, walk)
        except InfeasibleWalk as exc:
            problems.append(f"fastest witness of {target!r} is infeasible: {exc}")
            continue
        if walk.terminus != target or walk_metric_value(walk, labels.metric) != labels.values[target]:
            problems.append(f"fastest witness of {target!r} does not attain its value")
    n = h.vertex_count
    ref = _shortest_reference(h, source, t0, n, horizon)
    if shortest(h, source, t0, n, horizon, False).values != ref.values:
        problems.append("shortest values differ from the reference")
    if shortest(h, source, t0, n, horizon) != ref:
        problems.append("shortest labels with witnesses differ from the reference")
    return len(want), problems


def main() -> int:
    h = gen_random(PARAMS)
    rng = random.Random(PARAMS.seed)
    first, *rest = rng.sample(h.vertex_ids, 4)
    t0 = resolve_t0(h, SimulationPlan(), first)
    runs = [(first, t0, t0 + PARAMS.span // 5)] + [(s, 0, None) for s in rest]
    failed = 0
    for source, t0, horizon in runs:
        started = time.perf_counter()
        reached, problems = check(h, source, t0, horizon)
        failed += bool(problems)
        print(f"{source} t0={t0} horizon={horizon} reached={reached}: {'; '.join(problems[:3]) or 'ok'}"
              f" ({time.perf_counter() - started:.1f}s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

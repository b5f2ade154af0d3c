"""Batch command-line surface.

Subcommands: ``validate`` (parse and report stats), ``query`` (one
source/target distance with its witness walk), ``simulate`` (all-sources
diffusion to a result file), ``gen`` (synthetic networks), ``verify``
(differential check of the path algorithms against the brute-force
oracle).

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 internal
invariant violation, 4 target unreached (query). Every subcommand is
deterministic for a fixed ``--seed``. ``THD_THREADS`` overrides the
default parallelism for ``simulate``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .core import build_hypergraph, stats
from .errors import ThdError, Unreached
from .gen import GenParams, gen_desk_instance, gen_random, gen_structured
from .io import read_network, walk_doc, write_network, write_results
from .oracle import differential_report
from .paths import Metric, reconstruct_walk
from .simulate import SimulationPlan, compute_labels, run, validate_plan

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_UNREACHED = 4


def _load_network(path: str, strict: bool):
    with open(path, "rb") as fh:
        edges, report = read_network(fh, strict=strict)
    return build_hypergraph(edges), report


def _write_output(data: bytes, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)


def _metric(value: str) -> Metric:
    try:
        return Metric(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown metric {value!r} (foremost, shortest, fastest)"
        ) from None


def _parallelism(requested: int | None) -> int:
    """``--parallel`` when given, else ``THD_THREADS``, else 1."""
    if requested is not None:
        return requested
    raw = os.environ.get("THD_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
            if n >= 1:
                return n
        except ValueError:
            pass
        print(f"warning: ignoring invalid THD_THREADS={raw!r}", file=sys.stderr)
    return 1


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    h, report = _load_network(args.input, strict=not args.lenient)
    st = stats(h)
    if args.json:
        doc = {
            "vertices": st.vertex_count,
            "edges": st.edge_count,
            "participant_histogram": {str(k): v for k, v in sorted(st.participant_histogram.items())},
            "time_span": list(st.time_span) if st.time_span else None,
            "time_encoding": report.time_encoding,
            "skipped": [list(s) for s in report.skipped],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        span = f", span [{st.time_span[0]}, {st.time_span[1]}]" if st.time_span else ""
        print(f"{st.vertex_count} vertices, {st.edge_count} edges{span}")
        if report.skipped:
            print(f"skipped {len(report.skipped)} invalid record(s)")
            for index, reason in report.skipped:
                print(f"  record {index}: {reason}")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    h, _ = _load_network(args.input, strict=not args.lenient)
    metric = args.metric
    plan = SimulationPlan(metrics=(metric,), t0=args.t0, max_hops=args.max_hops,
                          horizon=args.horizon, keep_predecessors=True)
    validate_plan(h, plan)
    labels = compute_labels(h, plan, args.source)[metric]
    if args.target not in labels.values:
        raise Unreached(
            f"{args.target!r} is unreached from {args.source!r} at t0={args.t0}"
        )
    value = labels.values[args.target]
    walk = reconstruct_walk(labels, args.target)
    if args.json:
        doc = {
            "source": args.source,
            "target": args.target,
            "metric": metric.value,
            "t0": args.t0,
            "value": value,
            "walk": walk_doc(walk),
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"{metric.value}({args.source} -> {args.target}) = {value}")
        print(f"  depart {walk.departure}")
        for (edge_id, via), arr in zip(walk.hops, walk.arrivals):
            print(f"  {edge_id} -> {via} @ {arr}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    h, _ = _load_network(args.input, strict=not args.lenient)
    sources = tuple(args.sources.split(",")) if args.sources is not None else None
    plan = SimulationPlan(
        metrics=tuple(args.metric) if args.metric else (Metric.FOREMOST,),
        sources=sources,
        sample_size=args.sample,
        sample_seed=args.seed,
        t0=args.t0,
        max_hops=args.max_hops,
        horizon=args.horizon,
        keep_predecessors=args.keep_predecessors,
        parallelism=_parallelism(args.parallel),
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
    )
    result = run(h, plan)
    _write_output(write_results(result, args.format), args.output)
    n_sources = len(result.summary["per_source"])
    print(f"simulated {n_sources} source(s) over {h.vertex_count} vertices", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.shape == "random":
        params = GenParams(
            vertex_count=args.vertices,
            edge_count=args.edges,
            min_participants=args.min_participants,
            max_participants=args.max_participants,
            size_skew=args.skew,
            span=args.span,
            min_length=args.min_length,
            max_length=args.max_length,
            seed=args.seed,
        )
        h = gen_random(params)
        name = f"random-v{args.vertices}-e{args.edges}-s{args.seed}"
    else:
        times = [int(t) for t in args.times.split(",")] if args.times else None
        h = gen_structured(args.shape, args.size, times)
        name = f"{args.shape}-{args.size}"
    _write_output(write_network(h, name=name), args.output)
    st = stats(h)
    print(f"generated {st.vertex_count} vertices, {st.edge_count} edges", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    mismatches: list[str] = []
    if args.input:
        h, _ = _load_network(args.input, strict=True)
        if h.edge_count > args.max_oracle_edges:
            raise ThdError(
                f"input has {h.edge_count} edges; the oracle is exhaustive and "
                f"refuses more than {args.max_oracle_edges}"
            )
        trials = 1
        mismatches.extend(differential_report(h, t0=args.t0))
    else:
        trials = args.trials
        for trial in range(args.trials):
            h = gen_desk_instance(args.seed + trial, args.max_vertices, args.max_edges, args.span)
            for line in differential_report(h, t0=args.t0):
                mismatches.append(f"trial {trial} (seed {args.seed + trial}): {line}")
    if args.json:
        print(
            json.dumps(
                {"trials": trials, "mismatches": mismatches, "ok": not mismatches},
                sort_keys=True,
            )
        )
    else:
        print(f"{trials} trial(s), {len(mismatches)} mismatch(es)")
        for line in mismatches:
            print(f"  {line}")
    return EXIT_OK if not mismatches else EXIT_VALIDATION


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thd",
        description="Temporal hypergraph diffusion: minimal temporal paths at scale.",
    )
    parser.add_argument("--version", action="version", version=f"thd {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a network file and print stats")
    p.add_argument("input")
    p.add_argument("--lenient", action="store_true", help="skip invalid records instead of failing")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("query", help="one source/target distance with witness walk")
    p.add_argument("input")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--metric", type=_metric, default=Metric.FOREMOST)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--max-hops", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("simulate", help="run a metric from many sources, write results")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, help="result file (default stdout)")
    p.add_argument(
        "--metric",
        type=_metric,
        action="append",
        help="metric to compute; repeatable (default foremost)",
    )
    p.add_argument("--sources", default=None, help="comma-separated explicit sources")
    p.add_argument("--sample", type=int, default=None, help="seeded sample of N sources")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=int, default=None, help="fixed t0 (default: per-source earliest)")
    p.add_argument("--max-hops", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--keep-predecessors", action="store_true")
    p.add_argument("--parallel", type=int, default=None, help="default: THD_THREADS or 1")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-interval", type=int, default=25)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", help="generate a synthetic network file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--shape", choices=("random", "chain", "star", "clique"), default="random")
    p.add_argument("--vertices", type=int, default=100)
    p.add_argument("--edges", type=int, default=300)
    p.add_argument("--size", type=int, default=8, help="size for structured shapes")
    p.add_argument("--times", default=None, help="comma-separated ticks for structured shapes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--span", type=int, default=1000)
    p.add_argument("--min-participants", type=int, default=2)
    p.add_argument("--max-participants", type=int, default=4)
    p.add_argument("--skew", type=float, default=1.0)
    p.add_argument("--min-length", type=int, default=0)
    p.add_argument("--max-length", type=int, default=50)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="differential check against the exhaustive oracle")
    p.add_argument("input", nargs="?", default=None, help="optional desk-scale network file")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--max-edges", type=int, default=12)
    p.add_argument("--span", type=int, default=20)
    p.add_argument("--max-oracle-edges", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except Unreached as exc:
        print(f"unreached: {exc}", file=sys.stderr)
        return EXIT_UNREACHED
    except (ThdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - the 'internal invariant violation' exit
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

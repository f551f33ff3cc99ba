"""Command line interface.

Subcommands: generate, stats, sweep, verify. `stats` is the one writer of
every per-graph report (curves, census, exponent, trajectories, scatter).
Exit codes: 0 success, 1 domain error (bad parameters), 2 I/O or parse
error, 3 verification failure. Parallelism is controlled only by the
SPA_JOBS environment variable (number of worker processes for replicas
and per-file analyses; default 1, capped at the CPU count; a value that
is not a positive integer is an error).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from ._version import __version__
from . import clustering, graph_io, stats
from .errors import ParameterError, ParseError, SpaError, UsageError, VerificationError
from .generator import ModelParams, generate
from .geometry import Norm
from .verify import verify_equivalence


def _jobs() -> int:
    """Worker processes from SPA_JOBS (default 1), capped at the CPU count."""
    text = os.environ.get("SPA_JOBS", "1")
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ParameterError(f"SPA_JOBS must be a positive integer, got {text!r}")
    return min(jobs, os.cpu_count() or 1)


def _top_vertices(graph, top: int) -> np.ndarray:
    """The `top` vertices of highest in-degree, highest first; never slot 0."""
    order = np.argsort(graph.in_degree)
    order = order[order != 0]
    return order[max(order.size - top, 0):][::-1]


def _model_from_args(args) -> ModelParams:
    return ModelParams(
        n=args.n, p=args.p, a1=args.a1, a2=args.a2,
        dimension=args.dim, norm=Norm.parse(args.norm), seed=args.seed,
    )


def _run_config(args, **fields) -> graph_io.RunConfig:
    """Model flags plus --replicas/--seeds, checked as a config file is.

    RunConfig rejects --replicas < 1 and repeated seeds.
    """
    seeds = None
    if args.seeds:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ParameterError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}"
            ) from None
    return graph_io.RunConfig(_model_from_args(args), args.replicas, seeds, **fields)


def _add_model_flags(parser, n_default=100_000):
    parser.add_argument("--n", type=int, default=n_default, help="number of vertices")
    parser.add_argument("--p", type=float, default=0.7, help="link probability")
    parser.add_argument("--a1", type=float, default=1.0, help="degree coefficient")
    parser.add_argument("--a2", type=float, default=30 / 7, help="volume offset")
    parser.add_argument("--dim", type=int, default=2, help="torus dimension")
    parser.add_argument("--norm", choices=("l2", "linf"), default="linf")
    parser.add_argument("--seed", type=int, default=0, help="base seed")


def _parse_omega(mode: str, n: int) -> float:
    if mode == "loglog":
        return clustering.default_omega(n)
    if mode == "logloglog":
        return math.log(clustering.default_omega(n)) if n > 15 else 1.0
    try:
        return float(mode)
    except ValueError:
        raise ParameterError(
            f"--omega-mode must be 'loglog', 'logloglog', or a number, got {mode!r}"
        ) from None


def _graph_stem(params: ModelParams) -> str:
    return f"spa_n{params.n}_p{params.p:g}_seed{params.seed}"


def _generate_one(task):
    params, out_dir, include_positions = task
    started = time.perf_counter()
    graph = generate(params)
    wall = time.perf_counter() - started
    stem = _graph_stem(params)
    graph_path = os.path.join(out_dir, stem + ".tsv")
    graph_io.write_graph(graph, graph_path, include_positions=include_positions)
    graph_io.write_manifest(
        os.path.join(out_dir, stem + ".manifest.json"), graph, stem + ".tsv", wall
    )
    return graph_path


def _run_replicas(model: ModelParams, seeds, out_dir, include_positions=True):
    os.makedirs(out_dir, exist_ok=True)
    tasks = [
        (replace(model, seed=int(s)), out_dir, include_positions) for s in seeds
    ]
    jobs = _jobs()
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_generate_one, tasks))
    return [_generate_one(task) for task in tasks]


def cmd_generate(args) -> int:
    if args.config:
        config = graph_io.load_config(args.config)
    else:
        config = _run_config(args, include_positions=not args.no_positions)
    out_dir = args.out if args.out is not None else config.output_dir
    paths = _run_replicas(config.model, config.seed_list(), out_dir, config.include_positions)
    for path in paths:
        print(path)
    return 0


def _curve_rows(report, delta):
    rows = []
    for variant in clustering.VARIANTS:
        for d, (count, mean) in sorted(
            clustering.curve_from_report(report, variant).items()
        ):
            rows.append((variant, d, count, repr(mean)))
    for variant in clustering.VARIANTS:
        banded = clustering.banded_curve_from_report(report, variant, delta)
        for d, (count, mean) in sorted(banded.items()):
            rows.append((variant + "_band", repr(d), count, repr(mean)))
    return rows


def _pool_curves(curves: list[dict]) -> dict:
    pooled: dict = {}
    for curve in curves:
        for d, (count, mean) in curve.items():
            have_count, have_sum = pooled.get(d, (0, 0.0))
            pooled[d] = (have_count + count, have_sum + count * mean)
    return {d: (c, s / c) for d, (c, s) in pooled.items() if c > 0}


def _analyze_graph(task):
    path, split, omega_mode, d_min, top = task
    graph = graph_io.read_graph(path)
    omega = _parse_omega(omega_mode, graph.n)
    policy = clustering.SplitPolicy(mode=split, omega=omega)
    report = clustering.compute_report(graph, policy)
    census = stats.degree_census(graph)
    consts = stats.theory_constants(graph.params, i_max=max(census.counts.size - 1, 10))
    exponent = None
    try:
        exponent = stats.powerlaw_exponent(census, d_min)
    except UsageError:
        pass
    checks = [stats.trajectory_check(graph, int(v), omega) for v in _top_vertices(graph, top)]
    return graph.params, report, census, consts, exponent, checks


def cmd_stats(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    tasks = [
        (path, args.split, args.omega_mode, args.d_min, args.top)
        for path in args.graphs
    ]
    jobs = _jobs()
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            analyses = list(pool.map(_analyze_graph, tasks))
    else:
        analyses = [_analyze_graph(task) for task in tasks]

    pooled_exact: dict[str, list] = {v: [] for v in clustering.VARIANTS}
    for path, (params, report, census, consts, exponent, checks) in zip(args.graphs, analyses):
        stem = os.path.splitext(os.path.basename(path.removesuffix(".gz")))[0]
        graph_io.write_csv(
            os.path.join(args.out, f"curves_{stem}.csv"),
            graph_io.CURVE_COLUMNS, _curve_rows(report, args.delta),
        )
        census_rows = (
            (i, int(count), repr(float(count) / census.total),
             repr(float(consts.c[i])) if i < consts.c.size else "")
            for i, count in enumerate(census.counts) if count > 0
        )
        graph_io.write_csv(
            os.path.join(args.out, f"census_{stem}.csv"),
            graph_io.CENSUS_COLUMNS, census_rows,
        )
        if exponent is not None:
            graph_io.write_csv(
                os.path.join(args.out, f"exponent_{stem}.csv"),
                graph_io.EXPONENT_COLUMNS,
                [(args.d_min, exponent.n_tail, repr(exponent.estimate),
                  repr(exponent.stderr), repr(exponent.ls_slope), repr(consts.gamma))],
            )
        graph_io.write_csv(
            os.path.join(args.out, f"trajectories_{stem}.csv"),
            graph_io.TRAJECTORY_COLUMNS,
            [(c.vertex, c.final_degree, repr(c.onset_time), repr(c.ratio_min),
              repr(c.ratio_max), int(c.vacuous)) for c in checks],
        )
        scatter_rows = (
            (variant, int(degree), repr(value))
            for variant in clustering.VARIANTS
            for degree, value in clustering.scatter_from_report(report, variant).tolist()
        )
        graph_io.write_csv(
            os.path.join(args.out, f"scatter_{stem}.csv"),
            graph_io.SCATTER_COLUMNS, scatter_rows,
        )
        for variant in clustering.VARIANTS:
            pooled_exact[variant].append(clustering.curve_from_report(report, variant))

    pooled_rows = []
    for variant in clustering.VARIANTS:
        for d, (count, mean) in sorted(_pool_curves(pooled_exact[variant]).items()):
            pooled_rows.append((variant, d, count, repr(mean)))
    graph_io.write_csv(
        os.path.join(args.out, "curves_pooled.csv"), graph_io.CURVE_COLUMNS, pooled_rows
    )
    return 0


def _sweep_models(args) -> list[ModelParams]:
    """One model per --p-list entry, every entry checked before any graph is grown."""
    models = []
    for text in args.p_list.split(","):
        if not text.strip():
            continue
        try:
            p = float(text)
        except ValueError:
            raise ParameterError(f"--p-list entries must be numbers, got {text!r}") from None
        if not 0.0 < p < 1.0:
            raise ParameterError(f"sweep p values must be in (0, 1), got {p}")
        models.append(ModelParams(
            n=args.n, p=p, a1=args.a1, a2=10.0 * (1.0 - p) / p, dimension=args.dim,
            norm=Norm.parse(args.norm), seed=args.seed,
        ))
    if not models:
        raise ParameterError(f"--p-list names no p value: {args.p_list!r}")
    return models


def cmd_sweep(args) -> int:
    if args.replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {args.replicas}")
    models = _sweep_models(args)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for model in models:
        curves = {"directed": [], "undirected": []}
        for i in range(args.replicas):
            graph = generate(replace(model, seed=model.seed + i))
            report = clustering.compute_report(graph)
            for variant in curves:
                curves[variant].append(clustering.curve_from_report(report, variant))
        for variant, per_replica in curves.items():
            for d, (count, mean) in sorted(_pool_curves(per_replica).items()):
                rows.append((variant, repr(model.p), d, count, repr(mean)))
    graph_io.write_csv(
        os.path.join(args.out, "sweep.csv"),
        ("variant", "p", "d", "count", "mean_c"), rows,
    )
    print(os.path.join(args.out, "sweep.csv"))
    return 0


def cmd_verify(args) -> int:
    config = _run_config(args)
    report = verify_equivalence(config.model, config.seed_list())
    print(report.summary())
    if not report.passed:
        raise VerificationError("vertex-centric and naive runs disagree")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spa-model",
        description="Generate spatial preferential attachment graphs and "
        "verify their clustering and degree behavior.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="grow graphs and write them to disk")
    _add_model_flags(gen)
    gen.add_argument("--replicas", type=int, default=1)
    gen.add_argument("--seeds", help="comma-separated explicit seeds")
    gen.add_argument("--out", default=None, help="output directory (default: . or the config's output_dir)")
    gen.add_argument("--no-positions", action="store_true")
    gen.add_argument("--config", help="key=value config file (overrides flags)")
    gen.set_defaults(func=cmd_generate)

    st = sub.add_parser("stats", help="clustering curves, censuses, exponent, trajectories")
    st.add_argument("graphs", nargs="+", help="graph files")
    st.add_argument("--out", default=".", help="output directory")
    st.add_argument("--delta", type=float, default=0.1)
    st.add_argument("--split", choices=("log", "half"), default="log")
    st.add_argument("--omega-mode", default="loglog")
    st.add_argument("--d-min", type=int, default=10)
    st.add_argument("--top", type=int, default=20, help="trajectory checks per graph")
    st.set_defaults(func=cmd_stats)

    sw = sub.add_parser("sweep", help="p sweep with a2 = 10(1-p)/p per point")
    sw.add_argument("--p-list", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    sw.add_argument("--n", type=int, default=10_000)
    sw.add_argument("--a1", type=float, default=1.0)
    sw.add_argument("--dim", type=int, default=2)
    sw.add_argument("--norm", choices=("l2", "linf"), default="linf")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--replicas", type=int, default=1)
    sw.add_argument("--out", default=".")
    sw.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="vertex-centric vs naive equivalence on a small run")
    _add_model_flags(ver, n_default=2000)
    ver.add_argument("--replicas", type=int, default=1)
    ver.add_argument("--seeds", help="comma-separated explicit seeds")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except SpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

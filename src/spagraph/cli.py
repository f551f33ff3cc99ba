"""Command line interface.

Subcommands: generate, stats, sweep, verify. `stats` is the one writer of
every per-graph report (curves, census, exponent, trajectories, scatter).
`generate --config FILE` reads key=value lines as generate's own flags,
parsed before the command line's, so command-line flags override them
and every value gets its flag's type, default and checks. Exit codes: 0
success, 1 domain error (bad parameters or config lines), 2 I/O or parse
error (argparse's usage errors included), 3 verification failure.
Parallelism is controlled only by the SPA_JOBS environment variable
(number of worker processes for replicas and per-file analyses; default
1, capped at the CPU count; a value that is not a positive integer is an
error).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from ._version import __version__
from . import clustering, graph_io, stats
from .errors import ParameterError, ParseError, SpaError, UsageError, VerificationError
from .generator import ModelParams, generate, generate_many
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


def _map(fn, tasks) -> list:
    """fn over tasks, in SPA_JOBS worker processes when there is more than one task."""
    jobs = _jobs()
    if jobs > 1 and len(tasks) > 1:
        # imported here: it is a third of `import spagraph.cli`, and only SPA_JOBS > 1 needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _model_from_args(args) -> ModelParams:
    return ModelParams(
        n=args.n, p=args.p, a1=args.a1, a2=args.a2,
        dimension=args.dim, norm=Norm.parse(args.norm), seed=args.seed,
    )


def _seed_list(args) -> list[int]:
    """Replica seeds: --seeds if given, else --replicas (default 1) counting up from --seed.

    --replicas must be >= 1, --seeds a non-empty list of integers with no
    repeats, and at most one of them may be given.
    """
    replicas = 1 if args.replicas is None else args.replicas
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    if args.seeds is None:
        return [args.seed + i for i in range(replicas)]
    if args.replicas is not None:
        raise ParameterError("give --seeds or --replicas, not both")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ParameterError(
            f"--seeds must be comma-separated integers, got {args.seeds!r}"
        ) from None
    if len(set(seeds)) != len(seeds):
        raise ParameterError(f"replica seeds must be pairwise distinct: {seeds}")
    return seeds


# The flag each config key stands for.
_CONFIG_FLAGS = {
    "n": "--n", "p": "--p", "a1": "--a1", "a2": "--a2", "dimension": "--dim",
    "norm": "--norm", "seed": "--seed", "replicas": "--replicas", "seeds": "--seeds",
    "output_dir": "--out",
}


def _config_flags(path: str) -> list[str]:
    """The generate flags a key=value config file stands for, in file order.

    `#` starts a comment and blank lines are skipped. A line without `=`,
    an unknown key or a repeated key is an error naming the line.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path} is not UTF-8", exc.start) from None
    flags, seen = [], set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ParameterError(f"config line {lineno} is not key=value: {raw!r}")
        if key not in _CONFIG_FLAGS:
            raise ParameterError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ParameterError(f"config line {lineno}: repeated key {key!r}")
        seen.add(key)
        flags.append(f"{_CONFIG_FLAGS[key]}={value}")
    return flags


def _add_model_flags(parser, n_default=100_000):
    parser.add_argument("--n", type=int, default=n_default, help="number of vertices")
    parser.add_argument("--p", type=float, default=0.7, help="link probability")
    parser.add_argument("--a1", type=float, default=1.0, help="degree coefficient")
    parser.add_argument("--a2", type=float, default=30 / 7, help="volume offset")
    parser.add_argument("--dim", type=int, default=2, help="torus dimension")
    parser.add_argument("--norm", choices=("l2", "linf"), default="linf")
    parser.add_argument("--seed", type=int, default=0, help="base seed")


def _parse_omega(mode: str, n: int) -> float:
    """omega for an n-vertex graph; a number must be finite and > 0 whatever n is."""
    if mode == "loglog":
        return clustering.default_omega(n)
    if mode == "logloglog":
        return math.log(clustering.default_omega(n)) if n > 15 else 1.0
    try:
        omega = float(mode)
    except ValueError:
        raise ParameterError(
            f"--omega-mode must be 'loglog', 'logloglog', or a number, got {mode!r}"
        ) from None
    clustering.check_omega(omega)
    return omega


def _graph_stem(params: ModelParams) -> str:
    return f"spa_n{params.n}_p{params.p:g}_seed{params.seed}"


def _generate_one(task):
    params, out_dir = task
    started = time.perf_counter()
    graph = generate(params)
    wall = time.perf_counter() - started
    stem = _graph_stem(params)
    graph_path = os.path.join(out_dir, stem + ".tsv")
    graph_io.write_graph(graph, graph_path)
    graph_io.write_manifest(
        os.path.join(out_dir, stem + ".manifest.json"), graph, stem + ".tsv", wall
    )
    return graph_path


def cmd_generate(args) -> int:
    model = _model_from_args(args)
    tasks = [(replace(model, seed=seed), args.out) for seed in _seed_list(args)]
    os.makedirs(args.out, exist_ok=True)
    for path in _map(_generate_one, tasks):
        print(path)
    return 0


def _report_graph(task) -> dict:
    """Analyse one graph file and write its five CSVs.

    Returns its exact curves by variant, which `cmd_stats` pools.
    """
    path, stem, out, split, omega_mode, d_min, top, delta = task
    graph = graph_io.read_graph(path)
    omega = _parse_omega(omega_mode, graph.n)
    report = clustering.compute_report(graph, clustering.SplitPolicy(mode=split, omega=omega))
    census = stats.degree_census(graph)
    consts = stats.theory_constants(graph.params, i_max=max(census.counts.size - 1, 10))
    try:
        fit = stats.powerlaw_exponent(census, d_min)
    except UsageError:
        fit = None   # the exponent file then holds its header alone
    checks = [stats.trajectory_check(graph, int(v), omega) for v in stats.top_vertices(graph, top)]
    os.makedirs(out, exist_ok=True)   # only once the graph is read and analysed

    def write(kind, columns, blocks):
        graph_io.write_csv(os.path.join(out, f"{kind}_{stem}.csv"), columns, blocks)

    exact = {v: clustering.curve_from_report(report, v) for v in clustering.VARIANTS}
    curves = {**exact, **{
        v + "_band": clustering.banded_curve_from_report(report, v, delta)
        for v in clustering.VARIANTS
    }}
    write("curves", graph_io.CURVE_COLUMNS, [
        ([v] * c.d.size, c.d, c.count, c.mean) for v, c in curves.items()
    ])
    degree = np.flatnonzero(census.counts)
    count = census.counts[degree]
    write("census", graph_io.CENSUS_COLUMNS,
          [(degree, count, count / census.total, consts.c[degree])])
    write("exponent", graph_io.EXPONENT_COLUMNS, [] if fit is None else [tuple(
        np.array([x])
        for x in (d_min, fit.n_tail, fit.estimate, fit.stderr, fit.ls_slope, consts.gamma)
    )])
    dtypes = (np.int64, np.int64, float, float, float, np.int64)   # vacuous is written 0 or 1
    write("trajectories", graph_io.TRAJECTORY_COLUMNS, [tuple(
        np.array([getattr(c, field) for c in checks], dtype=dtype)
        for field, dtype in zip(graph_io.TRAJECTORY_COLUMNS, dtypes)
    )])
    records = {v: report.variant(v) for v in clustering.VARIANTS}
    write("scatter", graph_io.SCATTER_COLUMNS, (
        ([v] * r.degree.size, r.degree, r.values) for v, r in records.items()
    ))
    return exact


def cmd_stats(args) -> int:
    # every analysis flag is checked before any graph is read or directory made
    if args.top < 0:
        raise ParameterError(f"--top must be >= 0, got {args.top}")
    if not 0.0 < args.delta < 0.5:
        raise ParameterError(f"--delta must be in (0, 1/2), got {args.delta}")
    if args.d_min < 1:
        raise ParameterError(f"--d-min must be >= 1, got {args.d_min}")
    _parse_omega(args.omega_mode, 1)
    # a graph's CSVs are named by its file stem, so no two inputs may share one
    paths = {}
    for path in args.graphs:
        stem = os.path.splitext(os.path.basename(path.removesuffix(".gz")))[0]
        if stem in paths:
            raise UsageError(f"{paths[stem]} and {path} would both write the CSVs of {stem!r}")
        paths[stem] = path
    curves = _map(_report_graph, [
        (path, stem, args.out, args.split, args.omega_mode, args.d_min, args.top, args.delta)
        for stem, path in paths.items()
    ])
    pooled = {v: clustering.pool_curves([c[v] for c in curves]) for v in clustering.VARIANTS}
    os.makedirs(args.out, exist_ok=True)
    graph_io.write_csv(os.path.join(args.out, "curves_pooled.csv"), graph_io.CURVE_COLUMNS, [
        ([v] * c.d.size, c.d, c.count, c.mean) for v, c in pooled.items()
    ])
    return 0


def _sweep_models(args) -> list[ModelParams]:
    """One model per --p-list entry, none repeated, all checked before any graph is grown."""
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
        if any(model.p == p for model in models):
            raise ParameterError(f"--p-list repeats p = {p}")
        models.append(ModelParams(
            n=args.n, p=p, a1=args.a1, a2=10.0 * (1.0 - p) / p, dimension=args.dim,
            norm=Norm.parse(args.norm), seed=args.seed,
        ))
    if not models:
        raise ParameterError(f"--p-list names no p value: {args.p_list!r}")
    return models


def cmd_sweep(args) -> int:
    seeds = _seed_list(args)
    models = _sweep_models(args)
    os.makedirs(args.out, exist_ok=True)
    # per model, per variant: one curve per replica, in seed order
    curves = [{"directed": [], "undirected": []} for _ in models]
    for seed in seeds:
        # one walk grows every p of this seed; each graph is analysed and let go in turn
        graphs = generate_many([replace(model, seed=seed) for model in models])
        for per_variant, graph in zip(curves, graphs):
            report = clustering.compute_report(graph)
            for variant, per_replica in per_variant.items():
                per_replica.append(clustering.curve_from_report(report, variant))
            del graph, report
    blocks = []
    for model, per_variant in zip(models, curves):
        for variant, per_replica in per_variant.items():
            c = clustering.pool_curves(per_replica)
            p = np.full(c.d.size, model.p)
            blocks.append(([variant] * c.d.size, p, c.d, c.count, c.mean))
    graph_io.write_csv(os.path.join(args.out, "sweep.csv"), graph_io.SWEEP_COLUMNS, blocks)
    print(os.path.join(args.out, "sweep.csv"))
    return 0


def cmd_verify(args) -> int:
    report = verify_equivalence(_model_from_args(args), _seed_list(args))
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
    gen.add_argument("--replicas", type=int, help="replica count (default 1)")
    gen.add_argument("--seeds", help="comma-separated explicit seeds")
    gen.add_argument("--out", default=".", help="output directory")
    gen.add_argument("--config", help="key=value file of generate flags; "
                     "flags on the command line override it")
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
    sw.set_defaults(func=cmd_sweep, seeds=None)

    ver = sub.add_parser("verify", help="vertex-centric vs naive equivalence on a small run")
    _add_model_flags(ver, n_default=2000)
    ver.add_argument("--replicas", type=int, help="replica count (default 1)")
    ver.add_argument("--seeds", help="comma-separated explicit seeds")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate" and args.config:
            # the file's flags go first, so the command line's override them
            at = argv.index("generate") + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
        return args.func(args)
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

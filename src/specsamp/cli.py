"""Command-line harness: graph generation, filter dumps, single recovery
runs, the recovery-table and bipartite experiments, and the bipartite
sampling-identity verification.

Exit codes: 0 on success, 1 when standard output is closed before the
command has written it, 2 on configuration errors, 3 on numerical failures.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .bipartite import _RESIDUAL_TOL, build_system, verify_corollary1
from .errors import InvalidParameter, IoFailure, SpecSampError
from .experiments import (
    BIPARTITE_KINDS,
    FILTERS,
    GENERATOR_IDS,
    GRAPH_KINDS,
    MODE_IDS,
    PRIOR_IDS,
    SAMPLING_IDS,
    STRATEGY_IDS,
    BipartiteExperimentConfig,
    ExperimentConfig,
    basis_for_config,
    build_experiment_graph,
    emit_report,
    part_size,
    run_bipartite_experiment,
    run_recovery_experiment,
    run_recovery_table,
)
from .filters import inverted_ramp, save_filter
from .graphs import complete_bipartite, gen_random_bipartite, save_graph
from .sampling import SamplingConfig

# json.JSONDecodeError is a ValueError; every other SpecSampError is numerical.
_CONFIG_ERRORS = (InvalidParameter, IoFailure, KeyError, ValueError)


def _config(cls, args, **derived):
    """``cls`` built from the flags whose dest is one of its fields, then
    ``derived``, then the keys of the JSON object in the ``--config`` file
    (if the command takes one and it is given), each overriding the one
    before."""
    types = {f.name: type(f.default) for f in fields(cls)}
    flags = {k: v for k, v in vars(args).items() if k in types}
    overrides = {}
    path = getattr(args, "config", None)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        if not isinstance(overrides, dict):
            raise InvalidParameter("config file must hold a JSON object")
    bad = set(overrides) - set(types)
    if bad:
        raise InvalidParameter(f"unknown config keys: {sorted(bad)}")
    return cls(**{**flags, **derived,
                  **{k: _typed(k, types[k], v) for k, v in overrides.items()}})


def _typed(key, kind, value):
    """``value`` of config ``key`` checked against its field's type ``kind``."""
    if kind is tuple and isinstance(value, list) and all(type(v) is int for v in value):
        return tuple(value)
    if kind is float and type(value) in (int, float):
        return float(value)
    if kind in (int, str) and type(value) is kind:
        return value
    raise InvalidParameter(f"wrong type for config key {key!r}: {value!r}")


def _cmd_gen_graph(args) -> int:
    cfg = _config(ExperimentConfig, args)
    g = build_experiment_graph(cfg)
    save_graph(g, args.out)
    print(f"wrote {cfg.graph_kind} graph with n={g.n} to {args.out}")
    return 0


def _cmd_filters_dump(args) -> int:
    cfg = _config(ExperimentConfig, args)
    k = SamplingConfig(cfg.n, cfg.m).k
    basis = basis_for_config(cfg, build_experiment_graph(cfg))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    for name, build in FILTERS.items():
        save_filter(build(basis, cfg.eps, k), basis, os.path.join(args.out, f"{name}.txt"))
    print(f"wrote {len(FILTERS)} filter tables to {args.out}")
    return 0


def _cmd_recover(args) -> int:
    cfg = _config(ExperimentConfig, args)
    groups = run_recovery_experiment(cfg)
    if args.out:
        emit_report(groups, args.format, args.out)
    print(f"mean_mse_db={groups[0].mean_db!r} over {cfg.trials} trial(s)")
    return 0


def _cmd_exp_table2(args) -> int:
    groups = run_recovery_table(_config(ExperimentConfig, args))
    emit_report(groups, args.format, args.out)
    for rec in sorted({(*g.labels, g.mean_db) for g in groups}):
        print(" ".join(str(v) for v in rec))
    print(f"wrote {sum(len(g.mse_db) for g in groups)} rows to {args.out}")
    return 0


def _cmd_exp_bipartite(args) -> int:
    cfg = _config(BipartiteExperimentConfig, args, n_half=part_size(args.n, "bipartite"),
                  orders=tuple(int(p) for p in args.orders.split(",")))
    groups = run_bipartite_experiment(cfg)
    emit_report(groups, args.format, args.out)
    for mode, db in sorted({(g.labels[1], g.mean_db) for g in groups}):
        print(f"{mode}: {db:.2f} dB")
    print(f"wrote {sum(len(g.mse_db) for g in groups)} rows to {args.out}")
    return 0


def _cmd_verify_theorem1(args) -> int:
    if args.count < 0:
        raise InvalidParameter(f"need --count >= 0, got {args.count}")
    rng = np.random.default_rng(args.seed)
    cases = [("K_{2,2}", complete_bipartite(2)), ("K_{4,4}", complete_bipartite(4))]
    for i in range(args.count):
        n_half = int(rng.integers(4, 65))
        cases.append((f"random(n_half={n_half})",
                      gen_random_bipartite(n_half, int(rng.integers(0, 2**32)))))
    # build_system has already rejected any SVD residual above _RESIDUAL_TOL.
    worst = worst_filtered = 0.0
    for name, graph in cases:
        system = build_system(graph)
        x = np.random.default_rng(args.seed + 1).normal(size=graph.n)
        cres = verify_corollary1(system, inverted_ramp(system.basis_b), x)
        worst = max(worst, system.residual, cres)
        worst_filtered = max(worst_filtered, cres)
        print(f"{name}: SVD residual {system.residual:.3e}, filtered residual {cres:.3e}")
    if worst_filtered > _RESIDUAL_TOL:
        print(f"FAIL: worst filtered residual {worst_filtered:.3e} exceeds {_RESIDUAL_TOL:g}")
        return 3
    print(f"OK: worst residual {worst:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsamp",
        description="Generalized sampling and recovery of graph signals in the "
                    "graph frequency domain.")
    parser.add_argument("--version", action="version", version=f"specsamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a graph and write its edge list")
    p.add_argument("--kind", dest="graph_kind", default="sensor", choices=GRAPH_KINDS)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--seed", dest="graph_seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_graph)

    p = sub.add_parser("filters", help="filter table utilities")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    fd = fsub.add_parser("dump", help="write two-column (lambda, value) filter tables")
    fd.add_argument("--kind", dest="graph_kind", default="sensor", choices=GRAPH_KINDS)
    fd.add_argument("--n", type=int, default=64)
    fd.add_argument("--seed", dest="graph_seed", type=int, default=0)
    fd.add_argument("--m", type=int, default=8)
    fd.add_argument("--eps", type=float, default=0.1)
    fd.add_argument("--out", required=True)
    fd.set_defaults(fn=_cmd_filters_dump)

    p = sub.add_parser("recover", help="run a single recovery pipeline")
    p.add_argument("--kind", dest="graph_kind", default="sensor", choices=GRAPH_KINDS)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--seed", dest="graph_seed", type=int, default=0)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--generator", default="gen1", choices=GENERATOR_IDS)
    p.add_argument("--sampling", dest="sampling_filter", default="bl", choices=SAMPLING_IDS)
    p.add_argument("--prior", default="subspace", choices=PRIOR_IDS)
    p.add_argument("--mode", default="unconstrained", choices=MODE_IDS)
    p.add_argument("--strategy", default="ds", choices=STRATEGY_IDS)
    p.add_argument("--noise", dest="noise_variance", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("exp", help="experiment harness")
    esub = p.add_subparsers(dest="subcommand", required=True)
    t2 = esub.add_parser("table2", help="full recovery method/filter/noise matrix")
    t2.add_argument("--kind", dest="graph_kind", default="sensor", choices=GRAPH_KINDS)
    t2.add_argument("--n", type=int, default=256)
    t2.add_argument("--seed", dest="graph_seed", type=int, default=0)
    t2.add_argument("--m", type=int, default=8)
    t2.add_argument("--trials", type=int, default=1000)
    t2.add_argument("--noise", dest="noise_variance", type=float, default=0.1)
    t2.add_argument("--rng-seed", type=int, default=0)
    t2.add_argument("--config", default=None)
    t2.add_argument("--out", required=True)
    t2.add_argument("--format", default="csv", choices=["csv", "json"])
    t2.set_defaults(fn=_cmd_exp_table2)

    bp = esub.add_parser("bipartite", help="one-branch Chebyshev-order sweep")
    bp.add_argument("--n", type=int, default=256)
    bp.add_argument("--seed", dest="graph_seed", type=int, default=0)
    bp.add_argument("--graph", dest="graph_kind", default="matched", choices=BIPARTITE_KINDS)
    bp.add_argument("--p", type=float, default=0.5)
    bp.add_argument("--orders", default="2,4,8,16,24,32")
    bp.add_argument("--trials", type=int, default=100)
    bp.add_argument("--rng-seed", type=int, default=0)
    bp.add_argument("--coeff-mean", type=float, default=1.0)
    bp.add_argument("--config", default=None)
    bp.add_argument("--out", required=True)
    bp.add_argument("--format", default="csv", choices=["csv", "json"])
    bp.set_defaults(fn=_cmd_exp_bipartite)

    p = sub.add_parser("verify", help="numerical identity checks")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    th = vsub.add_parser("theorem1",
                         help="bipartite vertex/frequency sampling identity residuals")
    th.add_argument("--seed", type=int, default=0)
    th.add_argument("--count", type=int, default=20)
    th.set_defaults(fn=_cmd_verify_theorem1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SpecSampError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: graph generation, filter dumps, single recovery
runs, the recovery-table and bipartite experiments, and the bipartite
sampling-identity verification.

Exit codes: 0 on success, 1 when standard output is closed before the
command has written it, 2 on configuration errors, 3 on numerical failures.
"""

import argparse
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
    ExperimentConfig,
    basis_for_config,
    build_experiment_graph,
    emit_report,
    run_bipartite_experiment,
    run_recovery_experiment,
    run_recovery_table,
)
from .filters import inverted_ramp, save_filter
from .graphs import _integer, complete_bipartite, gen_random_bipartite, save_graph
from .sampling import SamplingConfig

# KeyError and ValueError are configuration errors; any other SpecSampError is numerical.
_CONFIG_ERRORS = (InvalidParameter, IoFailure, KeyError, ValueError)


def _config(args) -> ExperimentConfig:
    """The ExperimentConfig of the command's flags whose dest is one of its
    fields. argparse has already read any ``@FILE`` settings file through the
    same flags, so a file can set only the command's own flags."""
    names = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names})


def _cmd_gen_graph(args) -> int:
    cfg = _config(args)
    g = build_experiment_graph(cfg)
    save_graph(g, args.out)
    print(f"wrote {cfg.graph_kind} graph with n={g.n} to {args.out}")
    return 0


def _cmd_filters_dump(args) -> int:
    cfg = _config(args)
    k = SamplingConfig(cfg.n, cfg.m).k
    basis = basis_for_config(cfg, build_experiment_graph(cfg))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    for name, build in FILTERS.items():
        save_filter(build(basis, k), basis, os.path.join(args.out, f"{name}.txt"))
    print(f"wrote {len(FILTERS)} filter tables to {args.out}")
    return 0


def _cmd_recover(args) -> int:
    cfg = _config(args)
    groups = run_recovery_experiment(cfg)
    if args.out:
        emit_report(groups, args.out)
    print(f"mean_mse_db={groups[0].mean_db!r} over {cfg.trials} trial(s)")
    return 0


def _cmd_exp_table2(args) -> int:
    groups = run_recovery_table(_config(args))
    emit_report(groups, args.out)
    for rec in sorted({(*g.labels, g.mean_db) for g in groups}):
        print(" ".join(str(v) for v in rec))
    print(f"wrote {sum(len(g.mse_db) for g in groups)} rows to {args.out}")
    return 0


def _cmd_exp_bipartite(args) -> int:
    groups = run_bipartite_experiment(_config(args))
    emit_report(groups, args.out)
    for mode, db in sorted({(g.labels[1], g.mean_db) for g in groups}):
        print(f"{mode}: {db:.2f} dB")
    print(f"wrote {sum(len(g.mse_db) for g in groups)} rows to {args.out}")
    return 0


def _cmd_verify_theorem1(args) -> int:
    count, seed = _integer(args.count, "--count", 0), _integer(args.seed, "--seed", 0)
    rng = np.random.default_rng(seed)
    cases = [("K_{2,2}", complete_bipartite(2)), ("K_{4,4}", complete_bipartite(4))]
    for i in range(count):
        n_half = int(rng.integers(4, 65))
        cases.append((f"random(n_half={n_half})",
                      gen_random_bipartite(n_half, int(rng.integers(0, 2**32)))))
    # build_system has already rejected any SVD residual above _RESIDUAL_TOL.
    worst = worst_filtered = 0.0
    for name, graph in cases:
        system = build_system(graph)
        x = np.random.default_rng(seed + 1).normal(size=graph.n)
        cres = verify_corollary1(system, inverted_ramp(system.basis_b), x)
        worst = max(worst, system.residual, cres)
        worst_filtered = max(worst_filtered, cres)
        print(f"{name}: SVD residual {system.residual:.3e}, filtered residual {cres:.3e}")
    if worst_filtered > _RESIDUAL_TOL:
        print(f"FAIL: worst filtered residual {worst_filtered:.3e} exceeds {_RESIDUAL_TOL:g}")
        return 3
    print(f"OK: worst residual {worst:.3e}")
    return 0


def _orders(text: str) -> tuple:
    """The ``--orders`` value: comma-separated integers."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers such as 2,4,8, got {text!r}") from None


def _command(subparsers, name: str, help: str, fn, groups, **defaults):
    """The parser of command ``name``, which runs ``fn``: the named groups of
    the flags several commands share, each flag defined here once, with
    ``defaults`` set over theirs. The caller adds the command's own flags."""
    p = subparsers.add_parser(name, help=help)
    if "graph" in groups:
        p.add_argument("--n", type=int, default=256)
        p.add_argument("--seed", dest="graph_seed", type=int, default=0)
        p.add_argument("--p", type=float, default=0.5)
    if "kind" in groups:
        p.add_argument("--kind", dest="graph_kind", default="sensor", choices=GRAPH_KINDS)
    if "sampling" in groups:
        p.add_argument("--m", type=int, default=8)
    if "run" in groups:  # --trials has no default here: each command sets its own
        p.add_argument("--trials", type=int)
        p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(fn=fn, **defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsamp", fromfile_prefix_chars="@",
        description="Generalized sampling and recovery of graph signals in the "
                    "graph frequency domain.")
    parser.add_argument("--version", action="version", version=f"specsamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "gen-graph", "generate a graph and write its edge list",
                 _cmd_gen_graph, ("graph", "kind"))
    p.add_argument("--out", required=True)

    fsub = sub.add_parser("filters", help="filter table utilities").add_subparsers(
        dest="subcommand", required=True)
    p = _command(fsub, "dump", "write two-column (lambda, value) filter tables",
                 _cmd_filters_dump, ("graph", "kind", "sampling"), n=64)
    p.add_argument("--out", required=True)

    p = _command(sub, "recover", "run a single recovery pipeline", _cmd_recover,
                 ("graph", "kind", "sampling", "run"), trials=1)
    p.add_argument("--generator", default="gen1", choices=GENERATOR_IDS)
    p.add_argument("--sampling", dest="sampling_filter", default="bl", choices=SAMPLING_IDS)
    p.add_argument("--prior", default="subspace", choices=PRIOR_IDS)
    p.add_argument("--mode", default="unconstrained", choices=MODE_IDS)
    p.add_argument("--strategy", default="ds", choices=STRATEGY_IDS)
    p.add_argument("--noise", dest="noise_variance", type=float, default=0.0)
    p.add_argument("--out", default=None)

    esub = sub.add_parser("exp", help="experiment harness").add_subparsers(
        dest="subcommand", required=True)
    p = _command(esub, "table2", "full recovery method/filter/noise matrix", _cmd_exp_table2,
                 ("graph", "kind", "sampling", "run"), trials=1000)
    p.add_argument("--noise", dest="noise_variance", type=float, default=0.1)
    p.add_argument("--out", required=True)

    p = _command(esub, "bipartite", "one-branch Chebyshev-order sweep", _cmd_exp_bipartite,
                 ("graph", "run"), trials=100)
    p.add_argument("--graph", dest="graph_kind", default="matched", choices=BIPARTITE_KINDS)
    p.add_argument("--orders", type=_orders, default=(2, 4, 8, 16, 24, 32))
    p.add_argument("--out", required=True)

    vsub = sub.add_parser("verify", help="numerical identity checks").add_subparsers(
        dest="subcommand", required=True)
    p = vsub.add_parser("theorem1",
                        help="bipartite vertex/frequency sampling identity residuals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(fn=_cmd_verify_theorem1)

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

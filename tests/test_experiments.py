import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsamp import InvalidParameter, IoFailure, SpecSampError, bipartite, cli, experiments
from specsamp.cli import main
from specsamp.experiments import (
    BIPARTITE_KINDS,
    GENERATOR_IDS,
    GRAPH_KINDS,
    MODE_IDS,
    PRIOR_IDS,
    REPORT_COLUMNS,
    SAMPLING_IDS,
    STRATEGY_IDS,
    ExperimentConfig,
    ReportGroup,
    _trial_group,
    build_experiment_graph,
    emit_report,
    run_bipartite_experiment,
    run_recovery_experiment,
    run_recovery_table,
)
from specsamp.bipartite import build_system, fit_one_branch, one_branch_design
from specsamp.chebyshev import evaluate
from specsamp.filters import inverted_ramp
from specsamp.recovery import MSE_FLOOR_DB

SMALL = dict(graph_kind="sensor", n=32, graph_seed=1, m=4, trials=3, rng_seed=5)


def _read_report(path):
    """The rows of a CSV report, every value the string written."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rows(groups):
    """The report rows of ``groups``, one dict per trial, each column named
    here rather than taken from REPORT_COLUMNS."""
    rows = []
    for g in groups:
        for t in range(len(g.mse_db)):
            rows.append({"prior": g.labels[0], "mode": g.labels[1], "strategy": g.labels[2],
                         "sampling_filter": g.labels[3], "generator": g.labels[4],
                         "noise": g.labels[5], "trial": t, "mse_db": float(g.mse_db[t]),
                         "mean_mse_db": g.mean_db})
    return rows


def test_run_is_deterministic():
    cfg = ExperimentConfig(**SMALL)
    a = run_recovery_experiment(cfg)
    b = run_recovery_experiment(cfg)
    assert _rows(a) == _rows(b)


def test_unconstrained_noiseless_is_machine_precision():
    cfg = ExperimentConfig(prior="subspace", mode="unconstrained", **SMALL)
    assert run_recovery_experiment(cfg)[0].mean_db <= -200


def test_noise_degrades_recovery():
    clean = ExperimentConfig(prior="subspace", mode="unconstrained", **SMALL)
    noisy_args = dict(SMALL)
    noisy = ExperimentConfig(prior="subspace", mode="unconstrained",
                             noise_variance=0.1, **noisy_args)
    db_clean = run_recovery_experiment(clean)[0].mean_db
    db_noisy = run_recovery_experiment(noisy)[0].mean_db
    assert db_noisy > db_clean + 50


def test_rows_have_report_columns():
    rows = _rows(run_recovery_experiment(ExperimentConfig(**SMALL)))
    assert len(rows) == SMALL["trials"]
    for row in rows:
        assert tuple(row.keys()) == REPORT_COLUMNS


def test_baseline_forces_bandlimited_sampling():
    cfg = ExperimentConfig(prior="baseline", mode="predefined",
                           sampling_filter="ir", **SMALL)
    assert _rows(run_recovery_experiment(cfg))[0]["sampling_filter"] == "bl"


def test_cli_recover_baseline_writes_canonical_labels(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["recover", "--prior", "baseline", "--mode", "unconstrained",
                 "--strategy", "ls", "--sampling", "ir", "--n", "32", "--m", "4",
                 "--trials", "2", "--out", str(out)]) == 0
    rows = _read_report(out)
    assert {(r["prior"], r["mode"], r["strategy"], r["sampling_filter"]) for r in rows} \
        == {("baseline", "predefined", "ds", "bl")}


def test_config_validation():
    with pytest.raises(InvalidParameter):
        ExperimentConfig(trials=0)
    with pytest.raises(InvalidParameter):
        ExperimentConfig(noise_variance=-1.0)
    with pytest.raises(InvalidParameter):
        ExperimentConfig(generator="nope")
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter):
            ExperimentConfig(noise_variance=value)


SMALL_RUNS = {
    "recover": ["recover", "--n", "32", "--m", "4", "--trials", "2"],
    "table2": ["exp", "table2", "--n", "32", "--m", "4", "--trials", "2"],
    "bipartite": ["exp", "bipartite", "--n", "32", "--orders", "2", "--trials", "2"],
}


def _exit_code(argv):
    """The exit code of ``main(argv)``, also when argparse exits on a usage
    error: it raises SystemExit rather than return."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _args_file(path, *lines):
    """``path`` holding one argument per line, passed as ``@path``."""
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


@pytest.fixture
def no_graphs(monkeypatch):
    """Make building any experiment graph fail the test."""
    def no_graph(*args):
        raise AssertionError("graph built before the settings were checked")

    for name in ("build_experiment_graph", "gen_matched_bipartite", "gen_random_bipartite"):
        monkeypatch.setattr(experiments, name, no_graph)


RUNNERS = {"recover": run_recovery_experiment, "table2": run_recovery_table,
           "bipartite": run_bipartite_experiment}


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("field,value", [
    ("n", 32.0), ("graph_seed", 1.5), ("m", 4.0), ("trials", 2.5), ("rng_seed", 0.5),
    ("orders", (2, 4.5)), ("orders", 4), ("graph_seed", -1), ("rng_seed", -1),
    ("noise_variance", "0.1"), ("noise_variance", None), ("p", "x"), ("p", None),
])
def test_bad_settings_fail_before_any_graph(no_graphs, runner, field, value):
    kind = {"graph_kind": "matched"} if runner == "bipartite" else {}
    with pytest.raises(InvalidParameter, match=field):
        RUNNERS[runner](ExperimentConfig(**{**SMALL, **kind, field: value}))


def test_config_stores_integer_settings_as_ints():
    cfg = ExperimentConfig(n=np.int64(32), m=np.int32(4), trials=np.uint8(2),
                           orders=np.array([2, 4]))
    assert (type(cfg.n), type(cfg.m), type(cfg.trials)) == (int, int, int)
    assert cfg.orders == (2, 4) and all(type(p) is int for p in cfg.orders)
    cfg = ExperimentConfig(noise_variance=0, p=1)
    assert (cfg.noise_variance, cfg.p) == (0.0, 1.0)
    assert (type(cfg.noise_variance), type(cfg.p)) == (float, float)


@pytest.mark.parametrize("kind", ["sensor", "random", "nope"])
def test_bipartite_experiment_rejects_other_graph_kinds(no_graphs, kind):
    with pytest.raises(InvalidParameter, match="bipartite.*complete-bipartite.*matched"):
        run_bipartite_experiment(ExperimentConfig(graph_kind=kind, n=32, trials=2))


@pytest.mark.parametrize("flag,field", [("--seed", "graph_seed"), ("--rng-seed", "rng_seed")])
def test_cli_rejects_negative_seeds_before_any_graph(no_graphs, tmp_path, capsys, flag, field):
    out = tmp_path / "r.csv"
    for argv in SMALL_RUNS.values():
        assert main([*argv, flag, "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not out.exists()


def test_cli_exp_bipartite_config_rejects_a_recovery_graph_kind(no_graphs, tmp_path, capsys):
    out = tmp_path / "bp.csv"
    argfile = _args_file(tmp_path / "run.args", "--graph=sensor")
    assert _exit_code([*SMALL_RUNS["bipartite"], argfile, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "matched" in err and "complete-bipartite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("recover", "--noise", "1e308"), ("table2", "--noise", "1e308"),
    ("table2", "--noise", "1.7e308"), ("table2-circular", "--noise", "1.7e308"),
])
def test_cli_rejects_an_overflowing_draw_without_a_report(tmp_path, capsys, command, flag,
                                                          value):
    # tier-1 turns warnings into errors, so this also pins that none escapes.
    runs = {**SMALL_RUNS, "table2-circular": [*SMALL_RUNS["table2"], "--kind", "circular"]}
    out = tmp_path / "r.csv"
    assert main([*runs[command], flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "noise_variance" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    (["filters", "dump"], "--eps"), (["recover"], "--eps"), (["exp", "table2"], "--eps"),
    (["recover"], "--coeff-mean"), (["exp", "table2"], "--coeff-mean"),
    (["exp", "bipartite"], "--coeff-mean"),
], ids=["filters-dump-eps", "recover-eps", "table2-eps", "recover-coeff-mean",
        "table2-coeff-mean", "bipartite-coeff-mean"])
def test_cli_has_no_eps_or_coeff_mean_flag(tmp_path, capsys, command, flag):
    # The paper's eps = 0.1 and coefficient mean 1 are constants.
    value = "0.2" if flag == "--eps" else "2"
    out = tmp_path / "out"
    for form in [[flag, value], [_args_file(tmp_path / "run.args", f"{flag}={value}")]]:
        with pytest.raises(SystemExit) as caught:
            main([*command, *form, "--out", str(out)])
        assert caught.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_cli_has_no_format_flag(tmp_path, capsys, command):
    # Reports are CSV only.
    out = tmp_path / "r.json"
    assert _exit_code([*SMALL_RUNS[command], "--format", "json", "--out", str(out)]) == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("orders", ["2,x", "2,,4", ""])
def test_cli_orders_error_names_the_expected_form(tmp_path, capsys, orders):
    out = tmp_path / "bp.csv"
    assert _exit_code([*SMALL_RUNS["bipartite"], f"--orders={orders}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "comma-separated" in err and "<lambda>" not in err
    assert not out.exists()


def test_trial_group_rejects_non_finite_energies():
    x = np.ones((2, 3))
    for err, energy in [(x, np.array([1.0, np.inf, 1.0])), (x * np.inf, np.ones(3)),
                        (x * np.nan, np.ones(3))]:
        with pytest.raises(InvalidParameter, match="not finite"):
            _trial_group(("subspace", "unconstrained", "ds", "bl", "gen1", 0.0), err, energy)


def _flag_dests(parser):
    """The dest of every flag of ``parser`` and of its subcommands."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= _flag_dests(sub)
        elif action.option_strings:
            dests.add(action.dest)
    return dests


def test_every_config_field_is_set_by_some_flag():
    # The one config holds no field that no command sets.
    names = {f.name for f in fields(ExperimentConfig)}
    assert names - _flag_dests(cli.build_parser()) == set()
    assert len(names) == 14


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,flag,key", [
    ("recover", "--noise", "noise_variance"),
    ("table2", "--noise", "noise_variance"),
])
def test_cli_rejects_non_finite_settings(tmp_path, capsys, command, flag, key, value):
    out = tmp_path / "r.csv"
    for form in [[flag, value], [_args_file(tmp_path / "run.args", f"{flag}={value}")]]:
        assert main([*SMALL_RUNS[command], *form, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("mode", MODE_IDS)
def test_smoothness_with_ds_is_rejected_before_any_graph(monkeypatch, tmp_path, capsys, mode):
    built = []
    monkeypatch.setattr(experiments, "build_experiment_graph", built.append)
    with pytest.raises(InvalidParameter, match="ls.*mx"):
        ExperimentConfig(prior="smoothness", mode=mode, strategy="ds")
    assert main([*SMALL_RUNS["recover"], "--prior", "smoothness", "--mode", mode,
                 "--strategy", "ds", "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "ls" in err and "mx" in err and "Traceback" not in err
    assert built == []


def test_table_matrix_row_counts():
    base = ExperimentConfig(noise_variance=0.1, **SMALL)
    rows = _rows(run_recovery_table(base))
    # 5 methods x 2 sampling filters = 10 proposed rows per generator/noise
    # cell, each row repeated per trial, plus one baseline per cell.
    proposed = [r for r in rows if r["prior"] != "baseline"]
    baseline = [r for r in rows if r["prior"] == "baseline"]
    assert len(proposed) == 10 * 2 * 2 * SMALL["trials"]
    assert len(baseline) == 1 * 2 * 2 * SMALL["trials"]
    cells = {(r["prior"], r["mode"], r["strategy"], r["sampling_filter"],
              r["generator"], r["noise"]) for r in rows}
    assert len(cells) == (10 + 1) * 2 * 2


def test_table_is_one_experiment(monkeypatch):
    calls = []
    decompose = experiments.eigendecompose

    def counted(op):
        calls.append(op)
        return decompose(op)

    monkeypatch.setattr(experiments, "eigendecompose", counted)
    base = ExperimentConfig(noise_variance=0.1, **SMALL)
    groups = run_recovery_table(base)
    assert len(calls) == 1
    # Every group is the group `recover` gives for that group's configuration.
    for group in groups:
        prior, mode, strategy, sampling, generator, noise = group.labels
        cfg = replace(base, prior=prior, mode=mode, strategy=strategy,
                      sampling_filter=sampling, generator=generator, noise_variance=noise)
        assert _rows([group]) == _rows(run_recovery_experiment(cfg))


def test_table_builds_each_design_once_per_generator(monkeypatch):
    calls = []
    design = experiments.design_for_config

    def counted(*args):
        calls.append(args[0])
        return design(*args)

    monkeypatch.setattr(experiments, "design_for_config", counted)
    groups = run_recovery_table(ExperimentConfig(noise_variance=0.1, **SMALL))
    assert len(groups) == 44
    assert len(calls) == 22 and len(set(calls)) == 11


def test_runners_take_no_input_the_config_determines():
    assert list(inspect.signature(experiments._recovery_groups).parameters) \
        == ["base", "generators", "methods"]
    assert list(inspect.signature(cli._config).parameters) == ["args"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_table_does_not_depend_on_the_eigensolver_driver(monkeypatch):
    """The evd driver behind np.linalg.eigh and the evr driver pick different
    bases of the degenerate eigenspaces of K_{8,8}; the means must agree."""
    import scipy.linalg

    cfg = ExperimentConfig(graph_kind="complete-bipartite", n=16, m=4, trials=50,
                           noise_variance=0.1)
    evd = run_recovery_table(cfg)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: scipy.linalg.eigh(a, driver="evr"))
    evr = run_recovery_table(cfg)
    assert [g.labels for g in evd] == [g.labels for g in evr]
    for a, b in zip(evd, evr):
        if max(a.mean_db, b.mean_db) > -200.0:
            assert abs(a.mean_db - b.mean_db) <= 1e-9, a.labels


def test_trial_columns_are_a_prefix_of_longer_runs():
    short, long = (run_recovery_table(ExperimentConfig(**{**SMALL, "trials": trials},
                                                       noise_variance=0.1))
                   for trials in (3, 7))
    assert [g.labels for g in short] == [g.labels for g in long]
    for a, b in zip(short, long):
        head = b.mse_db[:3]
        keep = (a.mse_db > -200.0) | (head > -200.0)
        assert np.all(np.abs(a.mse_db - head)[keep] <= 1e-9), a.labels


@pytest.mark.parametrize("kind", ["bipartite", "complete-bipartite"])
def test_bipartite_kinds_reject_odd_n(tmp_path, kind):
    with pytest.raises(InvalidParameter):
        build_experiment_graph(ExperimentConfig(graph_kind=kind, n=63))
    assert main(["gen-graph", "--kind", kind, "--n", "63",
                 "--out", str(tmp_path / "g.txt")]) == 2


def test_cli_exp_bipartite_rejects_odd_n(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["exp", "bipartite", "--n", "63", "--orders", "2", "--trials", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "even n" in err and "Traceback" not in err
    assert not out.exists()


def test_emit_report_csv_roundtrip(tmp_path):
    groups = run_recovery_experiment(ExperimentConfig(**SMALL))
    path = tmp_path / "r.csv"
    emit_report(groups, str(path))
    rows = _rows(groups)
    back = _read_report(path)
    assert len(back) == len(rows)
    for want, got in zip(rows, back):
        assert {c: type(want[c])(got[c]) for c in REPORT_COLUMNS} == want


def test_emit_report_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], str(path))
    assert path.read_text() == ",".join(REPORT_COLUMNS) + "\n"


def test_emit_report_deterministic_bytes(tmp_path):
    groups = run_recovery_experiment(ExperimentConfig(trials=1, **{k: v for k, v in SMALL.items() if k != "trials"}))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(groups, str(p1))
    emit_report(run_recovery_experiment(
        ExperimentConfig(trials=1, **{k: v for k, v in SMALL.items() if k != "trials"})),
        str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_bipartite_experiment_modes_and_exact_floor():
    cfg = ExperimentConfig(graph_kind="matched", n=32, graph_seed=2, orders=(2, 8),
                           trials=4, rng_seed=7)
    means = {g.labels[1]: g.mean_db for g in run_bipartite_experiment(cfg)}
    assert set(means) == {"exact", "chebyshev_p2", "chebyshev_p8",
                          "chebyshev_baseline_p2", "chebyshev_baseline_p8"}
    exact_db = means["exact"]
    assert exact_db <= -180


def test_bipartite_experiment_deterministic():
    cfg = ExperimentConfig(graph_kind="matched", n=16, graph_seed=3, orders=(4,), trials=2,
                           rng_seed=9)
    assert _rows(run_bipartite_experiment(cfg)) == \
        _rows(run_bipartite_experiment(cfg))


def test_cli_gen_graph(tmp_path):
    out = tmp_path / "g.txt"
    code = main(["gen-graph", "--kind", "circular", "--n", "8", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("N 8")


@pytest.mark.parametrize("argv", [
    ["gen-graph", "--kind", "bipartite", "--n", "0"],
    ["gen-graph", "--kind", "complete-bipartite", "--n", "0"],
    ["exp", "bipartite", "--n", "4"],
], ids=["bipartite", "complete-bipartite", "exp-bipartite"])
def test_cli_part_size_errors_name_vertices_per_part(tmp_path, capsys, argv):
    # The user sets --n, the vertex count, so the message does not name n_half.
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "per part" in err and "n_half" not in err and "Traceback" not in err
    assert not out.exists()


def test_cli_gen_graph_connectivity_failure_exit_code(tmp_path):
    out = tmp_path / "g.txt"
    code = main(["gen-graph", "--kind", "bipartite", "--n", "8",
                 "--p", "0.001", "--out", str(out)])
    assert code == 3


def test_cli_filters_dump(tmp_path):
    out = tmp_path / "filters"
    code = main(["filters", "dump", "--kind", "sensor", "--n", "16", "--m", "4",
                 "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{name}.txt" for name in ("bl", "ir", "gen1", "gen2", "cos", "smooth", "identity"))
    lines = (out / "bl.txt").read_text().splitlines()
    assert len(lines) == 16


def test_cli_recover_writes_report(tmp_path):
    out = tmp_path / "run.csv"
    args = ["recover", "--kind", "sensor", "--n", "32", "--m", "4",
            "--trials", "2", "--rng-seed", "3", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_cli_recover_rejects_unknown_config_key(tmp_path, capsys):
    argfile = _args_file(tmp_path / "run.args", "--not-a-flag=1")
    assert _exit_code(["recover", "--kind", "sensor", "--n", "32", "--m", "4", argfile]) == 2
    assert "unrecognized arguments: --not-a-flag=1" in capsys.readouterr().err


def test_cli_exp_table2_small(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["exp", "table2", "--kind", "sensor", "--n", "32", "--m", "4",
                 "--trials", "2", "--rng-seed", "1", "--out", str(out)])
    assert code == 0
    rows = _read_report(out)
    assert len(rows) == (10 + 1) * 2 * 2 * 2


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_cli_exp_table2_runs_on_every_graph_kind(tmp_path, kind):
    out = tmp_path / "table.csv"
    assert main(["exp", "table2", "--kind", kind, "--n", "16", "--m", "4",
                 "--trials", "2", "--out", str(out)]) == 0
    assert len(_read_report(out)) == 44 * 2


@pytest.mark.parametrize("command", [["gen-graph"], ["filters", "dump"], ["recover"],
                                     ["exp", "table2"]])
def test_cli_commands_offer_every_graph_kind(command):
    for kind in GRAPH_KINDS:
        args = cli.build_parser().parse_args([*command, "--kind", kind, "--out", "x"])
        assert args.graph_kind == kind


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_every_graph_kind_builds_through_the_one_builder(kind):
    g = build_experiment_graph(ExperimentConfig(graph_kind=kind, n=16, graph_seed=3))
    assert g.n == 16
    assert g.bipartition == (None if kind in ("sensor", "circular") else 8)


def test_complete_bipartite_sweep_is_the_bernoulli_sweep_at_p_1():
    def rows(kind, p):
        return _rows(run_bipartite_experiment(ExperimentConfig(
            graph_kind=kind, n=16, p=p, orders=(2, 4), trials=2)))

    assert repr(rows("complete-bipartite", 0.5)) == repr(rows("bipartite", 1.0))


def _parser(*command):
    """The parser of ``command``, a path of subcommand names."""
    parser = cli.build_parser()
    for name in command:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


@pytest.mark.parametrize("command,flag,kinds", [
    (["gen-graph"], "--kind", GRAPH_KINDS), (["filters", "dump"], "--kind", GRAPH_KINDS),
    (["recover"], "--kind", GRAPH_KINDS), (["exp", "table2"], "--kind", GRAPH_KINDS),
    (["exp", "bipartite"], "--graph", BIPARTITE_KINDS),
], ids=["gen-graph", "filters-dump", "recover", "table2", "bipartite"])
def test_cli_graph_flags_take_the_one_vocabulary(command, flag, kinds):
    action = next(a for a in _parser(*command)._actions if flag in a.option_strings)
    assert tuple(action.choices) == kinds


class _Captured(Exception):
    pass


def _capture(cfg, *rest):
    raise _Captured(cfg)


# Each command with every flag that sets a config field at a non-default
# value, the function that receives the config, and the fields it must hold.
FLAG_FIELDS = [
    (["gen-graph", "--kind", "circular", "--n", "12", "--seed", "3", "--p", "0.25"],
     "build_experiment_graph", dict(graph_kind="circular", n=12, graph_seed=3, p=0.25)),
    (["filters", "dump", "--kind", "bipartite", "--n", "12", "--seed", "3", "--p", "0.25",
      "--m", "3"],
     "build_experiment_graph",
     dict(graph_kind="bipartite", n=12, graph_seed=3, p=0.25, m=3)),
    (["recover", "--kind", "circular", "--n", "12", "--seed", "3", "--p", "0.25", "--m", "3",
      "--generator", "gen2", "--sampling", "ir", "--prior", "smoothness",
      "--mode", "predefined", "--strategy", "mx", "--noise", "0.5", "--trials", "7",
      "--rng-seed", "9"],
     "run_recovery_experiment",
     dict(graph_kind="circular", n=12, graph_seed=3, p=0.25, m=3, generator="gen2",
          sampling_filter="ir", prior="smoothness", mode="predefined", strategy="mx",
          noise_variance=0.5, trials=7, rng_seed=9)),
    (["exp", "table2", "--kind", "bipartite", "--n", "12", "--seed", "3", "--p", "0.25",
      "--m", "3", "--trials", "7", "--noise", "0.5", "--rng-seed", "9"],
     "run_recovery_table",
     dict(graph_kind="bipartite", n=12, graph_seed=3, p=0.25, m=3, trials=7,
          noise_variance=0.5, rng_seed=9)),
    (["exp", "bipartite", "--n", "12", "--seed", "3", "--graph", "bipartite", "--p", "0.25",
      "--orders", "3,5", "--trials", "7", "--rng-seed", "9"],
     "run_bipartite_experiment",
     dict(n=12, graph_seed=3, graph_kind="bipartite", p=0.25, orders=(3, 5), trials=7,
          rng_seed=9)),
]


@pytest.mark.parametrize("argv,target,expected", FLAG_FIELDS,
                         ids=["gen-graph", "filters-dump", "recover", "table2", "bipartite"])
def test_cli_flags_land_in_their_config_fields(monkeypatch, tmp_path, argv, target, expected):
    monkeypatch.setattr(cli, target, _capture)
    with pytest.raises(_Captured) as caught:
        main([*argv, "--out", str(tmp_path / "out")])
    cfg = caught.value.args[0]
    default = type(cfg)()
    assert {name: getattr(cfg, name) for name in expected} == expected
    assert all(getattr(default, name) != value for name, value in expected.items())


@pytest.mark.parametrize("argv,target,expected", FLAG_FIELDS,
                         ids=["gen-graph", "filters-dump", "recover", "table2", "bipartite"])
def test_cli_settings_file_lands_like_the_flags(monkeypatch, tmp_path, argv, target, expected):
    # The same flags read from an @FILE, one --flag=value a line; arguments
    # apply in order, so a file overrides the flags before it and a flag
    # after the file overrides the file.
    monkeypatch.setattr(cli, target, _capture)
    start = next(i for i, arg in enumerate(argv) if arg.startswith("--"))
    command, flags = argv[:start], argv[start:]
    argfile = _args_file(tmp_path / "run.args",
                         *(f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])))
    out = ["--out", str(tmp_path / "out")]
    for rest, n in [([argfile], 12), (["--n", "24", argfile], 12), ([argfile, "--n", "24"], 24)]:
        with pytest.raises(_Captured) as caught:
            main([*command, *rest, *out])
        cfg = caught.value.args[0]
        assert {name: getattr(cfg, name) for name in expected} == {**expected, "n": n}


@pytest.mark.parametrize("command,n,trials", [
    (["gen-graph"], 256, None), (["filters", "dump"], 64, None), (["recover"], 256, 1),
    (["exp", "table2"], 256, 1000), (["exp", "bipartite"], 256, 100),
])
def test_cli_commands_keep_their_own_defaults(command, n, trials):
    # One command's default for a shared flag leaves the other commands' alone.
    args = cli.build_parser().parse_args([*command, "--out", "x"])
    assert (args.n, getattr(args, "trials", None)) == (n, trials)


def test_trial_rows_read_the_floor_on_exact_recovery():
    x = np.arange(1.0, 7.0).reshape(3, 2)
    group = _trial_group(("subspace", "unconstrained", "ds", "bl", "gen1", 0.0),
                         np.sum((x - x) ** 2, axis=0), np.sum(x**2, axis=0))
    assert group.mse_db.tolist() == [MSE_FLOOR_DB] * 2
    assert group.mean_db == MSE_FLOOR_DB


def test_cli_exp_bipartite_small(tmp_path):
    out = tmp_path / "bp.csv"
    code = main(["exp", "bipartite", "--n", "32", "--orders", "2,4",
                 "--trials", "2", "--out", str(out)])
    assert code == 0
    rows = _read_report(out)
    assert {r["mode"] for r in rows} >= {"exact", "chebyshev_p2", "chebyshev_p4"}


def test_bipartite_sweep_runs_one_recurrence_per_input(products, monkeypatch):
    # x runs once to the top order, 32, in products of N rows, and each
    # order's kept part once to its order, in products of N/2 rows with one
    # cross block: 32 + (2 + 4 + 8 + 16 + 24 + 32) = 118 block products.
    counted = []
    apply = bipartite.apply_chebyshev

    def counting(op, cf, x, **kwargs):
        counted.append(cf.order * (1 if x.ndim == 1 else x.shape[1]))
        return apply(op, cf, x, **kwargs)

    monkeypatch.setattr(bipartite, "apply_chebyshev", counting)
    build = experiments.build_system

    def watched(g):  # the system's operator, watched once it is factored
        sys_ = build(g)
        products.watch(sys_.op_b)
        return sys_

    monkeypatch.setattr(experiments, "build_system", watched)
    for n in (32, 128):  # a dense operator, then a CSR one
        first = len(products)
        cfg = ExperimentConfig(graph_kind="matched", n=n, graph_seed=2, trials=3, rng_seed=7)
        assert cfg.orders == (2, 4, 8, 16, 24, 32)
        run_bipartite_experiment(cfg)
        assert products[first:] == [3] * 118
        assert products.rows[first:] == [n] * 32 + [n // 2] * 86
    assert counted == [32 * 3] * 2


@pytest.mark.parametrize("kind", ["matched", "bipartite", "complete-bipartite"],
                         ids=["matched", "bipartite", "complete"])
def test_bipartite_sweep_never_forms_the_paired_basis(monkeypatch, kind):
    # Its exact filters go through Phi and Psi; K_{16,16} ties lambda = 1
    # 30 times.
    built = []

    def spy(g):
        built.append(bipartite.build_system(g))
        return built[-1]

    monkeypatch.setattr(experiments, "build_system", spy)
    run_bipartite_experiment(ExperimentConfig(graph_kind=kind, n=32, orders=(2, 4), trials=2))
    assert len(built) == 1 and "vectors" not in vars(built[0].basis_b)


@pytest.mark.parametrize("kind,factorization", [("matched", "eigh"), ("bipartite", "svd"),
                                                ("complete-bipartite", "svd")],
                         ids=["matched", "bipartite", "complete"])
def test_exp_bipartite_factors_only_the_matched_graph_by_eigh(tmp_path, monkeypatch, kind,
                                                              factorization):
    # The matched graph's weights certify sigma_min(B) > 0; a random graph's
    # and K_{16,16}'s do not, so they keep the SVD.
    calls = []
    for name in ("eigh", "svd"):
        def spy(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    assert main(["exp", "bipartite", "--graph", kind, "--n", "32", "--orders", "2",
                 "--trials", "2", "--out", str(tmp_path / "bp.csv")]) == 0
    assert calls == [factorization]


# The matched graph's operator is 12.5% nonzero at N = 32, a dense product,
# and 6.25% at N = 64, a CSR one.
@pytest.mark.parametrize("n", ["32", "64"], ids=["dense", "csr"])
def test_cli_exp_bipartite_rows_do_not_depend_on_the_other_orders(tmp_path, n):
    def lines(orders):
        out = tmp_path / f"bp-{orders}.csv"
        assert main(["exp", "bipartite", "--n", n, "--orders", orders,
                     "--trials", "3", "--out", str(out)]) == 0
        return [line for line in out.read_text().splitlines()[1:]
                if line.split(",")[1] != "exact"]

    swept = lines("8,2,4")
    assert [line.split(",")[2] for line in swept] == ["8"] * 6 + ["2"] * 6 + ["4"] * 6
    for i, order in enumerate(("8", "2", "4")):
        assert swept[6 * i:6 * i + 6] == lines(order)


@pytest.mark.parametrize("argv", [
    ["recover", "--n", "32", "--m", "4"],
    ["exp", "table2", "--n", "32", "--m", "4", "--trials", "2"],
    ["exp", "bipartite", "--n", "32", "--orders", "2", "--trials", "2"],
], ids=["recover", "table2", "bipartite"])
def test_cli_missing_config_file_exits_2(tmp_path, capsys, argv):
    code = _exit_code([*argv, f"@{tmp_path / 'missing.args'}",
                       "--out", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing.args" in err and "Traceback" not in err


def test_cli_filters_dump_into_an_existing_file_exits_2(tmp_path, capsys):
    out = tmp_path / "filters"
    out.write_text("kept\n")
    assert main(["filters", "dump", "--n", "16", "--m", "4", "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_cli_filters_dump_checks_m_before_building_the_graph(tmp_path, capsys, monkeypatch):
    def no_graph(cfg):
        raise AssertionError("graph built before --m was checked")

    monkeypatch.setattr(cli, "build_experiment_graph", no_graph)
    out = tmp_path / "filters"
    assert main(["filters", "dump", "--n", "1500", "--m", "7", "--out", str(out)]) == 2
    assert "must divide" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exits_1_quietly_on_a_closed_stdout():
    # The console script's entry point, with the read end of its stdout
    # pipe closed before it writes.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from specsamp.cli import main; sys.exit(main())",
             "verify", "theorem1", "--count", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def _run_python(code, *args, **env):
    """Run ``code`` in a fresh interpreter on this checkout's library, with
    ``env`` over the environment; its completed process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src, **env})


# Prints the scipy modules loaded after the dense commands and the DFT stream,
# then after a matched-graph sweep, each a JSON list on a line of its own after
# "scipy: ". The check needs a fresh interpreter: pytest has loaded scipy
# already.
_SCIPY_PROBE = """
import json, sys
from pathlib import Path
import numpy as np
import specsamp
from specsamp.cli import main

def scipy_modules():
    print("scipy:", json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))

out = Path(sys.argv[1])
for argv in (["exp", "table2", "--kind", "sensor", "--n", "64", "--trials", "2"],
             ["recover", "--kind", "circular", "--trials", "2"],
             ["filters", "dump", "--kind", "sensor", "--n", "32"]):
    assert main([*argv, "--out", str(out / argv[0])]) == 0, argv
basis = specsamp.dft_basis(64)
cfg = specsamp.SamplingConfig(basis.n, 8)
s = specsamp.inverted_ramp(basis)
a = specsamp.linear_decay(basis, 0.1)
design = specsamp.design_subspace_unconstrained(s, a, cfg)
x = specsamp.generate_pgs(specsamp.PgsModel(a, cfg, basis), np.ones(cfg.k))
specsamp.reconstruct(basis, design, specsamp.frequency_sample(basis, s, x, cfg))
scipy_modules()
assert main(["exp", "bipartite", "--graph", "matched", "--n", "64", "--trials", "2",
             "--out", str(out / "bipartite")]) == 0
scipy_modules()
"""


def test_dense_commands_and_the_dft_stream_load_no_scipy(tmp_path):
    # scipy.sparse loads at the first CSR build, here the matched generator,
    # and never brings csgraph or scipy.linalg with it.
    proc = _run_python(_SCIPY_PROBE, tmp_path)
    assert proc.returncode == 0, proc.stderr
    dense, matched = (json.loads(line.removeprefix("scipy: "))
                      for line in proc.stdout.splitlines() if line.startswith("scipy: "))
    assert dense == []
    assert "scipy.sparse" in matched
    assert not [m for m in matched
                if m.startswith(("scipy.sparse.csgraph", "scipy.linalg"))]


# 208 is the smallest N (a multiple of m = 8) at which the two reports differ
# in their bytes on a 2-vCPU x86-64 VM with numpy 2.4's OpenBLAS: 371 of 440
# rows, by at most 3e-13 dB. Exact rows at the -320 dB floor may move freely.
def test_table2_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    reports = []
    for threads in (1, 2):
        out = tmp_path / f"table2-{threads}.csv"
        proc = _run_python("import sys; from specsamp.cli import main; sys.exit(main())",
                           "exp", "table2", "--kind", "sensor", "--n", 208, "--trials", 10,
                           "--out", out, OPENBLAS_NUM_THREADS=str(threads))
        assert proc.returncode == 0, proc.stderr
        reports.append(_read_report(out))
    one, two = reports
    assert len(one) == len(two) == 44 * 10
    values = ("mse_db", "mean_mse_db")
    for r1, r2 in zip(one, two):
        assert {k: v for k, v in r1.items() if k not in values} == \
            {k: v for k, v in r2.items() if k not in values}
        for key in values:
            a, b = float(r1[key]), float(r2[key])
            if max(a, b) > -200.0:
                assert abs(a - b) <= 1e-9, (r1, r2)


def test_cli_exp_bipartite_config_keys(tmp_path, capsys):
    out = tmp_path / "bp.csv"
    argv = ["exp", "bipartite", "--n", "32", "--orders", "2", "--trials", "5",
            "--out", str(out)]
    assert _exit_code([*argv, _args_file(tmp_path / "bad.args", "--not-a-flag=1")]) == 2
    assert main([*argv, _args_file(tmp_path / "run.args", "--trials=2", "--orders=4")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = _read_report(out)
    assert len([r for r in rows if r["mode"] == "exact"]) == 2
    assert {r["strategy"] for r in rows} == {"exact", "4"}


@pytest.mark.parametrize("flag,value", [
    ("--generator", "gen2"), ("--sampling", "ir"), ("--prior", "smoothness"),
    ("--mode", "predefined"), ("--strategy", "mx"),
], ids=["generator-gen2", "sampling_filter-ir", "prior-smoothness", "mode-predefined",
        "strategy-mx"])
def test_cli_exp_table2_rejects_the_method_config_keys(tmp_path, capsys, monkeypatch,
                                                       flag, value):
    # exp table2 runs every method: a settings-file flag that would pick one
    # is an error, raised before any graph is built.
    def no_graph(cfg):
        raise AssertionError("graph built before the settings file was read")

    monkeypatch.setattr(cli, "build_experiment_graph", no_graph)
    out = tmp_path / "t2.csv"
    argfile = _args_file(tmp_path / "run.args", f"{flag}={value}")
    assert _exit_code(["exp", "table2", "--n", "32", "--m", "4", "--trials", "2",
                       argfile, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}={value}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("orders", [[], [2, 2]], ids=["empty", "repeated"])
def test_exp_bipartite_rejects_no_orders_and_repeated_orders(tmp_path, capsys, orders):
    with pytest.raises(InvalidParameter, match="order"):
        ExperimentConfig(graph_kind="matched", n=32, orders=tuple(orders))
    out = tmp_path / "bp.csv"
    argfile = _args_file(tmp_path / "run.args", "--orders=" + ",".join(map(str, orders)))
    assert _exit_code(["exp", "bipartite", "--n", "32", "--trials", "2",
                       argfile, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_cli_exp_table2_config_sets_noise(tmp_path):
    out = tmp_path / "t2.csv"
    assert main(["exp", "table2", "--n", "32", "--m", "4", "--trials", "2",
                 _args_file(tmp_path / "run.args", "--noise=0.3"), "--out", str(out)]) == 0
    assert {r["noise"] for r in _read_report(out)} == {"0.0", "0.3"}


CONFIG_ERRORS = (InvalidParameter, IoFailure, KeyError, ValueError)


@pytest.mark.parametrize("error", [*SpecSampError.__subclasses__(), KeyError, ValueError],
                         ids=lambda e: e.__name__)
def test_cli_exit_code_by_error_class(monkeypatch, capsys, tmp_path, error):
    exc = error("bad")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_gen_graph", fail)
    code = main(["gen-graph", "--out", str(tmp_path / "g.txt")])
    assert code == (2 if isinstance(exc, CONFIG_ERRORS) else 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("configuration error:" if code == 2 else "numerical failure:")


def test_cli_verify_identity(capsys):
    code = main(["verify", "theorem1", "--count", "3", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("OK")
    assert len(out) == 2 + 3 + 1
    assert all(": SVD residual " in line and ", filtered residual " in line
               for line in out[:-1])


def test_cli_verify_fails_on_a_filtered_residual_above_the_bound(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_corollary1", lambda system, s, x: 1e-6)
    assert main(["verify", "theorem1", "--count", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].startswith("FAIL:")
    assert "Traceback" not in captured.err


def test_cli_verify_exits_3_when_the_svd_does_not_converge(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["verify", "theorem1", "--count", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "SVD did not converge" in err
    assert "Traceback" not in err


def test_cli_verify_rejects_negative_count(capsys):
    for flag in ("--count", "--seed"):
        assert main(["verify", "theorem1", flag, "-1"]) == 2
        err = capsys.readouterr().err
        assert f"need {flag} >= 0, got -1" in err and "Traceback" not in err


# sha256 of small reports, pinned so that a refactor that moves any digit of
# any row shows.  The digests were taken with numpy 2.4 and its bundled
# OpenBLAS 0.3.31 on x86-64; another BLAS build may change the last bits of
# the products, and with them these digests.  The 32-vertex bipartite
# operator is 12.5% nonzero, so its Chebyshev products are dense; the
# 128-vertex one is 3.1% nonzero, so they are scipy.sparse CSR products and
# that digest also depends on their summation order.  The 32-vertex random
# bipartite operator (p = 0.5) is 25.8% nonzero, so its products are dense
# too.  The circular table runs on the complex DFT basis.
TABLE2 = ["exp", "table2", "--kind", "sensor", "--n", "32", "--m", "4", "--trials", "3",
          "--rng-seed", "1"]
BIPARTITE = ["exp", "bipartite", "--n", "32", "--orders", "2,4", "--trials", "3"]
RECOVER = ["recover", "--kind", "sensor", "--n", "32", "--m", "4", "--trials", "3",
           "--rng-seed", "1", "--noise", "0.1"]
GOLDEN_REPORTS = [
    (TABLE2, "d3ada780f2841addc42048d25327e1a57a48b998016fca49a2e0b4c27ff6f89e"),
    (BIPARTITE, "946d4a9d09ee9b421bb7939b24ff45d3128ec423f133beb13f6d8942a52c84fe"),
    (["exp", "bipartite", "--n", "128", "--orders", "2,4", "--trials", "3"],
     "91f24ea575cdfb038f718d435d21b870f24318c46d2828ef777340ee308a2d6c"),
    (["exp", "table2", "--kind", "circular", "--n", "32", "--m", "4", "--trials", "3",
      "--rng-seed", "1"],
     "12d29360703b43511e7f26b0a73307f56e74ca22b217fe5708797daeb7b8c2da"),
    (RECOVER, "53cac3c81a4a442e95ce7e71e44f17851aa446aceaaacd9aa5186664f926c74d"),
    (["exp", "bipartite", "--graph", "bipartite", "--n", "32", "--orders", "2,4", "--trials",
      "3"],
     "aebe78b2c4ddf6d15693ab09ddc69f2969b5c4566df9b7b0e3acbdf94f35de21"),
]

# sha256 of each command's standard output, the report path written as OUT;
# `verify theorem1` writes no report.
VERIFY = ["verify", "theorem1", "--count", "3", "--seed", "1"]
GOLDEN_STDOUTS = [
    (TABLE2, "9f1c99f778e7ab9d50a6a61e0149fb2ba1578d9046a8b6658f6d97ed8cc540e5"),
    (BIPARTITE, "5e48b19303ca7a5f7f520ae5b250fe4c699daddda6795fb097e8a140040369db"),
    (RECOVER, "42336e62dcf8cfe8377d9f40ca62283a957f72085e257af9fc30a581e94d8daf"),
    (VERIFY, "65e9752e0a9fe7aabb914ca4f63892dddbeb4e684421627e17eb34789a7b1c57"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_REPORTS,
                         ids=["table2", "bipartite", "bipartite-csr", "table2-circular",
                              "recover", "bipartite-random"])
def test_cli_report_golden_digest(tmp_path, argv, digest):
    out = tmp_path / "report.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUTS,
                         ids=["table2", "bipartite", "recover", "verify"])
def test_cli_stdout_golden_digest(tmp_path, capsys, argv, digest):
    out = tmp_path / "report.csv"
    assert main(argv if argv is VERIFY else [*argv, "--out", str(out)]) == 0
    text = capsys.readouterr().out.replace(str(out), "OUT")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Report values the writer must keep exactly: the floor, a negative zero,
# extremes, NaN and infinities.
DB_VALUES = st.one_of(st.sampled_from([MSE_FLOOR_DB, -0.0, 0.0, 1e308, -1e308, 5e-324,
                                       1e-300, math.nan, math.inf]), st.floats())
GROUPS = st.lists(st.builds(
    lambda labels, column, mean: ReportGroup(labels, np.array(column, dtype=float), mean),
    st.tuples(st.sampled_from(PRIOR_IDS), st.sampled_from(MODE_IDS + ("exact",)),
              st.sampled_from(STRATEGY_IDS + ("exact", "4")), st.sampled_from(SAMPLING_IDS),
              st.sampled_from(GENERATOR_IDS + ("ir",)), DB_VALUES),
    st.lists(DB_VALUES, min_size=1, max_size=5), DB_VALUES), max_size=4)


@settings(max_examples=50, deadline=None)
@given(groups=GROUPS)
def test_emit_report_matches_a_row_by_row_oracle(tmp_path_factory, groups):
    folder = tmp_path_factory.mktemp("reports")
    rows = _rows(groups)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                         for c in REPORT_COLUMNS])
    emit_report(groups, str(folder / "r.csv"))
    assert (folder / "r.csv").read_text(encoding="utf-8") == expected.getvalue()


def _loop_group(labels, err, energy):
    """The per-trial loop the report groups replaced, kept as their reference;
    ``err`` holds each trial's error energy."""
    ratios = err / energy
    mean = np.mean(ratios)
    mean_db = MSE_FLOOR_DB if mean == 0 else float(max(10.0 * np.log10(mean), MSE_FLOOR_DB))
    trial_db = [MSE_FLOOR_DB if r == 0 else float(max(10.0 * np.log10(r), MSE_FLOOR_DB))
                for r in ratios]
    return labels, trial_db, mean_db


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["sensor", "bipartite"]), n=st.sampled_from([16, 24, 32]),
       m=st.sampled_from([1, 2, 4, 8]), graph_seed=st.integers(0, 2**32 - 1),
       rng_seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 4))
def test_noise_free_ds_recovery_is_exact(kind, n, m, graph_seed, rng_seed, trials):
    built = []
    group = experiments._trial_group

    def spied(labels, err, energy):
        built.append((_loop_group(labels, err, energy), group(labels, err, energy)))
        return built[-1][1]

    base = ExperimentConfig(graph_kind=kind, n=n, m=m, graph_seed=graph_seed,
                            rng_seed=rng_seed, trials=trials)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_trial_group", spied)
        groups = run_recovery_table(base)
    assert len(groups) == len(built) == 22
    for (labels, trial_db, mean_db), g in built:
        assert (g.labels, g.mse_db.tolist(), g.mean_db) == (labels, trial_db, mean_db)
        if labels[:3] == ("subspace", "unconstrained", "ds"):
            assert max(trial_db) <= -200.0 and mean_db <= -200.0, labels


# The bipartite sweep in closed form. A polynomial in L is diagonal in the
# paired basis, and keeping the first part is the fold, so with
# delta = Phi^T d and the synthesis response w' split into halves,
# g = p_s,lo w'_lo + p_s,hi w'_hi gives
#   ||e||^2 = 2 sum delta^2 [(p_w,lo g - w'_lo)^2 + (p_w,hi g - w'_hi)^2],
#   ||x||^2 = 2 sum delta^2 (w'_lo^2 + w'_hi^2),
# with the fits evaluated at the paired frequencies; the baseline row decodes
# with p_s. The formula shares no recurrence, stack, operator product or
# zero-padding with the runner. A matched graph on 64 or more vertices is
# sparse enough for CSR products; the other kinds take dense ones.
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(BIPARTITE_KINDS), n_half=st.integers(3, 40),
       graph_seed=st.integers(0, 2**32 - 1), p=st.floats(0.5, 1.0),
       orders=st.lists(st.integers(1, 32), min_size=1, max_size=4, unique=True),
       trials=st.integers(1, 5), rng_seed=st.integers(0, 2**32 - 1))
@example(kind="matched", n_half=32, graph_seed=1, p=0.5, orders=[8, 2, 4], trials=3, rng_seed=5)
@example(kind="complete-bipartite", n_half=8, graph_seed=0, p=0.5, orders=[1, 16], trials=2,
         rng_seed=0)
def test_bipartite_sweep_rows_equal_the_closed_form(kind, n_half, graph_seed, p, orders,
                                                     trials, rng_seed):
    cfg = ExperimentConfig(graph_kind=kind, n=2 * n_half, graph_seed=graph_seed, p=p,
                           orders=tuple(orders), trials=trials, rng_seed=rng_seed)
    rows = {g.labels[1]: g.mse_db for g in run_bipartite_experiment(cfg)}
    assert len(rows) == 1 + 2 * len(orders)
    sys_ = build_system(build_experiment_graph(cfg))
    a = inverted_ramp(sys_.basis_b)
    _, wprime = one_branch_design(sys_, a.response)
    w_lo, w_hi = wprime.values[:n_half, None], wprime.values[n_half:, None]
    d, _ = experiments._draw_trials(rng_seed, trials, n_half)
    delta2 = (sys_.phi.T @ d) ** 2
    signal = 2.0 * np.sum(delta2 * (w_lo**2 + w_hi**2), axis=0)
    for order in orders:
        cf_s, cf_w = fit_one_branch(a.response, order)
        p_s, p_w = (evaluate(cf, sys_.basis_b.lambdas)[:, None] for cf in (cf_s, cf_w))
        g = p_s[:n_half] * w_lo + p_s[n_half:] * w_hi
        for mode, p_d in ((f"chebyshev_p{order}", p_w), (f"chebyshev_baseline_p{order}", p_s)):
            error = 2.0 * np.sum(delta2 * ((p_d[:n_half] * g - w_lo) ** 2
                                           + (p_d[n_half:] * g - w_hi) ** 2), axis=0)
            expected = 10.0 * np.log10(error / signal)
            above = expected > -200.0
            np.testing.assert_allclose(rows[mode][above], expected[above], rtol=0, atol=1e-9,
                                       err_msg=mode)

import csv
import hashlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsamp import InvalidParameter, IoFailure, SpecSampError, cli, experiments
from specsamp.cli import main
from specsamp.experiments import (
    GENERATOR_IDS,
    GRAPH_KINDS,
    MODE_IDS,
    PRIOR_IDS,
    REPORT_COLUMNS,
    SAMPLING_IDS,
    STRATEGY_IDS,
    BipartiteExperimentConfig,
    ExperimentConfig,
    ReportGroup,
    _trial_group,
    build_experiment_graph,
    emit_report,
    report_rows,
    run_bipartite_experiment,
    run_recovery_experiment,
    run_recovery_table,
)
from specsamp.recovery import MSE_FLOOR_DB

SMALL = dict(graph_kind="sensor", n=32, graph_seed=1, m=4, trials=3, rng_seed=5)


def _read_report(path):
    """The rows of a CSV report, every value the string written."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_is_deterministic():
    cfg = ExperimentConfig(**SMALL)
    a = run_recovery_experiment(cfg)
    b = run_recovery_experiment(cfg)
    assert report_rows(a) == report_rows(b)


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
    rows = report_rows(run_recovery_experiment(ExperimentConfig(**SMALL)))
    assert len(rows) == SMALL["trials"]
    for row in rows:
        assert tuple(row.keys()) == REPORT_COLUMNS


def test_baseline_forces_bandlimited_sampling():
    cfg = ExperimentConfig(prior="baseline", mode="predefined",
                           sampling_filter="ir", **SMALL)
    assert report_rows(run_recovery_experiment(cfg))[0]["sampling_filter"] == "bl"


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
        with pytest.raises(InvalidParameter):
            ExperimentConfig(coeff_mean=value)
        with pytest.raises(InvalidParameter):
            BipartiteExperimentConfig(coeff_mean=value)


SMALL_RUNS = {
    "recover": ["recover", "--n", "32", "--m", "4", "--trials", "2"],
    "table2": ["exp", "table2", "--n", "32", "--m", "4", "--trials", "2"],
    "bipartite": ["exp", "bipartite", "--n", "32", "--orders", "2", "--trials", "2"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,flag,key", [
    ("recover", "--noise", "noise_variance"),
    ("table2", "--noise", "noise_variance"),
    ("recover", None, "coeff_mean"),
    ("table2", None, "coeff_mean"),
    ("bipartite", "--coeff-mean", "coeff_mean"),
])
def test_cli_rejects_non_finite_settings(tmp_path, capsys, command, flag, key, value):
    out = tmp_path / "r.csv"
    forms = [["--config", str(tmp_path / "c.json")]]
    (tmp_path / "c.json").write_text(json.dumps({key: float(value)}))
    if flag is not None:
        forms.append([flag, value])
    for form in forms:
        assert main([*SMALL_RUNS[command], *form, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
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
    rows = report_rows(run_recovery_table(base))
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
        assert report_rows([group]) == report_rows(run_recovery_experiment(cfg))


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
    emit_report(groups, "csv", str(path))
    rows = report_rows(groups)
    back = _read_report(path)
    assert len(back) == len(rows)
    for want, got in zip(rows, back):
        assert {c: type(want[c])(got[c]) for c in REPORT_COLUMNS} == want


def test_emit_report_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], "csv", str(path))
    assert path.read_text() == ",".join(REPORT_COLUMNS) + "\n"


def test_emit_report_json(tmp_path):
    groups = run_recovery_experiment(ExperimentConfig(**SMALL))
    path = tmp_path / "r.json"
    emit_report(groups, "json", str(path))
    assert json.loads(path.read_text()) == report_rows(groups)


def test_emit_report_deterministic_bytes(tmp_path):
    groups = run_recovery_experiment(ExperimentConfig(trials=1, **{k: v for k, v in SMALL.items() if k != "trials"}))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(groups, "csv", str(p1))
    emit_report(run_recovery_experiment(
        ExperimentConfig(trials=1, **{k: v for k, v in SMALL.items() if k != "trials"})),
        "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_bipartite_experiment_modes_and_exact_floor():
    cfg = BipartiteExperimentConfig(n_half=16, graph_seed=2, orders=(2, 8),
                                    trials=4, rng_seed=7)
    means = {g.labels[1]: g.mean_db for g in run_bipartite_experiment(cfg)}
    assert set(means) == {"exact", "chebyshev_p2", "chebyshev_p8",
                          "chebyshev_baseline_p2", "chebyshev_baseline_p8"}
    exact_db = means["exact"]
    assert exact_db <= -180


def test_bipartite_experiment_deterministic():
    cfg = BipartiteExperimentConfig(n_half=8, graph_seed=3, orders=(4,), trials=2,
                                    rng_seed=9)
    assert report_rows(run_bipartite_experiment(cfg)) == \
        report_rows(run_bipartite_experiment(cfg))


def test_cli_gen_graph(tmp_path):
    out = tmp_path / "g.txt"
    code = main(["gen-graph", "--kind", "circular", "--n", "8", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("N 8")


def test_cli_gen_graph_rejects_empty_complete_bipartite(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen-graph", "--kind", "complete-bipartite", "--n", "0",
                 "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
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


def test_cli_recover_rejects_unknown_config_key(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"not_a_field": 1}))
    code = main(["recover", "--kind", "sensor", "--n", "32", "--m", "4",
                 "--config", str(cfgfile)])
    assert code == 2


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


class _Captured(Exception):
    pass


def _capture(cfg, *rest):
    raise _Captured(cfg)


# Each command with every flag that sets a config field at a non-default
# value, the function that receives the config, and the fields it must hold.
FLAG_FIELDS = [
    (["gen-graph", "--kind", "circular", "--n", "12", "--seed", "3", "--p", "0.25"],
     "build_experiment_graph", dict(graph_kind="circular", n=12, graph_seed=3, p=0.25)),
    (["filters", "dump", "--kind", "bipartite", "--n", "12", "--seed", "3", "--m", "3",
      "--eps", "0.25"],
     "build_experiment_graph", dict(graph_kind="bipartite", n=12, graph_seed=3, m=3, eps=0.25)),
    (["recover", "--kind", "circular", "--n", "12", "--seed", "3", "--m", "3",
      "--generator", "gen2", "--sampling", "ir", "--prior", "smoothness", "--mode",
      "predefined", "--strategy", "mx", "--noise", "0.5", "--trials", "7", "--rng-seed", "9"],
     "run_recovery_experiment",
     dict(graph_kind="circular", n=12, graph_seed=3, m=3, generator="gen2",
          sampling_filter="ir", prior="smoothness", mode="predefined", strategy="mx",
          noise_variance=0.5, trials=7, rng_seed=9)),
    (["exp", "table2", "--kind", "bipartite", "--n", "12", "--seed", "3", "--m", "3",
      "--trials", "7", "--noise", "0.5", "--rng-seed", "9"],
     "run_recovery_table",
     dict(graph_kind="bipartite", n=12, graph_seed=3, m=3, trials=7, noise_variance=0.5,
          rng_seed=9)),
    (["exp", "bipartite", "--n", "12", "--seed", "3", "--graph", "random", "--p", "0.25",
      "--orders", "3,5", "--trials", "7", "--rng-seed", "9", "--coeff-mean", "2.5"],
     "run_bipartite_experiment",
     dict(n_half=6, graph_seed=3, graph_kind="random", p=0.25, orders=(3, 5), trials=7,
          rng_seed=9, coeff_mean=2.5)),
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


def test_trial_rows_read_the_floor_on_exact_recovery():
    x = np.arange(1.0, 7.0).reshape(3, 2)
    group = _trial_group(("subspace", "unconstrained", "ds", "bl", "gen1", 0.0),
                         x - x, np.sum(x**2, axis=0))
    assert group.mse_db.tolist() == [MSE_FLOOR_DB] * 2
    assert group.mean_db == MSE_FLOOR_DB


def test_cli_exp_bipartite_small(tmp_path):
    out = tmp_path / "bp.csv"
    code = main(["exp", "bipartite", "--n", "32", "--orders", "2,4",
                 "--trials", "2", "--out", str(out)])
    assert code == 0
    rows = _read_report(out)
    assert {r["mode"] for r in rows} >= {"exact", "chebyshev_p2", "chebyshev_p4"}


@pytest.mark.parametrize("argv", [
    ["recover", "--n", "32", "--m", "4"],
    ["exp", "table2", "--n", "32", "--m", "4", "--trials", "2"],
    ["exp", "bipartite", "--n", "32", "--orders", "2", "--trials", "2"],
], ids=["recover", "table2", "bipartite"])
def test_cli_missing_config_file_exits_2(tmp_path, capsys, argv):
    code = main([*argv, "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_exp_bipartite_config_keys(tmp_path, capsys):
    out = tmp_path / "bp.csv"
    argv = ["exp", "bipartite", "--n", "32", "--orders", "2", "--trials", "5",
            "--out", str(out)]
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"not_a_field": 1}))
    assert main([*argv, "--config", str(cfgfile)]) == 2
    cfgfile.write_text(json.dumps({"trials": 2, "orders": [4]}))
    assert main([*argv, "--config", str(cfgfile)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = _read_report(out)
    assert len([r for r in rows if r["mode"] == "exact"]) == 2
    assert {r["strategy"] for r in rows} == {"exact", "4"}


def test_cli_exp_table2_config_sets_noise(tmp_path):
    out = tmp_path / "t2.csv"
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"noise_variance": 0.3}))
    assert main(["exp", "table2", "--n", "32", "--m", "4", "--trials", "2",
                 "--config", str(cfgfile), "--out", str(out)]) == 0
    assert {r["noise"] for r in _read_report(out)} == {"0.0", "0.3"}


@pytest.mark.parametrize("argv,override", [
    (["recover", "--n", "64", "--m", "4"], {"trials": "5"}),
    (["exp", "table2", "--n", "64", "--m", "4", "--trials", "2"], {"n": 64.5}),
    (["exp", "bipartite", "--n", "32", "--trials", "2"], {"orders": "2,4"}),
    (["recover", "--n", "64", "--m", "4"], {"graph_seed": True}),
], ids=["str-for-int", "float-for-int", "str-for-orders", "bool-for-int"])
def test_cli_config_rejects_wrong_json_type(tmp_path, capsys, argv, override):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(override))
    code = main([*argv, "--config", str(cfgfile), "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


CONFIG_ERRORS = (InvalidParameter, IoFailure, KeyError, ValueError)


@pytest.mark.parametrize("error", [*SpecSampError.__subclasses__(), KeyError, ValueError,
                                   json.JSONDecodeError],
                         ids=lambda e: e.__name__)
def test_cli_exit_code_by_error_class(monkeypatch, capsys, tmp_path, error):
    exc = error("bad", "{", 0) if error is json.JSONDecodeError else error("bad")

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


def test_cli_verify_rejects_negative_count(capsys):
    assert main(["verify", "theorem1", "--count", "-1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# sha256 of small reports, pinned so that a refactor that moves any digit of
# any row shows.  The digests were taken with numpy 2.4 and its bundled
# OpenBLAS 0.3.31 on x86-64; another BLAS build may change the last bits of
# the products, and with them these digests.  The 32-vertex bipartite
# operator is 12.5% nonzero, so its Chebyshev products are dense; the
# 128-vertex one is 3.1% nonzero, so they are scipy.sparse CSR products and
# that digest also depends on their summation order.  The circular table
# runs on the complex DFT basis.
TABLE2 = ["exp", "table2", "--kind", "sensor", "--n", "32", "--m", "4", "--trials", "3",
          "--rng-seed", "1"]
BIPARTITE = ["exp", "bipartite", "--n", "32", "--orders", "2,4", "--trials", "3"]
RECOVER = ["recover", "--kind", "sensor", "--n", "32", "--m", "4", "--trials", "3",
           "--rng-seed", "1", "--noise", "0.1"]
GOLDEN_REPORTS = [
    (TABLE2, "40c0885e6436ffafa5738730ea11c4cbee64a871535602d0d8e294b961ae5d01"),
    (BIPARTITE, "870e3f099d6f510239995769209dccfa84421605038099a783b49828bfc6e8c3"),
    (["exp", "bipartite", "--n", "128", "--orders", "2,4", "--trials", "3"],
     "cfdca75cebafe73c55c3d311fb62e03b3ef420988b72c888d1bed3df7385774a"),
    ([*TABLE2, "--format", "json"],
     "36629dc42ab3282698d73b5b0c9bb26788383c8d6d3e93c0af0021b788d9724f"),
    (["exp", "table2", "--kind", "circular", "--n", "32", "--m", "4", "--trials", "3",
      "--rng-seed", "1"],
     "5f6959d82e0728ddc919257750e60ccc6c209212f121d79448b503355b8509f1"),
    (RECOVER, "e0940bbfd97a82947e6189481309cbf9fdcd625079478b0678be22f195b52720"),
]

# sha256 of each command's standard output, the report path written as OUT.
GOLDEN_STDOUTS = [
    (TABLE2, "cff46019cd5ee1c4312272ffd8f5fb1a78a2c5fc448d6b6de4ad86f799d58a7a"),
    (BIPARTITE, "f4eecb531a63cfd06f32e0f9a10b41731af3a20c97cd3eae98648d2dbbd5d462"),
    (RECOVER, "42336e62dcf8cfe8377d9f40ca62283a957f72085e257af9fc30a581e94d8daf"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_REPORTS,
                         ids=["table2", "bipartite", "bipartite-csr", "table2-json",
                              "table2-circular", "recover"])
def test_cli_report_golden_digest(tmp_path, argv, digest):
    out = tmp_path / "report.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUTS, ids=["table2", "bipartite", "recover"])
def test_cli_stdout_golden_digest(tmp_path, capsys, argv, digest):
    out = tmp_path / "report.csv"
    assert main([*argv, "--out", str(out)]) == 0
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


def _oracle_rows(groups):
    """One dict per trial, built without the library's flattener."""
    rows = []
    for g in groups:
        for t in range(len(g.mse_db)):
            rows.append({"prior": g.labels[0], "mode": g.labels[1], "strategy": g.labels[2],
                         "sampling_filter": g.labels[3], "generator": g.labels[4],
                         "noise": g.labels[5], "trial": t, "mse_db": float(g.mse_db[t]),
                         "mean_mse_db": g.mean_db})
    return rows


@settings(max_examples=50, deadline=None)
@given(groups=GROUPS)
def test_emit_report_matches_a_row_by_row_oracle(tmp_path_factory, groups):
    folder = tmp_path_factory.mktemp("reports")
    rows = _oracle_rows(groups)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                         for c in REPORT_COLUMNS])
    emit_report(groups, "csv", str(folder / "r.csv"))
    assert (folder / "r.csv").read_text(encoding="utf-8") == expected.getvalue()
    # repr keeps NaN and the sign of zero visible to the comparison.
    assert repr(report_rows(groups)) == repr(rows)
    emit_report(groups, "json", str(folder / "r.json"))
    assert (folder / "r.json").read_text(encoding="utf-8") == json.dumps(rows, indent=1) + "\n"


def _loop_group(labels, err, energy):
    """The per-trial loop the report groups replaced, kept as their reference."""
    ratios = np.sum(np.abs(err) ** 2, axis=0) / energy
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

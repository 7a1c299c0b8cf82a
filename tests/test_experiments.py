import hashlib
import json
from dataclasses import replace

import pytest

from specsamp import InvalidParameter, IoFailure, SpecSampError, cli, experiments
from specsamp.cli import main
from specsamp.experiments import (
    REPORT_COLUMNS,
    BipartiteExperimentConfig,
    ExperimentConfig,
    build_experiment_graph,
    emit_report,
    parse_report_csv,
    run_bipartite_experiment,
    run_recovery_experiment,
    run_recovery_table,
)

SMALL = dict(graph_kind="sensor", n=32, graph_seed=1, m=4, trials=3, rng_seed=5)


def test_run_is_deterministic():
    cfg = ExperimentConfig(**SMALL)
    a = run_recovery_experiment(cfg)
    b = run_recovery_experiment(cfg)
    assert a == b


def test_unconstrained_noiseless_is_machine_precision():
    cfg = ExperimentConfig(prior="subspace", mode="unconstrained", **SMALL)
    rows = run_recovery_experiment(cfg)
    assert rows[0]["mean_mse_db"] <= -200


def test_noise_degrades_recovery():
    clean = ExperimentConfig(prior="subspace", mode="unconstrained", **SMALL)
    noisy_args = dict(SMALL)
    noisy = ExperimentConfig(prior="subspace", mode="unconstrained",
                             noise_variance=0.1, **noisy_args)
    db_clean = run_recovery_experiment(clean)[0]["mean_mse_db"]
    db_noisy = run_recovery_experiment(noisy)[0]["mean_mse_db"]
    assert db_noisy > db_clean + 50


def test_rows_have_report_columns():
    rows = run_recovery_experiment(ExperimentConfig(**SMALL))
    assert len(rows) == SMALL["trials"]
    for row in rows:
        assert tuple(row.keys()) == REPORT_COLUMNS


def test_baseline_forces_bandlimited_sampling():
    cfg = ExperimentConfig(prior="baseline", mode="predefined",
                           sampling_filter="ir", **SMALL)
    rows = run_recovery_experiment(cfg)
    assert rows[0]["sampling_filter"] == "bl"


def test_config_validation():
    with pytest.raises(InvalidParameter):
        ExperimentConfig(trials=0)
    with pytest.raises(InvalidParameter):
        ExperimentConfig(noise_variance=-1.0)
    with pytest.raises(InvalidParameter):
        ExperimentConfig(generator="nope")


def test_table_matrix_row_counts():
    base = ExperimentConfig(noise_variance=0.1, **SMALL)
    rows = run_recovery_table(base)
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
    rows = run_recovery_table(base)
    assert len(calls) == 1
    # Every row is the row `recover` gives for that row's configuration.
    trials = SMALL["trials"]
    for i in range(0, len(rows), trials):
        r = rows[i]
        cfg = replace(base, prior=r["prior"], mode=r["mode"], strategy=r["strategy"],
                      sampling_filter=r["sampling_filter"], generator=r["generator"],
                      noise_variance=r["noise"])
        assert rows[i:i + trials] == run_recovery_experiment(cfg)


@pytest.mark.parametrize("kind", ["bipartite", "complete-bipartite"])
def test_bipartite_kinds_reject_odd_n(tmp_path, kind):
    with pytest.raises(InvalidParameter):
        build_experiment_graph(ExperimentConfig(graph_kind=kind, n=63))
    assert main(["gen-graph", "--kind", kind, "--n", "63",
                 "--out", str(tmp_path / "g.txt")]) == 2


def test_emit_report_csv_roundtrip(tmp_path):
    rows = run_recovery_experiment(ExperimentConfig(**SMALL))
    path = tmp_path / "r.csv"
    emit_report(rows, "csv", str(path))
    back = parse_report_csv(str(path))
    assert back == rows


def test_emit_report_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], "csv", str(path))
    assert path.read_text() == ",".join(REPORT_COLUMNS) + "\n"


def test_emit_report_json(tmp_path):
    rows = run_recovery_experiment(ExperimentConfig(**SMALL))
    path = tmp_path / "r.json"
    emit_report(rows, "json", str(path))
    assert json.loads(path.read_text()) == rows


def test_emit_report_deterministic_bytes(tmp_path):
    rows = run_recovery_experiment(ExperimentConfig(trials=1, **{k: v for k, v in SMALL.items() if k != "trials"}))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, "csv", str(p1))
    emit_report(run_recovery_experiment(
        ExperimentConfig(trials=1, **{k: v for k, v in SMALL.items() if k != "trials"})),
        "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_bipartite_experiment_modes_and_exact_floor():
    cfg = BipartiteExperimentConfig(n_half=16, graph_seed=2, orders=(2, 8),
                                    trials=4, rng_seed=7)
    rows = run_bipartite_experiment(cfg)
    modes = {r["mode"] for r in rows}
    assert modes == {"exact", "chebyshev_p2", "chebyshev_p8",
                     "chebyshev_baseline_p2", "chebyshev_baseline_p8"}
    exact_db = next(r["mean_mse_db"] for r in rows if r["mode"] == "exact")
    assert exact_db <= -180


def test_bipartite_experiment_deterministic():
    cfg = BipartiteExperimentConfig(n_half=8, graph_seed=3, orders=(4,), trials=2,
                                    rng_seed=9)
    assert run_bipartite_experiment(cfg) == run_bipartite_experiment(cfg)


def test_cli_gen_graph(tmp_path):
    out = tmp_path / "g.txt"
    code = main(["gen-graph", "--kind", "circular", "--n", "8", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("N 8")


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
    rows = parse_report_csv(str(out))
    assert len(rows) == (10 + 1) * 2 * 2 * 2


def test_cli_exp_bipartite_small(tmp_path):
    out = tmp_path / "bp.csv"
    code = main(["exp", "bipartite", "--n", "32", "--orders", "2,4",
                 "--trials", "2", "--out", str(out)])
    assert code == 0
    rows = parse_report_csv(str(out))
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
    rows = parse_report_csv(str(out))
    assert len([r for r in rows if r["mode"] == "exact"]) == 2
    assert {r["strategy"] for r in rows} == {"exact", "4"}


def test_cli_exp_table2_config_sets_noise(tmp_path):
    out = tmp_path / "t2.csv"
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"noise_variance": 0.3}))
    assert main(["exp", "table2", "--n", "32", "--m", "4", "--trials", "2",
                 "--config", str(cfgfile), "--out", str(out)]) == 0
    assert {r["noise"] for r in parse_report_csv(str(out))} == {0.0, 0.3}


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
    out = capsys.readouterr().out
    assert "OK" in out


# sha256 of two small reports, pinned so that a refactor that moves any
# digit of any row shows.  The digests were taken with numpy 2.4 and its
# bundled OpenBLAS 0.3.31 on x86-64; another BLAS build may change the last
# bits of the products, and with them these digests.
GOLDEN_REPORTS = [
    (["exp", "table2", "--kind", "sensor", "--n", "32", "--m", "4", "--trials", "3",
      "--rng-seed", "1"],
     "a8368c11df899d361f62320dd89b2f98dae842a63eea89378101e330e23e1bee"),
    (["exp", "bipartite", "--n", "32", "--orders", "2,4", "--trials", "3"],
     "870e3f099d6f510239995769209dccfa84421605038099a783b49828bfc6e8c3"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_REPORTS, ids=["table2", "bipartite"])
def test_cli_report_golden_digest(tmp_path, argv, digest):
    out = tmp_path / "report.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

"""Tests of the benchmark itself: each output check passes on real output and
fails on a corrupted copy, the tracer accounts for time and calls, and
BENCHMARK.json has its fixed form."""

import contextlib
import copy
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import specsamp
from specsamp import cli

from perfbench import checks, run, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

T2 = dict(n=64, m=8, trials=3, noise=0.1, seed=3, rng_seed=4)
BP = dict(n=256, orders=(2, 8, 32), trials=4, seed=2, rng_seed=5)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def table2(tmp_path_factory):
    path = tmp_path_factory.mktemp("t2") / "t2.csv"
    _cli(["exp", "table2", "--n", T2["n"], "--m", T2["m"], "--trials", T2["trials"],
          "--noise", T2["noise"], "--seed", T2["seed"], "--rng-seed", T2["rng_seed"],
          "--out", path])
    graph = specsamp.gen_random_sensor(T2["n"], T2["seed"])
    basis = specsamp.eigendecompose(specsamp.combinatorial_laplacian(graph))
    header, rows = checks.read_report(path)
    return header, rows, np.asarray(graph.weights), basis


def _t2_report_problems(header, rows):
    return checks.table2_report_problems(header, rows, T2["trials"], (0.0, T2["noise"]))


def _dense_problems(rows, basis):
    problems = []
    for row in rows:
        group, trial = checks.group_key(row), int(row["trial"])
        db = checks.dense_trial_db(np.asarray(basis.vectors), np.asarray(basis.lambdas),
                                   T2["m"], group, trial, T2["trials"], T2["rng_seed"],
                                   1.0, 0.1)
        problems += checks.trial_db_problems(float(row["mse_db"]), db, str(group))
    return problems


def test_table2_checks_pass_on_real_output(table2):
    header, rows, weights, basis = table2
    assert _t2_report_problems(header, rows) == []
    assert checks.basis_problems(weights, np.asarray(basis.vectors),
                                 np.asarray(basis.lambdas)) == []
    assert _dense_problems(rows, basis) == []


def _set(rows, match, field, value):
    for row in rows:
        if all(row[k] == v for k, v in match.items()):
            row[field] = value
            return rows
    raise AssertionError(f"no row matches {match}")


DS_CLEAN = dict(prior="subspace", mode="unconstrained", strategy="ds", noise="0.0")


@pytest.mark.parametrize("corrupt", [
    lambda rows: _set(rows, DS_CLEAN, "mse_db", "-150.0"),
    lambda rows: rows[:-1],
    lambda rows: rows + rows[-1:],
    lambda rows: _set(rows, dict(prior="smoothness", noise="0.1"), "mse_db", "-1.0"),
    lambda rows: _set(rows, dict(prior="baseline"), "generator", "gen3"),
], ids=["ds-not-exact", "missing-row", "duplicate-row", "mean-mismatch", "unknown-group"])
def test_table2_report_check_fails_on_corruption(table2, corrupt):
    header, rows, _w, _b = table2
    assert _t2_report_problems(header, corrupt(copy.deepcopy(rows)))


def test_table2_header_check_fails_on_corruption(table2):
    header, rows, _w, _b = table2
    assert _t2_report_problems(header[::-1], rows)


def test_dense_recomputation_fails_on_corrupted_trial(table2):
    _h, rows, _w, basis = table2
    row = dict(next(r for r in rows if r["noise"] == "0.1" and r["prior"] == "subspace"))
    row["mse_db"] = repr(float(row["mse_db"]) + 1e-3)
    assert _dense_problems([row], basis)


def test_basis_check_fails_on_corrupted_basis(table2):
    _h, _r, weights, basis = table2
    u, lam = np.array(basis.vectors), np.array(basis.lambdas)
    bad_u = u.copy()
    bad_u[:, 5] += 1e-6 * u[:, 6]
    assert checks.basis_problems(weights, bad_u, lam)
    bad_lam = lam.copy()
    bad_lam[5] *= 1.0 + 1e-6
    assert checks.basis_problems(weights, u, bad_lam)
    assert checks.basis_problems(weights, u[:, ::-1], lam[::-1])


@pytest.fixture(scope="module")
def bipartite(tmp_path_factory):
    path = tmp_path_factory.mktemp("bp") / "bp.csv"
    _cli(["exp", "bipartite", "--graph", "matched", "--n", BP["n"],
          "--orders", ",".join(str(p) for p in BP["orders"]), "--trials", BP["trials"],
          "--seed", BP["seed"], "--rng-seed", BP["rng_seed"], "--out", path])
    return checks.read_report(path)


def _bp_problems(header, rows):
    return checks.bipartite_report_problems(header, rows, BP["orders"], BP["trials"])


def test_bipartite_check_passes_on_real_output(bipartite):
    assert _bp_problems(*bipartite) == []


def _swap_modes(rows, a, b):
    for row in rows:
        if row["mode"] in (a, b):
            row["mode"] = b if row["mode"] == a else a
    return rows


def _set_mode(rows, mode, field, value):
    for row in rows:
        if row["mode"] == mode:
            row[field] = value
    return rows


@pytest.mark.parametrize("corrupt", [
    lambda rows: _set(rows, dict(mode="exact"), "mse_db", "-100.0"),
    lambda rows: _swap_modes(rows, "chebyshev_p8", "chebyshev_baseline_p8"),
    lambda rows: _swap_modes(rows, "chebyshev_p2", "chebyshev_p32"),
    lambda rows: [r for r in rows if r["mode"] != "chebyshev_p2"],
    lambda rows: _set_mode(rows, "chebyshev_p32", "mean_mse_db", "-99.0"),
], ids=["exact-not-exact", "order-loses-to-baseline", "highest-loses-to-lowest",
        "missing-mode", "mean-mismatch"])
def test_bipartite_check_fails_on_corruption(bipartite, corrupt):
    header, rows = bipartite
    assert _bp_problems(header, corrupt(copy.deepcopy(rows)))


@pytest.fixture(scope="module")
def stream_request():
    n, m = 64, 4
    basis = specsamp.dft_basis(n)
    cfg = specsamp.SamplingConfig(n, m)
    s, a = specsamp.inverted_ramp(basis), specsamp.linear_decay(basis, 0.1)
    design = specsamp.design_subspace_unconstrained(s, a, cfg)
    d = np.random.default_rng(0).normal(1.0, 1.0, cfg.k)
    x = specsamp.generate_pgs(specsamp.PgsModel(a, cfg, basis), d)
    chat = specsamp.frequency_sample(basis, s, x, cfg)
    xt = specsamp.reconstruct(basis, design, chat)
    s_ref, a_ref = checks.cycle_filters(n, 0.1)
    return dict(s_ref=s_ref, a_ref=a_ref, coeffs=d, x=x, folded=chat.values, xt=xt,
                reported_db=specsamp.mse_db(x, xt), m=m)


def test_stream_check_passes_on_real_output(stream_request):
    assert checks.stream_problems(**stream_request) == []


@pytest.mark.parametrize("field, corrupt", [
    ("folded", lambda v: v + 1e-6),
    ("xt", lambda v: v * (1.0 + 1e-8)),
    ("x", lambda v: np.roll(v, 1)),
    ("reported_db", lambda v: -150.0),
])
def test_stream_check_fails_on_corruption(stream_request, field, corrupt):
    request = dict(stream_request)
    request[field] = corrupt(request[field])
    assert checks.stream_problems(**request)


def test_tracer_self_times_and_counts():
    basis = specsamp.dft_basis(16)
    filt = specsamp.linear_decay(basis, 0.1)
    graph = specsamp.gen_circular(16)
    op = specsamp.normalized_laplacian(graph)
    cf = specsamp.chebyshev_fit(lambda lam: 1.0 - lam / 2.0, (0.0, 2.0), 5)
    original = specsamp.apply_filter
    tracer = tracing.Tracer()
    with tracer.installed():
        assert specsamp.apply_filter is not original
        with tracer.unit("op"):
            specsamp.apply_filter(basis, filt, np.ones(16))
            specsamp.apply_chebyshev(op, cf, np.ones((16, 3)), lambda_max=2.0)
    assert specsamp.apply_filter is original
    assert specsamp.spectral.apply_filter is original
    names = [span[0] for span in tracer.spans]
    assert names == ["op", "spectral.apply_filter", "spectral.gft", "spectral.igft",
                     "chebyshev.apply_chebyshev"]
    selfs = tracer.self_times()
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-12)
    assert all(t >= 0 for t in selfs)
    metrics = tracer.layer_metrics(0.0)
    assert metrics["spectral.transform_calls"]["value"] == 3
    assert metrics["chebyshev.matvecs"]["value"] == 15
    assert metrics["chebyshev.bytes_computed"]["value"] == op.matrix.nbytes * 5
    assert metrics["spectral.transform_s"]["value"] == pytest.approx(sum(selfs[1:4]))


def test_tracer_wraps_graph_validation():
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.unit("setup"):
            specsamp.gen_circular(8)
    assert [span[0] for span in tracer.spans] == ["setup", "graphs.gen_circular",
                                                  "graphs.validate"]
    assert tracer.layer_metrics(0.0)["graphs.validate_calls"]["value"] == 1


def test_benchmark_json_has_fixed_form():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for wl in spec["workloads"]:
        assert list(wl) == ["name", "why"]
        assert "\n" not in wl["why"] and len(wl["why"]) <= 200
    assert {wl["name"] for wl in spec["workloads"]} == set(WORKLOADS)
    for metric in spec["end_to_end"]:
        assert list(metric) == ["name", "unit", "better", "bound"]
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert list(metric) == ["name", "unit", "better"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_metric_and_workload_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(UNIT.match(unit) for unit in units)
    assert all(m["better"] in ("lower", "higher")
               for key in ("end_to_end", "per_layer") for m in spec[key])

"""Output checks for the benchmark workloads.

Every check is computed apart from the code it checks, or from a property the
method must have.  Reports are read with the standard library's ``csv``
module.  Filters and correction designs come from the paper's closed forms;
sampling and reconstruction are applied as explicit dense matrices; folded
spectra are compared against ``numpy.fft``.  Each check returns a list of
problems, empty when the output passes.
"""

import csv
import math

import numpy as np

EXACT_DB = -200.0      # direct-sum recovery is exact up to round-off
FLOOR_DB = -320.0      # reports clip the error at this level
DB_TOL = 1e-6          # agreement between two computations of one trial
REPORT_COLUMNS = ("prior", "mode", "strategy", "sampling_filter", "generator",
                  "noise", "trial", "mse_db", "mean_mse_db")

# Table 2 of the paper: (prior, mode, strategy) rows with both sampling
# filters, plus the bandlimited baseline, for both generators and every noise
# level.
TABLE2_METHODS = (("subspace", "unconstrained", "ds"),
                  ("subspace", "predefined", "ds"),
                  ("subspace", "predefined", "ls"),
                  ("smoothness", "unconstrained", "ls"),
                  ("smoothness", "predefined", "mx"))


def read_report(path):
    """Header tuple and rows (dicts of strings) of a CSV report."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        rows = [dict(zip(header, rec)) for rec in reader]
    return header, rows


def table2_groups(noises):
    """The (prior, mode, strategy, sampling, generator, noise) groups of Table 2."""
    groups = []
    for generator in ("gen1", "gen2"):
        for noise in noises:
            for prior, mode, strategy in TABLE2_METHODS:
                for sampling in ("bl", "ir"):
                    groups.append((prior, mode, strategy, sampling, generator, noise))
            groups.append(("baseline", "predefined", "ds", "bl", generator, noise))
    return groups


def group_key(row):
    """The Table 2 group a report row belongs to."""
    return (row["prior"], row["mode"], row["strategy"], row["sampling_filter"],
            row["generator"], float(row["noise"]))


def _mean_db(dbs):
    return 10.0 * math.log10(sum(10.0 ** (db / 10.0) for db in dbs) / len(dbs))


def _grouped(header, rows, expected, trials, problems):
    """Rows by group; records a problem for a wrong header or group make-up."""
    if header != REPORT_COLUMNS:
        problems.append(f"report header {header} != {REPORT_COLUMNS}")
        return {}
    by_group = {}
    for row in rows:
        by_group.setdefault(group_key(row), []).append(row)
    if set(by_group) != set(expected):
        problems.append(f"report groups {sorted(by_group)} != {sorted(expected)}")
    for key, group in by_group.items():
        if sorted(int(r["trial"]) for r in group) != list(range(trials)):
            problems.append(f"group {key} does not hold trials 0..{trials - 1} once each")
        dbs = [float(r["mse_db"]) for r in group]
        if not all(FLOOR_DB <= db < math.inf for db in dbs):
            problems.append(f"group {key} has mse_db outside [{FLOOR_DB}, inf)")
            continue
        means = {float(r["mean_mse_db"]) for r in group}
        if len(means) != 1:
            problems.append(f"group {key} has {len(means)} different mean_mse_db values")
        elif min(dbs) > EXACT_DB and abs(means.pop() - _mean_db(dbs)) > DB_TOL:
            problems.append(f"group {key}: mean_mse_db is not the mean of its trials")
    return by_group


def table2_report_problems(header, rows, trials, noises):
    """Report make-up, and exact recovery for noise-free subspace/unconstrained/DS."""
    problems = []
    by_group = _grouped(header, rows, table2_groups(noises), trials, problems)
    for key, group in by_group.items():
        if key[:3] == ("subspace", "unconstrained", "ds") and key[5] == 0.0:
            worst = max(float(r["mse_db"]) for r in group)
            if not worst <= EXACT_DB:
                problems.append(f"group {key}: DS recovery reaches {worst} dB > {EXACT_DB} dB")
    return problems


def basis_problems(weights, vectors, lambdas, tol=1e-9):
    """Eigen and orthonormality residuals of a combinatorial-Laplacian basis.

    The Laplacian is formed here from the edge weights, so the residuals do
    not rely on the library's operator.
    """
    lap = np.diag(weights.sum(axis=1)) - weights
    scale = max(1.0, float(np.abs(lap).max()))
    eig_res = float(np.abs(lap @ vectors - vectors * lambdas).max()) / scale
    orth_res = float(np.abs(vectors.conj().T @ vectors - np.eye(len(lambdas))).max())
    problems = []
    if not eig_res <= tol:
        problems.append(f"eigen residual {eig_res:.3e} > {tol:.0e}")
    if not orth_res <= tol:
        problems.append(f"orthonormality residual {orth_res:.3e} > {tol:.0e}")
    if np.any(np.diff(lambdas) < -tol * scale) or lambdas[0] < -tol * scale:
        problems.append("Laplacian frequencies are not ascending and nonnegative")
    return problems


def closed_form_filters(lambdas, k, eps):
    """The paper's filter responses at the given graph frequencies."""
    lam = np.asarray(lambdas, dtype=float)
    lmax = float(lam.max())
    return {
        "gen1": 1.0 - lam / (lmax + eps),
        "gen2": np.exp(-1.5 * lam / lmax),
        "ir": np.where(lam <= 2.0 / lmax, 1.0, -2.0 * lam / lmax),
        "bl": (np.arange(len(lam)) < k).astype(float),
        "cos": np.cos(0.5 * np.pi * lam / (lmax + eps)),
        "smooth": lam / lmax + 1.0,
    }


def _fold_matrix(n, m):
    """K x N matrix [I_K I_K ... I_K] of graph-frequency folding."""
    return np.tile(np.eye(n // m), (1, m))


def _pinv(c):
    small = np.abs(c) <= 1e-10 * np.abs(c).max()
    return np.where(small, 0.0, 1.0 / np.where(small, 1.0, c))


def closed_form_design(group, f, fold):
    """Sampling filter s, correction h (length K) and reconstruction w for a group."""
    prior, mode, strategy, sampling, generator, _noise = group
    if prior == "baseline":
        return f["bl"], np.ones(fold.shape[0]), f["bl"]
    s, a, cos = f[sampling], f[generator], f["cos"]
    r = lambda f1, f2: fold @ (f1 * f2)  # noqa: E731 - folded cross-correlation
    if prior == "subspace" and mode == "unconstrained":
        return s, 1.0 / r(s, a), a
    if prior == "subspace" and strategy == "ds":
        return s, r(cos, a) / (r(s, a) * r(cos, cos)), cos
    if prior == "subspace" and strategy == "ls":
        return s, _pinv(r(s, cos)), cos
    wt = s / f["smooth"] ** 2
    if mode == "unconstrained":
        return s, 1.0 / r(s, wt), wt
    return s, r(cos, wt) / (r(s, wt) * r(cos, cos)), cos


def dense_trial_db(vectors, lambdas, m, group, trial, trials, rng_seed,
                   coeff_mean, eps):
    """One Table 2 trial recomputed with dense sampling and reconstruction
    matrices.

    Trial t draws from the t-th child of the run's seed sequence: K
    expansion coefficients from Normal(coeff_mean, 1), then N noise values.
    """
    n = len(lambdas)
    k = n // m
    fold = _fold_matrix(n, m)
    f = closed_form_filters(lambdas, k, eps)
    s, h, w = closed_form_design(group, f, fold)
    sampling = fold @ (s[:, None] * vectors.conj().T)            # K x N
    reconstruction = vectors @ (w[:, None] * fold.T) * h[None, :]  # N x K

    rng = np.random.default_rng(np.random.SeedSequence(rng_seed).spawn(trials)[trial])
    coeffs = rng.normal(coeff_mean, 1.0, k)
    noise_var = group[5]
    noise = rng.normal(0.0, math.sqrt(noise_var), n) if noise_var > 0 else 0.0
    x_clean = vectors @ (f[group[4]] * (fold.T @ coeffs))
    xt = reconstruction @ (sampling @ (x_clean + noise))
    ratio = float(np.sum(np.abs(xt - x_clean) ** 2) / np.sum(np.abs(x_clean) ** 2))
    return FLOOR_DB if ratio == 0 else max(10.0 * math.log10(ratio), FLOOR_DB)


def trial_db_problems(reported, recomputed, label):
    if reported <= EXACT_DB and recomputed <= EXACT_DB:
        return []
    if abs(reported - recomputed) <= DB_TOL:
        return []
    return [f"{label}: report says {reported} dB, dense recomputation {recomputed} dB"]


def bipartite_modes(orders):
    modes = ["exact"]
    for order in orders:
        modes += [f"chebyshev_p{order}", f"chebyshev_baseline_p{order}"]
    return modes


def bipartite_report_problems(header, rows, orders, trials):
    """Exact row at machine precision; each Chebyshev order beats the
    bandlimited baseline at that order; the highest order beats the lowest."""
    problems = []
    if header != REPORT_COLUMNS:
        return [f"report header {header} != {REPORT_COLUMNS}"]
    by_mode = {}
    for row in rows:
        by_mode.setdefault(row["mode"], []).append(row)
    modes = bipartite_modes(orders)
    if sorted(by_mode) != sorted(modes):
        return [f"report modes {sorted(by_mode)} != {sorted(modes)}"]
    means = {}
    for mode, group in by_mode.items():
        _grouped(header, group, {group_key(group[0])}, trials, problems)
        means[mode] = _mean_db([float(r["mse_db"]) for r in group])
    worst = max(float(r["mse_db"]) for r in by_mode["exact"])
    if not worst <= EXACT_DB:
        problems.append(f"exact one-branch recovery reaches {worst} dB > {EXACT_DB} dB")
    for order in orders:
        cheb, base = means[f"chebyshev_p{order}"], means[f"chebyshev_baseline_p{order}"]
        if not cheb < base:
            problems.append(f"order {order}: Chebyshev {cheb:.3f} dB does not beat "
                            f"the bandlimited baseline {base:.3f} dB")
    lo, hi = min(orders), max(orders)
    if not means[f"chebyshev_p{hi}"] < means[f"chebyshev_p{lo}"]:
        problems.append(f"order {hi} ({means[f'chebyshev_p{hi}']:.3f} dB) does not beat "
                        f"order {lo} ({means[f'chebyshev_p{lo}']:.3f} dB)")
    return problems


def cycle_filters(n, eps):
    """Closed-form (sampling, generator) responses on the n-cycle's DFT basis:
    inverted ramp and linear decay at frequencies 2 - 2cos(2 pi i / n)."""
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    f = closed_form_filters(lam, n, eps)
    return f["ir"], f["gen1"]


def stream_problems(s_ref, a_ref, coeffs, x, folded, xt, reported_db, m):
    """One stream request against numpy.fft: the synthesized spectrum is
    a * upsample(coeffs), the folded spectrum is the fold of s * fft(x), and
    the reconstruction is exact."""
    n = len(x)
    spectrum = np.fft.fft(x) / math.sqrt(n)
    problems = []
    target = a_ref * np.tile(coeffs, m)
    if not np.abs(spectrum - target).max() <= 1e-9 * max(1.0, np.abs(target).max()):
        problems.append("synthesized signal's spectrum is not a * upsample(coeffs)")
    fold = (s_ref * spectrum).reshape(m, n // m).sum(axis=0)
    if not np.abs(np.asarray(folded) - fold).max() <= 1e-9 * max(1.0, np.abs(fold).max()):
        problems.append("folded spectrum differs from the numpy.fft fold")
    ratio = float(np.sum(np.abs(x - xt) ** 2) / np.sum(np.abs(x) ** 2))
    if not ratio <= 10.0 ** (EXACT_DB / 10.0):
        problems.append(f"reconstruction error ratio {ratio:.3e} above {EXACT_DB} dB")
    if not reported_db <= EXACT_DB:
        problems.append(f"mse_db reports {reported_db} dB > {EXACT_DB} dB")
    return problems

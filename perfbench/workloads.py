"""The benchmark's workloads.

Each workload makes its inputs from the seed, sets up what its operations
share, runs rounds of operations and checks their outputs with
:mod:`perfbench.checks`.  A round is a fixed list of operations, so every run
attempts whole rounds.

- ``table2-sensor-n1024``: one ``exp table2`` CLI invocation per operation
  (the paper's Table 2 matrix at 1000 trials on a 1024-vertex sensor graph).
- ``bipartite-matched-n2048``: one ``exp bipartite`` CLI invocation per
  operation (the Chebyshev-order sweep on a 2048-vertex matched bipartite
  graph).
- ``stream-dft-n1024``: single-signal requests against one prebuilt DFT basis
  of the 1024-cycle, 200 requests per round, each sent after the previous one
  returned (a closed loop with one client).
"""

import contextlib
import hashlib
import io
import sys
import time
import traceback

import numpy as np

import specsamp
from specsamp import cli

from perfbench import checks

EPS = 0.1          # generator and cosine-taper offset of the paper's setup
COEFF_MEAN = 1.0   # expansion coefficients are drawn from Normal(1, 1)


def _derived_seeds(seed, count):
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


class _Experiment:
    """One CLI experiment invocation per operation; checks run after the loop."""

    command = ()
    rows_per_op = 0

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.graph_seed, self.rng_seed = _derived_seeds(seed, 2)
        self.out_dir = out_dir
        self.outputs = []   # (rc, stdout, report path) per operation
        self.signals_per_round = self.rows_per_op
        self.ops_per_round = 1

    def setup(self):
        """Nothing beyond the imports: every invocation builds its own inputs."""

    def argv(self, path):
        return [*self.command, "--seed", str(self.graph_seed),
                "--rng-seed", str(self.rng_seed), "--out", str(path)]

    def run_round(self, index, op_unit=contextlib.nullcontext):
        path = self.out_dir / f"{self.name}-s{self.seed}-r{index}.csv"
        argv = self.argv(path)
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with op_unit(), contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            rc = None
        latency = time.perf_counter() - start
        self.outputs.append((rc, stdout.getvalue(), path))
        return [latency]

    def check(self):
        """Check every operation's output; returns the number that failed."""
        failed = 0
        digests = set()
        for rc, text, path in self.outputs:
            problems = []
            if rc != 0:
                problems.append(f"exit code {rc}")
            elif text.splitlines()[-1:] != [f"wrote {self.rows_per_op} rows to {path}"]:
                problems.append("CLI did not report the expected row count")
            else:
                digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
                try:
                    problems += self.report_problems(path)
                except (KeyError, ValueError) as exc:
                    problems.append(f"unreadable report: {exc!r}")
                if len(digests) > 1:
                    problems.append("reruns with the same seeds differ byte for byte")
            if path.exists():
                path.unlink()
            if problems:
                failed += 1
                print(f"{self.name}: {path.name}: " + "; ".join(problems), file=sys.stderr)
        return failed


class Table2(_Experiment):
    name = "table2-sensor-n1024"
    N, M, TRIALS, NOISE = 1024, 8, 1000, 0.1
    RECHECKED = 12   # seeded (group, trial) pairs recomputed with dense matrices
    command = ("exp", "table2", "--kind", "sensor", "--n", str(N), "--m", str(M),
               "--trials", str(TRIALS), "--noise", str(NOISE))
    rows_per_op = 44 * TRIALS

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self._basis = None

    def _checked_basis(self):
        """The sensor graph's GFT basis, with its residuals checked here once."""
        if self._basis is None:
            graph = specsamp.gen_random_sensor(self.N, self.graph_seed)
            basis = specsamp.eigendecompose(specsamp.combinatorial_laplacian(graph))
            problems = checks.basis_problems(np.asarray(graph.weights),
                                             np.asarray(basis.vectors),
                                             np.asarray(basis.lambdas))
            self._basis = (basis, problems)
        return self._basis

    def report_problems(self, path):
        header, rows = checks.read_report(path)
        noises = (0.0, self.NOISE)
        problems = checks.table2_report_problems(header, rows, self.TRIALS, noises)
        basis, basis_problems = self._checked_basis()
        problems += basis_problems
        if problems:
            return problems
        reported = {(checks.group_key(r), int(r["trial"])): float(r["mse_db"]) for r in rows}
        groups = checks.table2_groups(noises)
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(groups) * self.TRIALS, size=self.RECHECKED, replace=False)
        for pick in sorted(int(p) for p in picks):
            group, trial = groups[pick // self.TRIALS], pick % self.TRIALS
            db = checks.dense_trial_db(np.asarray(basis.vectors), np.asarray(basis.lambdas),
                                       self.M, group, trial, self.TRIALS, self.rng_seed,
                                       COEFF_MEAN, EPS)
            problems += checks.trial_db_problems(reported[(group, trial)], db,
                                                 f"{group} trial {trial}")
        return problems


class Bipartite(_Experiment):
    name = "bipartite-matched-n2048"
    N, TRIALS = 2048, 100
    ORDERS = (2, 4, 8, 16, 24, 32)
    command = ("exp", "bipartite", "--graph", "matched", "--n", str(N),
               "--orders", ",".join(str(p) for p in ORDERS), "--trials", str(TRIALS))
    rows_per_op = (1 + 2 * len(ORDERS)) * TRIALS

    def report_problems(self, path):
        header, rows = checks.read_report(path)
        return checks.bipartite_report_problems(header, rows, self.ORDERS, self.TRIALS)


class Stream:
    name = "stream-dft-n1024"
    N, M = 1024, 8
    ops_per_round = 200
    signals_per_round = ops_per_round

    def __init__(self, seed, out_dir):
        self.rng = np.random.default_rng(seed)
        self.failed = 0
        self.s_ref, self.a_ref = checks.cycle_filters(self.N, EPS)

    def setup(self):
        """Graph, DFT basis, filters, design and signal model, built once and
        shared by every request."""
        graph = specsamp.gen_circular(self.N)
        basis = specsamp.dft_basis(graph.n)
        cfg = specsamp.SamplingConfig(graph.n, self.M)
        s = specsamp.inverted_ramp(basis)
        a = specsamp.linear_decay(basis, EPS)
        design = specsamp.design_subspace_unconstrained(s, a, cfg)
        self.state = (basis, cfg, s, design, specsamp.PgsModel(a, cfg, basis))

    def run_round(self, index, op_unit=contextlib.nullcontext):
        basis, cfg, s, design, model = self.state
        coeffs = self.rng.normal(COEFF_MEAN, 1.0, (self.ops_per_round, cfg.k))
        latencies = []
        for d in coeffs:
            start = time.perf_counter()
            try:
                with op_unit():
                    x = specsamp.generate_pgs(model, d)
                    chat = specsamp.frequency_sample(basis, s, x, cfg)
                    xt = specsamp.reconstruct(basis, design, chat)
                    db = specsamp.mse_db(x, xt)
            except Exception as exc:  # a request that raises counts as failed
                problems = [f"raised {exc!r}"]
            else:
                problems = checks.stream_problems(self.s_ref, self.a_ref, d, x,
                                                  chat.values, xt, db, self.M)
            latencies.append(time.perf_counter() - start)
            if problems:
                self.failed += 1
                print(f"{self.name}: request failed: " + "; ".join(problems),
                      file=sys.stderr)
        return latencies

    def check(self):
        """Requests are checked as they complete; returns the number that failed."""
        return self.failed


WORKLOADS = {cls.name: cls for cls in (Table2, Bipartite, Stream)}

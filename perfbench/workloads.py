"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Every workload draws its inputs by jitter inside a fixed design: each
stratum (alpha, x bin, model kind, ...) appears once per pass, every pass
pairs the strata the same way, and pass p puts each input in the p-th
eighth of its bin in van der Corput order (0, 1/2, 1/4, 3/4, ...), so the
first passes of a run cover every bin evenly.  The seed only moves each
input inside that eighth.  Two seeds therefore give different inputs with
the same mix of costs.  Within a pass the strata are interleaved, so a run
that stops part way through a pass still sees a spread of them.

``execute`` runs one operation against the public API, looking every
function up through its module at call time so that the traced run's
wrappers see the call.  ``check`` returns None for a correct result or the
reason it is wrong.  An operation that raises counts as ``raised``; one
whose result fails its check, or misses its stated accuracy, counts as
``inaccurate``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repo import BENCH_DIR, child_env, require_cfpp

cfpp = require_cfpp()

U_GRID = tuple(round(0.1 * i, 1) for i in range(11))
PMF_TOL = 1e-6  # criterion 01: mass missing from an auto-sized pmf
QUAD_TOL = 1e-6  # criterion 04: |quad - closed-form Laplace transform|
MC_Z_LIMIT = 5.0  # sample mean / variance against the exact values, in SE units


@dataclass(frozen=True)
class Op:
    stratum: str
    params: dict


def _van_der_corput(p):
    """p-th point of the base-2 van der Corput sequence: 0, 1/2, 1/4, 3/4, ..."""
    x, scale = 0.0, 0.5
    while p:
        p, bit = divmod(p, 2)
        x += bit * scale
        scale /= 2
    return x


def _bins(rng, k, p, stride=1, offset=0):
    """k points in [0, 1), one in each of k equal bins, for pass p.

    Point i lies in bin (stride * i + offset) mod k, a fixed permutation
    when stride and k share no factor.  Inside its bin it lies in the
    eighth that starts at van_der_corput(p); only the place inside that
    eighth is random.
    """
    order = (stride * np.arange(k) + offset) % k
    inside = (_van_der_corput(p) + rng.random(k) / 8) % 1.0
    return (order + inside) / k


def _model(kind, heaviness, rng, n_values=4):
    """An intensity config of the given kind.

    ``heaviness`` in [0, 1) sets how slowly the intensities decay, which
    sets the jump-size tail and so the pmf's length.  Geometric models have
    q in [0.2, 0.5]; finite ones have 2 to 6 values, each 0.2 to 0.6 times
    the last.
    """
    lam0 = float(0.5 * 4.0 ** rng.random())
    if kind == "geometric":
        return {"type": "geometric", "lambda0": lam0, "q": 0.2 + 0.3 * float(heaviness)}
    ratio = 0.2 + 0.4 * float(heaviness)
    values = [lam0]
    for _ in range(n_values - 1):
        values.append(values[-1] * ratio * (0.9 + 0.1 * float(rng.random())))
    return {"type": "finite", "values": values}


def _intensity(config):
    return cfpp.intensity.from_config(config)


class Workload:
    name = ""
    # What an operation is, for the printed report.
    op_label = ""

    # Distinct passes generated per run; the loop cycles through them if it
    # gets to the end.
    passes = 1

    def generate(self, seed: int) -> list[Op]:
        rng = np.random.default_rng([seed, sorted(WORKLOADS).index(self.name)])
        return [op for p in range(self.passes) for op in self.one_pass(rng, p)]

    def one_pass(self, rng, p=0) -> list[Op]:
        """Every stratum once, interleaved."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Imports and first calls a user pays once per process."""

    def prepare(self, ops: list[Op], workdir) -> None:
        """Untimed work before the loop (references the checks compare to)."""

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# exact-law: pmf_cfpp + pgf on the u grid + moment_report for one input
# ---------------------------------------------------------------------------

EXACT_ALPHAS = (0.3, 0.5, 0.7, 0.9, 1.0)
# Largest x = lambda_0 t^alpha generated per alpha: up to it today's pmf
# meets PMF_TOL for every model generated, with margin; further out the
# N_MAX_CEILING = 128 truncation or a raising ml_weights sets in (see
# DOMAIN_PROBE).  For geometric(1, 0.5) the first failing x on the grid
# 1, 2, 5, 10, 20, 30, 45, 50 is 5, 10, 20, 20, 30 for these alphas.
EXACT_X_HI = {0.3: 2.0, 0.5: 3.0, 0.7: 5.0, 0.9: 8.0, 1.0: 10.0}
EXACT_X_LO = 0.05
EXACT_X_BINS = 10
MODEL_KINDS = ("geometric", "finite")

# Inputs inside the documented domain x <= 50 that fail today: ml_weights
# raises NonConvergenceError at the first two, and the auto n_max hits its
# ceiling and drops mass at the last two.  Run every exact-law run, outside
# the timed loop, so the failures are counted and shown, never filtered.
DOMAIN_PROBE = (
    ("raise alpha=0.5 x=45", 0.5, 45.0 ** (1 / 0.5)),
    ("raise alpha=0.3 x=20", 0.3, 20.0 ** (1 / 0.3)),
    ("truncate alpha=0.7 t=50", 0.7, 50.0),
    ("truncate alpha=1 t=50", 1.0, 50.0),
)
PROBE_MODEL = {"type": "geometric", "lambda0": 1.0, "q": 0.5}


class ExactLaw(Workload):
    name = "exact-law"
    op_label = "pmf_cfpp + 11-point pgf + moment_report"

    passes = 4

    def one_pass(self, rng, p=0):
        cells = {}
        for ai, alpha in enumerate(EXACT_ALPHAS):
            log_span = math.log(EXACT_X_HI[alpha] / EXACT_X_LO)
            for kind in MODEL_KINDS:
                heavy = _bins(rng, EXACT_X_BINS, p + 4, offset=3)
                for k, v in enumerate(_bins(rng, EXACT_X_BINS, p)):
                    x = EXACT_X_LO * math.exp(log_span * float(v))
                    model = _model(kind, heavy[k], rng, n_values=2 + k % 5)
                    lam0 = model["values"][0] if kind == "finite" else model["lambda0"]
                    cells[ai, kind, k] = Op(
                        f"alpha={alpha} {kind} xbin={k}",
                        {"intensity": model, "alpha": alpha, "t": (x / lam0) ** (1 / alpha), "x": x},
                    )
        ops = []
        for r in range(EXACT_X_BINS):
            for ai in range(len(EXACT_ALPHAS)):
                for ki, kind in enumerate(MODEL_KINDS):
                    ops.append(cells[ai, kind, (r + 2 * ai + 3 * ki) % EXACT_X_BINS])
        return ops

    def warmup(self):
        model = _intensity(PROBE_MODEL)
        cfpp.distribution.pmf_cfpp(model, 0.7, 1.0)
        cfpp.distribution.pgf(model, 0.7, 1.0, 0.5)
        cfpp.distribution.moment_report(model, 0.7, 1.0)

    def execute(self, op):
        p = op.params
        model = _intensity(p["intensity"])
        alpha, t = p["alpha"], p["t"]
        dist = cfpp.distribution
        sd = dist.pmf_cfpp(model, alpha, t)
        g = [dist.pgf(model, alpha, t, u) for u in U_GRID]
        report = dist.moment_report(model, alpha, t)
        return sd, g, report

    def check(self, op, result):
        sd, g, report = result
        probs = np.asarray(sd.probs, dtype=float)
        if not np.all(np.isfinite(probs)) or probs.min() < -1e-15:
            return "pmf has a negative or non-finite entry"
        if sd.truncation_mass > PMF_TOL:
            return f"truncation_mass {sd.truncation_mass:.2e} > {PMF_TOL:g}"
        if sd.truncation_mass < -1e-12:
            return f"pmf sums to 1 + {-sd.truncation_mass:.2e}"
        g = np.asarray(g, dtype=float)
        if not np.all(np.isfinite(g)) or abs(g[-1] - 1.0) > 1e-12:
            return "pgf(1) != 1"
        if np.any(np.diff(g) < -1e-12):
            return "pgf not monotone in u"
        # sum_n p_n u^n misses at most the truncated mass.
        u = np.asarray(U_GRID)
        series = (probs[None, :] * u[:, None] ** np.arange(len(probs))[None, :]).sum(axis=1)
        gap = float(np.abs(series - g).max())
        if gap > PMF_TOL + 1e-9:
            return f"pgf differs from the pmf's series by {gap:.2e}"
        mean_pmf = float(np.arange(len(probs)) @ probs)
        if abs(report.mean - mean_pmf) > 1e-4 * max(1.0, report.mean):
            return f"pmf mean {mean_pmf!r} != mean {report.mean!r}"
        if abs(report.factorial_moments[0] - report.mean) > 1e-9 * max(1.0, report.mean):
            return "first factorial moment != mean"
        m2 = report.raw_moments[1]
        if abs(m2 - (report.variance + report.mean**2)) > 1e-9 * max(1.0, m2):
            return "second moment != variance + mean^2"
        return None

    def probe_ops(self):
        return [
            Op(label, {"intensity": PROBE_MODEL, "alpha": alpha, "t": t})
            for label, alpha, t in DOMAIN_PROBE
        ]


# ---------------------------------------------------------------------------
# laplace-quad: quad of e^{-st} p_n(t), checked against laplace_pmf
# ---------------------------------------------------------------------------

QUAD_N = 5  # n = 0..4
QUAD_ALPHA_BINS = 3  # over [0.4, 0.9]
QUAD_ALPHA_LO, QUAD_ALPHA_HI = 0.4, 0.9
QUAD_S_LO, QUAD_S_HI = 0.5, 2.0


class LaplaceQuad(Workload):
    name = "laplace-quad"
    op_label = "scipy quad of e^-st p_n(t) over ml_weights"

    def __init__(self):
        self.integrand_evals = 0

    passes = 20

    def one_pass(self, rng, p=0):
        count = QUAD_N * QUAD_ALPHA_BINS
        # Op j = 5 g + n of the pass: alpha in third (n + g) mod 3 of its
        # range, s in bin 7 j + 3 of 15.  Each (n, alpha third) pair occurs
        # once, and every run of five ops covers every n and all three thirds.
        a_pos = _bins(rng, count, p)
        s_pos = _bins(rng, count, p + 2, stride=7, offset=3)
        q_pos = _bins(rng, count, p + 4, stride=4, offset=1)
        ops = []
        for j in range(count):
            g, n = divmod(j, QUAD_N)
            third = (n + g) % QUAD_ALPHA_BINS
            a_bin = QUAD_N * third + n
            alpha = QUAD_ALPHA_LO + (QUAD_ALPHA_HI - QUAD_ALPHA_LO) * float(a_pos[a_bin])
            s = QUAD_S_LO * (QUAD_S_HI / QUAD_S_LO) ** float(s_pos[j])
            model = {"type": "geometric", "lambda0": 1.0, "q": 0.3 + 0.3 * float(q_pos[j])}
            ops.append(Op(f"n={n} alphabin={third}",
                          {"intensity": model, "alpha": round(alpha, 3), "n": n, "s": s}))
        return ops

    def warmup(self):
        from scipy import integrate  # noqa: F401

        cfpp.special.ml_weights(0.6, 1.0, 4)
        cfpp.distribution.laplace_pmf(_intensity(PROBE_MODEL), 0.6, 2, 1.0)

    def execute(self, op):
        from scipy import integrate

        p = op.params
        model = _intensity(p["intensity"])
        alpha, n, s = p["alpha"], p["n"], p["s"]
        lam0 = model.lambda_at(0)
        column = cfpp.distribution.jump_sum_pmf(model, n)[:, n]
        special = cfpp.special
        evals = 0

        def integrand(t):
            nonlocal evals
            evals += 1
            if t <= 0.0:
                return 1.0 if n == 0 else 0.0
            w = special.ml_weights(alpha, lam0 * t**alpha, n)
            return math.exp(-s * t) * float(column @ w)

        t_cut = math.log(1e9 / s) / s  # e^{-st}/s tail below 1e-9
        value, _ = integrate.quad(integrand, 0.0, t_cut, limit=200, epsabs=1e-9, epsrel=1e-9)
        self.integrand_evals += evals
        return value

    def check(self, op, result):
        p = op.params
        exact = cfpp.distribution.laplace_pmf(_intensity(p["intensity"]), p["alpha"], p["n"], p["s"])
        gap = abs(result - exact)
        if not math.isfinite(result) or gap > QUAD_TOL:
            return f"|quad - laplace_pmf| = {gap:.2e} > {QUAD_TOL:g}"
        return None


# ---------------------------------------------------------------------------
# monte-carlo: one mc_pmf call, in matched workers=1 / workers=2 pairs
# ---------------------------------------------------------------------------

MC_SAMPLES = 200_000
MC_ALPHAS = (0.5, 0.7, 0.9, 1.0)
MC_METHODS = ("TimeChange", "RenewalCompound")


class MonteCarlo(Workload):
    name = "monte-carlo"
    op_label = f"mc_pmf with {MC_SAMPLES} samples"

    passes = 10

    def one_pass(self, rng, p=0):
        n_pairs = len(MC_METHODS) * len(MODEL_KINDS) * len(MC_ALPHAS)
        t_pos = _bins(rng, n_pairs, p, stride=5)
        h_pos = _bins(rng, n_pairs, p + 4, stride=3, offset=7)
        ops = []
        pair = 0
        for alpha in MC_ALPHAS:
            for kind in MODEL_KINDS:
                for method in MC_METHODS:
                    model = _model(kind, h_pos[pair], rng)
                    base = {
                        "intensity": model,
                        "alpha": alpha,
                        "t": 0.5 * 4.0 ** float(t_pos[pair]),
                        "method": method,
                        "seed": int(rng.integers(1 << 31)),
                        "n_samples": MC_SAMPLES,
                    }
                    order = (1, 2) if pair % 2 == 0 else (2, 1)
                    for workers in order:
                        ops.append(Op(f"alpha={alpha} {kind} {method} workers={workers}",
                                      dict(base, workers=workers)))
                    pair += 1
        return ops

    def warmup(self):
        cfg = cfpp.simulate.SamplerConfig(seed=0, n_samples=1000, workers=2)
        cfpp.simulate.mc_pmf(_intensity(PROBE_MODEL), 0.7, 1.0, cfg)

    def execute(self, op):
        p = op.params
        cfg = cfpp.simulate.SamplerConfig(
            seed=p["seed"], n_samples=p["n_samples"], workers=p["workers"], method=p["method"]
        )
        return cfpp.simulate.mc_pmf(_intensity(p["intensity"]), p["alpha"], p["t"], cfg)

    def check(self, op, rep):
        p = op.params
        model = _intensity(p["intensity"])
        expected_n = math.ceil(p["n_samples"] / p["workers"]) * p["workers"]
        if rep.n_samples != expected_n:
            return f"{rep.n_samples} samples, expected {expected_n}"
        if abs(float(np.sum(rep.empirical_pmf)) - 1.0) > 1e-9:
            return "empirical pmf does not sum to 1"
        mean = cfpp.distribution.mean_cfpp(model, p["alpha"], p["t"])
        var = cfpp.distribution.var_cfpp(model, p["alpha"], p["t"])
        z_mean = abs(rep.sample_mean - mean) / rep.mean_se
        z_var = abs(rep.sample_var - var) / rep.var_se
        if not z_mean <= MC_Z_LIMIT:
            return f"sample mean off by {z_mean:.1f} SE"
        if not z_var <= MC_Z_LIMIT:
            return f"sample variance off by {z_var:.1f} SE"
        return None


# ---------------------------------------------------------------------------
# cli: one fresh `python -m cfpp.cli` process per operation
# ---------------------------------------------------------------------------

CLI_CONFIGS = (("geometric", 0.7), ("finite", 0.5))  # dependence needs alpha < 1
CLI_SAMPLES = 100_000
CLI_COMMANDS = (
    ("pmf", []),
    ("moments", []),
    ("pgf", []),
    ("simulate", None),  # seed, workers and method are generated
    ("dependence", ["--mode", "process"]),
    ("dependence", ["--mode", "increment"]),
    ("dependence", ["--mode", "slope"]),
)
CLI_TIMEOUT_S = 120


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    spawned_at: float  # time.time() just before the process was started
    trace: dict | None = None  # the child's spans and timings, traced runs only


class Cli(Workload):
    name = "cli"
    op_label = "one `python -m cfpp.cli` process"

    def __init__(self):
        self.traced = False  # run each process under the benchmark's tracer
        self.workdir = None
        self.expected = {}  # op key -> reference output bytes

    def one_pass(self, rng, p=0):
        ops = []
        for c, (kind, alpha) in enumerate(CLI_CONFIGS):
            x = EXACT_X_HI[alpha] * (0.3 + 0.1 * float(rng.random()))
            model = _model(kind, 0.4 + 0.2 * rng.random(), rng)
            lam0 = model["values"][0] if kind == "finite" else model["lambda0"]
            config = {"intensity": model, "alpha": alpha, "t": (x / lam0) ** (1 / alpha)}
            for j, (command, extra) in enumerate(CLI_COMMANDS):
                if extra is None:
                    extra = [
                        "--seed", str(int(rng.integers(1 << 31))),
                        "--samples", str(CLI_SAMPLES),
                        "--workers", str(1 + c % 2),
                        "--method", ("time-change", "renewal")[c],
                    ]
                stratum = " ".join([command, *extra[:2]]) if command == "dependence" else command
                ops.append(Op(f"{kind} {stratum}", {
                    "key": f"c{c}-{j}", "config": config, "argv": [command, *extra],
                }))
        return ops

    def setup_command(self, config_path):
        return [sys.executable, "-m", "cfpp.cli", "pmf", "--config", str(config_path)]

    def prepare(self, ops, workdir):
        import cfpp.cli

        self.workdir = workdir
        for op in ops:
            key = op.params["key"]
            cfg_path = workdir / f"{key}.json"
            cfg_path.write_text(json.dumps(op.params["config"]))
            ref_path = workdir / f"{key}.ref"
            rc = cfpp.cli.main(self._argv(op) + ["--output", str(ref_path)])
            if rc != 0:
                raise RuntimeError(f"reference run of {op.params['argv']} exited {rc}")
            reason = _cli_invariants(op.params["argv"][0], op.params["argv"], ref_path.read_text())
            if reason is not None:
                raise RuntimeError(f"reference output of {op.params['argv']}: {reason}")
            self.expected[key] = ref_path.read_bytes()

    def _argv(self, op):
        argv = op.params["argv"]
        return [argv[0], "--config", str(self.workdir / f"{op.params['key']}.json"), *argv[1:]]

    def execute(self, op):
        key = op.params["key"]
        if self.traced:
            trace_path = self.workdir / f"{key}.trace.json"
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(trace_path), "--", *self._argv(op)]
        else:
            cmd = [sys.executable, "-m", "cfpp.cli", *self._argv(op)]
        spawned = time.time()
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), timeout=CLI_TIMEOUT_S)
        result = CliResult(proc.returncode, proc.stdout, proc.stderr, spawned)
        if self.traced and proc.returncode == 0:
            result.trace = json.loads(trace_path.read_text())
        return result

    def check(self, op, result):
        if result.returncode != 0:
            return f"exit code {result.returncode}: {result.stderr.decode(errors='replace')[-200:]}"
        if result.stdout != self.expected[op.params["key"]]:
            return "output differs from the in-process reference"
        return None


def _cli_invariants(command, argv, text):
    """Sanity of a reference output, so a wrong reference cannot pass."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    if command == "pmf":
        p = np.array([float(r[1]) for r in rows])
        if p.min() < -1e-15 or abs(p.sum() - 1.0) > PMF_TOL:
            return "pmf not a probability vector"
    elif command == "moments":
        values = {r[0]: float(r[1]) for r in rows}
        if not (values["mean"] > 0 and values["variance"] > 0):
            return "non-positive mean or variance"
    elif command == "pgf":
        g = np.array([float(r[1]) for r in rows])
        if np.any(np.diff(g) < -1e-12) or abs(g[-1] - 1.0) > 1e-12:
            return "pgf not monotone or pgf(1) != 1"
    elif command == "simulate":
        p = np.array([float(r[1]) for r in rows])
        if abs(p.sum() - 1.0) > 1e-9:
            return "empirical pmf does not sum to 1"
    elif "slope" in argv:
        slope = {r[0]: float(r[3]) for r in rows}
        if not -1.0 <= slope["process"] < 0.0:
            return f"process correlation slope {slope['process']} outside [-1, 0)"
    else:
        corr = np.array([float(r[3]) for r in rows])
        if not np.all(np.abs(corr) <= 1.0 + 1e-12):
            return "correlation outside [-1, 1]"
    return None


WORKLOADS = {w.name: w for w in (ExactLaw, LaplaceQuad, MonteCarlo, Cli)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()

"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import math

import numpy as np
import pytest

import layers
import run
import workloads
from spans import Tracer, is_wrapped
from workloads import Op

cfpp = workloads.cfpp


# -- generation ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    a = workloads.make(name).generate(7)
    b = workloads.make(name).generate(7)
    c = workloads.make(name).generate(8)
    assert a == b
    assert [op.params for op in a] != [op.params for op in c]


def _one_pass(name, seed):
    wl = workloads.make(name)
    return wl.one_pass(np.random.default_rng(seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_law_pass_covers_every_stratum(seed):
    ops = _one_pass("exact-law", seed)
    strata = {op.stratum for op in ops}
    assert len(strata) == len(ops) == len(workloads.EXACT_ALPHAS) * 2 * workloads.EXACT_X_BINS
    for op in ops:
        p = op.params
        assert p["alpha"] in workloads.EXACT_ALPHAS
        assert workloads.EXACT_X_LO <= p["x"] <= workloads.EXACT_X_HI[p["alpha"]] <= 50
        if p["intensity"]["type"] == "finite":
            assert 2 <= len(p["intensity"]["values"]) <= 6
    # every alpha and model kind in each group of ten consecutive ops
    for g in range(0, len(ops), 10):
        group = ops[g:g + 10]
        assert {op.params["alpha"] for op in group} == set(workloads.EXACT_ALPHAS)
        assert {op.params["intensity"]["type"] for op in group} == set(workloads.MODEL_KINDS)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_laplace_quad_pass_covers_every_stratum(seed):
    ops = _one_pass("laplace-quad", seed)
    assert len({op.stratum for op in ops}) == len(ops) == 15
    assert sorted(op.params["n"] for op in ops) == sorted(list(range(5)) * 3)
    alphas = sorted(op.params["alpha"] for op in ops)
    assert 0.4 <= alphas[0] < 0.44 and 0.86 < alphas[-1] <= 0.9
    assert all(0.5 <= op.params["s"] <= 2.0 for op in ops)
    for g in range(0, 15, 5):
        assert {op.params["n"] for op in ops[g:g + 5]} == set(range(5))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monte_carlo_pass_covers_every_stratum(seed):
    ops = _one_pass("monte-carlo", seed)
    cells = {(op.params["alpha"], op.params["intensity"]["type"], op.params["method"], op.params["workers"])
             for op in ops}
    assert len(cells) == len(ops) == 32
    assert {c[0] for c in cells} == set(workloads.MC_ALPHAS) and 1.0 in workloads.MC_ALPHAS
    # matched pairs: same inputs and seed, workers 1 and 2, back to back
    for a, b in zip(ops[::2], ops[1::2]):
        assert {a.params["workers"], b.params["workers"]} == {1, 2}
        assert {k: v for k, v in a.params.items() if k != "workers"} == \
               {k: v for k, v in b.params.items() if k != "workers"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_pass_covers_every_subcommand(seed):
    ops = _one_pass("cli", seed)
    commands = {op.params["argv"][0] for op in ops}
    assert commands == set(layers.CLI_COMMANDS)
    modes = {op.params["argv"][2] for op in ops if op.params["argv"][0] == "dependence"}
    assert modes == {"process", "increment", "slope"}
    workers = [int(op.params["argv"][op.params["argv"].index("--workers") + 1])
               for op in ops if op.params["argv"][0] == "simulate"]
    assert set(workers) == {1, 2}


# -- checks catch corrupted results ------------------------------------------------


def _cheap_exact_op():
    return Op("test", {"intensity": {"type": "geometric", "lambda0": 1.0, "q": 0.5},
                       "alpha": 0.7, "t": 1.0})


def test_exact_law_check_rejects_perturbed_pmf():
    wl = workloads.make("exact-law")
    op = _cheap_exact_op()
    sd, g, report = wl.execute(op)
    assert wl.check(op, (sd, g, report)) is None
    probs = sd.probs.copy()
    probs[1] += 1e-3
    bad = dataclasses.replace(sd, probs=probs)
    assert wl.check(op, (bad, g, report)) is not None
    # a pmf that hides missing mass behind a wrong truncation figure
    probs = sd.probs.copy()
    probs[2] -= 1e-3
    bad = dataclasses.replace(sd, probs=probs, truncation_mass=sd.truncation_mass)
    assert wl.check(op, (bad, g, report)) is not None


def test_laplace_check_rejects_shifted_quad_value():
    wl = workloads.make("laplace-quad")
    op = wl.generate(0)[3]
    p = op.params
    exact = cfpp.distribution.laplace_pmf(workloads._intensity(p["intensity"]), p["alpha"], p["n"], p["s"])
    assert wl.check(op, exact) is None
    assert wl.check(op, exact + 1e-5) is not None
    assert wl.check(op, math.nan) is not None


def test_laplace_quad_operation_meets_its_tolerance():
    wl = workloads.make("laplace-quad")
    op = Op("test", {"intensity": {"type": "geometric", "lambda0": 1.0, "q": 0.5},
                     "alpha": 0.8, "n": 1, "s": 2.0})
    assert wl.check(op, wl.execute(op)) is None
    assert wl.integrand_evals > 0


def test_monte_carlo_check_rejects_shifted_mean():
    wl = workloads.make("monte-carlo")
    op = wl.generate(0)[0]
    op = Op(op.stratum, dict(op.params, n_samples=20_000))
    rep = wl.execute(op)
    assert wl.check(op, rep) is None
    assert wl.check(op, dataclasses.replace(rep, sample_mean=rep.sample_mean + 10 * rep.mean_se)) is not None
    assert wl.check(op, dataclasses.replace(rep, n_samples=rep.n_samples - 1)) is not None


def test_cli_check_rejects_changed_output(tmp_path):
    wl = workloads.make("cli")
    ops = wl.generate(0)[:1]  # pmf
    wl.prepare(ops, tmp_path)
    good = wl.execute(ops[0])
    assert wl.check(ops[0], good) is None
    bad = dataclasses.replace(good, stdout=good.stdout.replace(b"0.", b"1.", 1))
    assert wl.check(ops[0], bad) is not None
    assert wl.check(ops[0], dataclasses.replace(good, returncode=3)) is not None


class _Corrupting(workloads.ExactLaw):
    """Exact-law whose pmf comes back perturbed by 1e-3."""

    def execute(self, op):
        sd, g, report = super().execute(op)
        probs = sd.probs.copy()
        probs[0] += 1e-3
        return dataclasses.replace(sd, probs=probs), g, report


def test_failures_count_toward_failed_share():
    wl = _Corrupting()
    records, _ = run.timed_loop(wl, [_cheap_exact_op()], 0.05)
    assert records and all(r.outcome == "inaccurate" for r in records)
    probe = run.run_probe(workloads.make("exact-law"))
    outcomes = [r.outcome for r in probe]
    assert outcomes.count("raised") == 2 and outcomes.count("inaccurate") == 2


def test_tail_latency_has_ten_samples_beyond_it():
    records = [run.Record(None, float(i), "ok", None) for i in range(100)]
    lat = run.latency_summary(records)
    assert lat["tail_beyond"] == 10 and lat["tail_ms"] == 89e3
    lat = run.latency_summary(records[:5])
    assert lat["tail_ms"] == 4e3 and lat["tail_beyond"] == 0


# -- tracing ------------------------------------------------------------------


def _wrapped_names():
    mods = (cfpp.special, cfpp.distribution, cfpp.simulate, cfpp.dependence, cfpp.simulate.JumpSampler)
    return [attr for mod in mods for attr, fn in vars(mod).items() if is_wrapped(fn)]


def test_restore_puts_every_original_back():
    before = cfpp.special.ml_weights, cfpp.simulate.JumpSampler.__dict__["sample"]
    tracer = Tracer()
    layers.install(tracer, cfpp)
    assert "ml_weights" in _wrapped_names() and "sample" in _wrapped_names()
    tracer.restore()
    assert _wrapped_names() == []
    assert (cfpp.special.ml_weights, cfpp.simulate.JumpSampler.__dict__["sample"]) == before


def test_traced_run_refuses_to_time_with_wrappers_left(tmp_path, monkeypatch):
    monkeypatch.setattr(Tracer, "restore", lambda self: None)
    wl = workloads.make("monte-carlo")
    try:
        with pytest.raises(RuntimeError, match="still installed"):
            run.traced_run(wl, wl.generate(0)[:2], 0.1, tmp_path)
    finally:
        monkeypatch.undo()
        # put back what the disabled restore left behind
        for mod in (cfpp.special, cfpp.distribution, cfpp.simulate, cfpp.dependence, cfpp.simulate.JumpSampler):
            for attr, fn in list(vars(mod).items()):
                if is_wrapped(fn):
                    setattr(mod, attr, fn.__perfbench_original__)
    assert _wrapped_names() == []


def test_traced_run_reports_every_layer_metric(tmp_path):
    wl = workloads.make("monte-carlo")
    _, _, metrics, _ = run.traced_run(wl, wl.generate(0)[:4], 0.2, tmp_path)
    assert list(metrics) == list(layers.METRICS)
    assert metrics["simulate.stable_draw.self_s"][0] > 0
    assert metrics["simulate.workers2_speedup"][0] > 0
    assert _wrapped_names() == []


def test_probe_stays_out_of_the_timed_operations_counters(tmp_path):
    wl = workloads.make("exact-law")
    records, probe, metrics, _ = run.traced_run(wl, [_cheap_exact_op()], 0.2, tmp_path)
    assert all(r.outcome == "ok" for r in records)
    assert [r.outcome for r in probe].count("raised") == metrics["probe.raised"][0] == 2
    assert metrics["probe.inaccurate"][0] == 2
    assert metrics["special.ml_weights.raised"][0] == 0
    assert metrics["distribution.n_max_capped"][0] == 0
    assert 0 <= metrics["distribution.truncation_mass.max"][0] <= workloads.PMF_TOL


class _FailingCli(workloads.Cli):
    """Cli whose processes are given an option cfpp.cli rejects."""

    def execute(self, op):
        return super().execute(Op(op.stratum, dict(op.params, argv=[*op.params["argv"], "--no-such-option"])))


def test_traced_cli_failure_counts_as_a_failure(tmp_path):
    wl = _FailingCli()
    records, _, metrics, _ = run.traced_run(wl, wl.generate(0)[:1], 0.2, tmp_path)
    assert records and all(r.outcome == "inaccurate" and "exit code" in r.reason for r in records)
    assert all(r.result.trace is None for r in records if r.result is not None)
    assert list(metrics) == list(layers.METRICS)
    assert metrics["cli.pmf.main_s"][0] == 0
    assert _wrapped_names() == []


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    rows = tracer.by_name()
    outer, inner = rows["outer"], rows["inner"]
    assert math.isclose(outer["self_s"] + inner["total_s"], outer["total_s"], rel_tol=1e-9)
    assert inner["self_s"] == inner["total_s"]

"""The traced benchmark's layer wrappers still find every cfpp name they wrap.

``perfbench/layers.py`` wraps cfpp functions by attribute name, and its
counters read module constants such as ``N_MAX_CEILING``.  A refactor that
drops or renames one of them breaks ``perfbench/run.py --trace 1`` without
failing any test of cfpp itself; this test runs the wrappers from the
benchmark's own files, which it only reads.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import cfpp
import cfpp.dependence
import cfpp.distribution
import cfpp.simulate
import cfpp.special
from cfpp.intensity import GeometricIntensity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_layer_wrappers_install_run_and_restore(monkeypatch):
    spans, layers = _load("spans", monkeypatch), _load("layers", monkeypatch)
    owners = (cfpp.special, cfpp.distribution, cfpp.simulate, cfpp.dependence, cfpp.simulate.JumpSampler)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        layers.install(tracer, cfpp)
        assert spans.is_wrapped(cfpp.distribution.default_n_max)
        # runs the wrapper and its N_MAX_CEILING counter
        n_max = cfpp.distribution.default_n_max(GeometricIntensity(1.0, 0.5), 0.7, 1.0)
        # the exact-law trace counts the pgf's contour calls in this span
        cfpp.distribution.pgf(GeometricIntensity(1.0, 0.5), 0.7, 1.0, 0.5)
        # the laplace-quad trace reads special.ml_weights.us_per_call from this span
        cfpp.special.ml_weights(0.6, 1.0, 4)
    finally:
        tracer.restore()
    rows = tracer.by_name()
    assert rows["distribution.default_n_max"]["calls"] == 1
    assert rows["distribution.pmf_cfpp"]["calls"] == 1
    assert rows["special.ml_three"]["calls"] == 1
    assert rows["special.ml_weights"]["calls"] == 1
    assert rows["special.ml_weights"]["self_s"] > 0.0
    assert tracer.maxima["distribution.truncation_mass.max"] <= cfpp.distribution.TAIL_TOL
    assert n_max < cfpp.distribution.N_MAX_CEILING
    assert "distribution.n_max_capped" not in tracer.counts
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in attrs.items())


def test_sampler_layers_record_their_spans(monkeypatch):
    # the monte-carlo trace reads the renewal loop, its rounds and jumps, and
    # the time-change stable and Poisson draws from these spans
    spans, layers = _load("spans", monkeypatch), _load("layers", monkeypatch)
    sim, model = cfpp.simulate, GeometricIntensity(1.0, 0.5)
    tracer = spans.Tracer()
    try:
        layers.install(tracer, cfpp)
        sim.sample_cfpp_batch(model, 0.7, 1.0, np.random.default_rng(1), 1000, sim.METHOD_RENEWAL)
        renewal = {name: dict(row) for name, row in tracer.by_name().items()}
        sim.sample_cfpp_batch(model, 0.7, 1.0, np.random.default_rng(2), 1000, sim.METHOD_TIME_CHANGE)
    finally:
        tracer.restore()
    assert renewal["simulate.renewal_loop"]["calls"] == 1
    assert renewal["simulate.waiting_time"]["calls"] >= 2
    assert renewal["simulate.jump_sums"]["calls"] >= 1
    assert "simulate.stable_draw" not in renewal and "simulate.poisson_draw" not in renewal
    rows = tracer.by_name()
    assert rows["simulate.stable_draw"]["calls"] == 1
    assert rows["simulate.poisson_draw"]["calls"] == 1
    assert rows["simulate.renewal_loop"]["calls"] == 1

"""Command-line interface: formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfpp
from cfpp import __version__
from cfpp.cli import EXIT_BAD_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION_FAILED, main
from cfpp.distribution import pmf_cfpp, var_cfpp
from cfpp.intensity import GeometricIntensity
from cfpp.special import MLParams, ml_three

_GEO = {"type": "geometric", "lambda0": 1.0, "q": 0.5}


@pytest.fixture
def geo_config(tmp_path):
    path = tmp_path / "geo.json"
    path.write_text(
        json.dumps(
            {"intensity": {"type": "geometric", "lambda0": 1.0, "q": 0.5}, "alpha": 0.7, "t": 1.0}
        )
    )
    return str(path)


@pytest.fixture
def tfpp_config(tmp_path):
    path = tmp_path / "tfpp.json"
    path.write_text(
        json.dumps({"intensity": {"type": "finite", "values": [1.5]}, "alpha": 0.6, "t": 1.0, "n_max": 6})
    )
    return str(path)


class TestPmfCommand:
    def test_csv_schema_and_values(self, geo_config, tmp_path, capsys):
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--config", geo_config, "--output", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,p,formula,alpha,t"
        exact = pmf_cfpp(GeometricIntensity(1.0, 0.5), 0.7, 1.0)
        assert len(lines) == len(exact.probs) + 1
        n, p, formula, alpha, t = lines[1].split(",")
        assert (n, formula, alpha, t) == ("0", "LambdaSum", "0.7", "1.0")
        np.testing.assert_allclose(float(p), exact.probs[0], rtol=1e-15)

    def test_tfpp_config_matches_closed_form(self, tfpp_config, capsys):
        assert main(["pmf", "--config", tfpp_config]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        x = 1.5 * 1.0**0.6
        for n, line in enumerate(lines):
            p = float(line.split(",")[1])
            closed = x**n * ml_three(MLParams(0.6, n * 0.6 + 1, n + 1), -x)
            np.testing.assert_allclose(p, closed, rtol=1e-10)

    def test_json_metadata(self, geo_config, capsys):
        assert main(["pmf", "--config", geo_config, "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == __version__
        assert doc["config"]["alpha"] == 0.7
        assert doc["config"]["intensity"]["q"] == 0.5
        assert "truncation_mass" in doc

    def test_invalid_intensity_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"intensity": {"type": "geometric", "lambda0": 1.0, "q": 1.2}}))
        assert main(["pmf", "--config", str(bad)]) == EXIT_BAD_CONFIG
        assert "q must lie in [0, 1)" in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        assert main(["pmf"]) == EXIT_BAD_CONFIG
        assert main(["pmf", "--config", "/nonexistent.json"]) == EXIT_BAD_CONFIG

    def test_numeric_domain_exits_3(self, tmp_path, capsys):
        # lambda_0 t^alpha far outside the series accuracy domain
        cfg = tmp_path / "huge.json"
        cfg.write_text(
            json.dumps({"intensity": {"type": "finite", "values": [2.0]}, "alpha": 1.0, "t": 500.0, "n_max": 4})
        )
        assert main(["pmf", "--config", str(cfg)]) == EXIT_NUMERIC
        assert "numeric error" in capsys.readouterr().err

    def test_moment_overflow_exits_3(self, tmp_path, capsys):
        # t^(r alpha) overflows for the orders r <= 4 that `moments` reports;
        # at r_max = 1 the first moment is finite but the variance overflows
        cfg = tmp_path / "far.json"
        for doc in ({"intensity": _GEO, "t": 1e150}, {"intensity": _GEO, "r_max": 1, "t": 1e200, "alpha": 1}):
            cfg.write_text(json.dumps(doc))
            assert main(["moments", "--config", str(cfg)]) == EXIT_NUMERIC
            captured = capsys.readouterr()
            assert captured.err.startswith("numeric error")
            assert captured.out == ""


class TestBadConfigFields:
    @pytest.mark.parametrize(
        "command,field,value",
        [
            ("pmf", "alpha", "abc"),
            ("pmf", "n_max", "abc"),
            ("moments", "r_max", "x"),
            ("moments", "r_max", 7),
            ("moments", "r_max", 0),
            ("moments", "t", float("inf")),
            ("pmf", "t", float("inf")),
            ("pmf", "t", float("nan")),
            ("moments", "intensity", {"type": "geometric", "lambda0": float("nan"), "q": 0.5}),
            ("pmf", "intensity", {"type": "geometric", "lambda0": float("nan"), "q": 0.5}),
            ("moments", "intensity", {"type": "finite", "values": [float("nan")]}),
            ("pmf", "intensity", {"type": "finite", "values": [float("inf"), 1.0]}),
            ("moments", "r_max", 1.7),
            ("moments", "r_max", True),
            ("pmf", "n_max", 3.9),
            ("pmf", "n_max", False),
            ("pmf", "t", True),
            ("moments", "alpha", True),
            ("pgf", "u", [0.5, True]),
            ("pmf", "intensity", {"type": "geometric", "lambda0": True, "q": 0.5}),
            ("moments", "intensity", {"type": "finite", "values": [True]}),
        ],
    )
    def test_unusable_field_exits_2(self, tmp_path, capsys, command, field, value):
        cfg = tmp_path / "bad.json"
        doc = {"intensity": {"type": "geometric", "lambda0": 1.0, "q": 0.5}, field: value}
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith("error:")


_BAD = st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e300, "x", None, [1.0]])


@st.composite
def _invocations(draw):
    """(subcommand, config, extra arguments) drawn across good and bad inputs.

    Valid intensities stay at lambda_0 <= 3 with q <= 0.9 and valid times
    at t <= 10 or t >= 1e100: in between, `simulate` may legitimately draw
    counts summing to simulate.MAX_EXPECTED_COUNT_TOTAL, which costs seconds
    and GB.
    The theta and composition pmf paths are slow oracles and are not drawn.
    """
    number = st.one_of(st.floats(0.05, 3.0), _BAD)
    intensity = st.one_of(
        st.fixed_dictionaries(
            {"type": st.just("geometric"), "lambda0": number, "q": st.one_of(st.floats(0.0, 0.9), _BAD)}
        ),
        st.fixed_dictionaries(
            {"type": st.just("finite"), "values": st.one_of(st.lists(number, max_size=4), _BAD)}
        ),
        st.sampled_from([{"type": "bogus"}, {}, "geometric", None]),
    )
    config = draw(
        st.fixed_dictionaries(
            {"intensity": intensity},
            optional={
                "alpha": st.one_of(st.floats(0.0, 1.0), _BAD),
                "t": st.one_of(st.floats(0.0, 10.0), st.floats(1e100, 1e200), _BAD),
                "r_max": st.one_of(st.integers(0, 8), _BAD),
                "n_max": st.one_of(st.integers(-1, 130), _BAD),
                "u": st.one_of(st.lists(st.one_of(st.floats(-1.5, 1.5), _BAD), max_size=3), _BAD),
            },
        )
    )
    command = draw(st.sampled_from(["pmf", "moments", "pgf", "simulate", "dependence", "validate"]))
    if command == "validate":
        return command, config, ["--mc-samples", str(draw(st.integers(0, 300)))]
    extra = ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "simulate":
        extra += [
            "--samples", str(draw(st.integers(-1, 50))),
            "--workers", str(draw(st.integers(0, 3))),
            "--method", draw(st.sampled_from(["time-change", "renewal"])),
        ]
    elif command == "dependence":
        extra += ["--mode", draw(st.sampled_from(["process", "increment", "slope"]))]
    return command, config, extra


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_invocations())
@example(("moments", {"intensity": _GEO, "r_max": 1, "t": 1e200, "alpha": 1.0}, []))
@example(("pmf", {"intensity": _GEO, "t": 1e200, "alpha": 1.0}, []))
@example(("simulate", {"intensity": _GEO, "t": 1e150, "alpha": 0.5}, ["--samples", "10"]))
@example(("validate", {}, ["--mc-samples", "200"]))
@example(("validate", {}, ["--mc-samples", "1"]))
@example(("dependence", {"intensity": dict(_GEO, lambda0=1e300), "alpha": 0.5}, []))
@example(("simulate", {"intensity": _GEO, "alpha": 1e-300}, ["--samples", "3"]))
@example(("pmf", {"intensity": dict(_GEO, lambda0=2.0, q=0.0), "alpha": 2.0**-8}, []))
@example(("pmf", {"intensity": _GEO, "n_max": math.inf}, []))
@example(("simulate", {"intensity": dict(_GEO, q=1.0 - 1e-9), "alpha": 0.7}, ["--samples", "10"]))
def test_fuzzed_invocations_exit_with_a_documented_code(tmp_path_factory, invocation):
    # 0 ok, 2 bad config, 3 numeric error; 1 only for a failed validation
    # suite.  Anything else, or an exception escaping main, is a defect.
    command, config, extra = invocation
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), *extra, "--output", str(work / "out")]
    allowed = {EXIT_OK, EXIT_BAD_CONFIG, EXIT_NUMERIC}
    if command == "validate":
        allowed.add(EXIT_VALIDATION_FAILED)
    assert main(argv) in allowed


def test_cli_import_leaves_heavy_modules_unloaded():
    # mpmath is a test oracle only, and scipy.special is imported lazily by
    # the one branch that needs it, so a fresh `cfpp` process pays for neither
    src = os.path.dirname(os.path.dirname(cfpp.__file__))
    code = "import sys, cfpp.cli; print(sorted({'mpmath', 'scipy.special'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestSimulateCommand:
    def test_byte_identical_reruns(self, geo_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--config", geo_config, "--seed", "42", "--samples", "5000", "--workers", "3"]
        assert main(argv + ["--output", str(a)]) == EXIT_OK
        assert main(argv + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_json_report_embeds_resolved_config(self, geo_config, capsys):
        argv = [
            "simulate", "--config", geo_config, "--seed", "7", "--samples", "1000",
            "--method", "renewal", "--format", "json",
        ]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 7
        assert doc["config"]["method"] == "RenewalCompound"
        assert doc["config"]["n_samples"] == 1000
        np.testing.assert_allclose(sum(doc["empirical_pmf"]), 1.0, atol=1e-12)

    def test_bad_sampler_settings_exit_2(self, geo_config, capsys):
        assert main(["simulate", "--config", geo_config, "--samples", "0"]) == EXIT_BAD_CONFIG


class TestMomentsCommand:
    def test_variance_consistent_with_pmf(self, geo_config, capsys):
        assert main(["moments", "--config", geo_config]) == EXIT_OK
        rows = dict(
            line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]
        )
        sd = pmf_cfpp(GeometricIntensity(1.0, 0.5), 0.7, 1.0)
        ns = np.arange(len(sd.probs), dtype=float)
        mean_pmf = float((ns * sd.probs).sum())
        var_pmf = float((ns**2 * sd.probs).sum()) - mean_pmf**2
        np.testing.assert_allclose(float(rows["mean"]), mean_pmf, atol=1e-6)
        np.testing.assert_allclose(float(rows["variance"]), var_pmf, atol=1e-5)
        np.testing.assert_allclose(
            float(rows["variance"]), var_cfpp(GeometricIntensity(1.0, 0.5), 0.7, 1.0), rtol=1e-12
        )


class TestPgfCommand:
    def test_endpoint_rows(self, geo_config, capsys):
        assert main(["pgf", "--config", geo_config]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "u,pgf,alpha,t"
        last = lines[-1].split(",")
        np.testing.assert_allclose(float(last[0]), 1.0)
        np.testing.assert_allclose(float(last[1]), 1.0, rtol=1e-10)


class TestDependenceCommand:
    def test_slope_mode_reports_order(self, tmp_path, capsys):
        cfg = tmp_path / "heavy.json"
        cfg.write_text(
            json.dumps({"intensity": {"type": "geometric", "lambda0": 0.5, "q": 0.9}, "alpha": 0.5})
        )
        assert main(["dependence", "--config", str(cfg), "--mode", "slope"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        slopes = {row.split(",")[0]: float(row.split(",")[3]) for row in lines[1:]}
        assert abs(slopes["process"] + 0.5) <= 0.05
        assert abs(slopes["increment"] + 1.25) <= 0.05

    def test_process_table(self, geo_config, capsys):
        assert main(
            ["dependence", "--config", geo_config, "--mode", "process", "--points", "9"]
        ) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "s,t,cov,corr,mode"
        assert len(lines) == 10
        assert lines[1].endswith("process")


class TestValidateCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "validate.json"
        assert main(["validate", "--mc-samples", "20000", "--output", str(report)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS normalization" in out
        assert "FAIL" not in out
        doc = json.loads(report.read_text())
        assert doc["config"]["mc_samples"] == 20000
        assert [c["passed"] for c in doc["checks"]] == [True] * len(out.splitlines())

    def test_few_mc_samples_pass(self, capsys):
        # --mc-samples counts per configuration; 200 is few, but the exact
        # standard errors keep an empty pmf cell from reading as a huge deviation
        assert main(["validate", "--mc-samples", "200"]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_corrupted_tolerance_fails(self, capsys):
        assert (
            main(["validate", "--mc-samples", "5000", "--tolerance-scale", "1e-6"])
            == EXIT_VALIDATION_FAILED
        )
        assert "FAIL" in capsys.readouterr().out

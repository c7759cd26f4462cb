"""Command-line front end: pmf | moments | pgf | simulate | dependence | validate.

Every run reads an intensity/parameter config (JSON), writes CSV for
tabular payloads or JSON for reports with metadata, and exits with
0 = success, 1 = validation-suite failure, 2 = bad config,
3 = numeric domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from . import dependence as dep
from . import distribution as dist
from . import intensity as intens
from . import simulate as sim
from . import validate as val
from .errors import DegenerateFitError, DomainError, NonConvergenceError

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3

_METHOD_FLAGS = {
    "time-change": sim.METHOD_TIME_CHANGE,
    "renewal": sim.METHOD_RENEWAL,
}


class ConfigError(Exception):
    pass


def _load_config(path):
    if path is None:
        raise ConfigError("this command requires --config")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _field(raw, name, default, convert):
    """Config field ``name`` (or ``default``) passed through ``convert``.

    A value the conversion rejects is a config error, not a traceback.
    """
    value = raw.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: cannot use {value!r}: {exc}") from exc


def _float_list(value):
    return [float(value)] if np.isscalar(value) else [float(v) for v in value]


def _resolve(raw):
    """Validate the common fields and build the intensity model."""
    try:
        model = _field(raw, "intensity", {}, intens.from_config)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    alpha = _field(raw, "alpha", 1.0, float)
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    t = _field(raw, "t", 1.0, float)
    if not 0 <= t < math.inf:
        raise ConfigError(f"t must be finite and nonnegative, got {t}")
    return model, alpha, t


def _emit(text, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _json_report(payload, resolved_config):
    doc = dict(payload)
    doc["version"] = __version__
    doc["config"] = resolved_config
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(args, resolved, payload, header, rows):
    """Emit ``rows`` under ``header`` as CSV, or ``payload`` as the JSON report.

    CSV cells that are strings are written as they are, numbers by ``repr``.
    """
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(c if isinstance(c, str) else repr(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_report(payload, resolved)
    _emit(text, args.output)


def _run_model_command(args):
    """Load and resolve the config, run the subcommand, write its output.

    A subcommand returns its resolved-config fields beyond the intensity and
    alpha, its JSON payload, its CSV header and its CSV rows.
    """
    raw = _load_config(args.config)
    model, alpha, t = _resolve(raw)
    fields, payload, header, rows = args.compute(args, raw, model, alpha, t)
    resolved = {"intensity": model.to_config(), "alpha": alpha, **fields}
    _write(args, resolved, payload, header, rows)
    return EXIT_OK


_PMF_ENGINES = {
    "lambda": dist.pmf_cfpp,
    "theta": dist.pmf_cfpp_theta,
    "composition": dist.pmf_cfpp_composition,
}


def cmd_pmf(args, raw, model, alpha, t):
    n_max = None if raw.get("n_max") is None else _field(raw, "n_max", None, int)
    sd = _PMF_ENGINES[args.formula](model, alpha, t, n_max)
    probs = [float(p) for p in sd.probs]
    fields = {"t": t, "n_max": sd.n_max, "formula": sd.formula}
    payload = {"probs": probs, "truncation_mass": sd.truncation_mass, "formula": sd.formula}
    rows = [(n, p, sd.formula, alpha, t) for n, p in enumerate(probs)]
    return fields, payload, ("n", "p", "formula", "alpha", "t"), rows


def cmd_moments(args, raw, model, alpha, t):
    r_max = _field(raw, "r_max", 4, int)
    if not 1 <= r_max <= dist.R_MAX:
        raise ConfigError(f"r_max must lie in 1..{dist.R_MAX}, got {r_max}")
    report = dist.moment_report(model, alpha, t, r_max)
    payload = {
        "mean": report.mean,
        "variance": report.variance,
        "raw_moments": list(report.raw_moments),
        "factorial_moments": list(report.factorial_moments),
    }
    rows = [("mean", report.mean), ("variance", report.variance)]
    rows += [(f"moment_{r}", v) for r, v in enumerate(report.raw_moments, start=1)]
    rows += [(f"factorial_moment_{r}", v) for r, v in enumerate(report.factorial_moments, start=1)]
    return {"t": t, "r_max": r_max}, payload, ("statistic", "value"), rows


def cmd_pgf(args, raw, model, alpha, t):
    u_values = _field(raw, "u", [round(0.1 * i, 1) for i in range(11)], _float_list)
    values = [(u, dist.pgf(model, alpha, t, u)) for u in u_values]
    payload = {"pgf": [{"u": u, "value": g} for u, g in values]}
    rows = [(u, g, alpha, t) for u, g in values]
    return {"t": t, "u": u_values}, payload, ("u", "pgf", "alpha", "t"), rows


def cmd_simulate(args, raw, model, alpha, t):
    try:
        cfg = sim.SamplerConfig(
            seed=args.seed,
            n_samples=args.samples,
            workers=args.workers,
            method=_METHOD_FLAGS[args.method],
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    report = sim.mc_pmf(model, alpha, t, cfg)
    fields = {
        "t": t,
        "seed": report.seed,
        "n_samples": report.n_samples,
        "workers": report.workers,
        "method": report.method,
    }
    pmf = [float(p) for p in report.empirical_pmf]
    pmf_se = [float(s) for s in report.pmf_se]
    payload = {
        "empirical_pmf": pmf,
        "pmf_se": pmf_se,
        "sample_mean": report.sample_mean,
        "mean_se": report.mean_se,
        "sample_var": report.sample_var,
        "var_se": report.var_se,
    }
    rows = [(n, p, se) for n, (p, se) in enumerate(zip(pmf, pmf_se))]
    return fields, payload, ("n", "p_hat", "se"), rows


def cmd_dependence(args, raw, model, alpha, _t):
    # the config's t plays no part: the times come from --s and the grid
    s = args.s
    fields = {
        "mode": args.mode,
        "s": s,
        "delta": args.delta,
        "t_min": args.t_min,
        "t_max": args.t_max,
        "points": args.points,
    }
    if args.mode == "slope":
        slopes = {
            "process": dep.corr_decay_exponent(model, alpha, s, args.t_min, args.t_max, args.points),
            "increment": dep.increment_corr_decay_exponent(
                model, alpha, s, args.delta, args.t_min, args.t_max, args.points
            ),
        }
        rows = [(curve, s, args.delta, slope) for curve, slope in slopes.items()]
        return fields, {"slopes": slopes}, ("curve", "s", "delta", "slope"), rows

    pairs = []
    for t in dep.geometric_grid(args.t_min, args.t_max, args.points):
        t = float(t)
        lo, hi = min(s, t), max(s, t)
        if args.mode == "process":
            cov = dep.cov_cfpp(model, alpha, lo, hi)
            corr = dep.corr_cfpp(model, alpha, lo, hi)
        else:
            cov = dep.cov_increment(model, alpha, lo, hi, args.delta)
            corr = dep.corr_increment(model, alpha, lo, hi, args.delta)
        pairs.append({"s": s, "t": t, "cov": cov, "corr": corr})
    rows = [(p["s"], p["t"], p["cov"], p["corr"], args.mode) for p in pairs]
    return fields, {"pairs": pairs}, ("s", "t", "cov", "corr", "mode"), rows


def cmd_validate(args):
    results = val.run_all(
        tolerance_scale=args.tolerance_scale,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    for r in results:
        sys.stdout.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
    if args.output:
        payload = {
            "checks": [
                {"name": r.name, "passed": bool(r.passed), "detail": r.detail}
                for r in results
            ]
        }
        resolved = {
            "tolerance_scale": args.tolerance_scale,
            "mc_samples": args.mc_samples,
            "seed": args.seed,
        }
        _emit(_json_report(payload, resolved), args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfpp",
        description="Distributions, moments, simulation, and dependence "
        "structure of convoluted (fractional) Poisson counting processes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, compute):
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--output", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=_run_model_command, compute=compute)

    p = sub.add_parser("pmf", help="exact count distribution at a fixed time")
    common(p, cmd_pmf)
    p.add_argument(
        "--formula",
        choices=("lambda", "theta", "composition"),
        default="lambda",
        help="computation path (theta/composition are slow oracle paths)",
    )

    p = sub.add_parser("moments", help="mean, variance, raw and factorial moments")
    common(p, cmd_moments)

    p = sub.add_parser("pgf", help="probability generating function values")
    common(p, cmd_pgf)

    p = sub.add_parser("simulate", help="Monte Carlo sampling of counts")
    common(p, cmd_simulate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--method", choices=tuple(_METHOD_FLAGS), default="time-change")

    p = sub.add_parser("dependence", help="covariance/correlation structure")
    common(p, cmd_dependence)
    p.add_argument("--mode", choices=("process", "increment", "slope"), default="process")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--t-min", type=float, default=1e2, dest="t_min")
    p.add_argument("--t-max", type=float, default=1e6, dest="t_max")
    p.add_argument("--points", type=int, default=17)
    p.add_argument("--delta", type=float, default=1.0)

    p = sub.add_parser("validate", help="run the built-in invariant suite")
    p.add_argument("--config", help="unused; accepted for interface uniformity")
    p.add_argument("--output", help="optional JSON report path")
    p.add_argument("--tolerance-scale", type=float, default=1.0, dest="tolerance_scale")
    p.add_argument("--mc-samples", type=int, default=20_000, dest="mc_samples")
    p.add_argument("--seed", type=int, default=99)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (DomainError, NonConvergenceError, DegenerateFitError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

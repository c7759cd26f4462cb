"""Which cfpp entry points the traced run wraps, and the per-layer metrics.

Each wrapper sits at the attribute the caller looks up at call time:

* ``cfpp.special.ml_weights``: read as ``special.ml_weights`` by the pmf
  paths and by the laplace-quad integrand;
* ``cfpp.special.ml_three``: read by ``ml_one``/``ml_two`` (the pgf path);
* ``cfpp.dependence.incomplete_beta`` and ``cfpp.dependence.cov_cfpp``:
  the names ``dependence`` imported and calls through its globals;
* ``cfpp.distribution.*`` and ``cfpp.simulate.*``: module globals the
  public functions call.

Times are seconds per operation and counts are per operation, over the
operations of the traced phase, unless the metric says otherwise.
"""

from __future__ import annotations

import statistics

SAMPLER_SPAN = {"TimeChange": "simulate.poisson_draw", "RenewalCompound": "simulate.renewal_loop"}
CLI_COMMANDS = ("pmf", "moments", "pgf", "simulate", "dependence")


def install(tracer, cfpp) -> None:
    import cfpp.dependence
    import cfpp.distribution
    import cfpp.simulate
    import cfpp.special

    special, dist, sim, dep = cfpp.special, cfpp.distribution, cfpp.simulate, cfpp.dependence

    tracer.wrap(special, "ml_weights", "special.ml_weights")
    tracer.wrap(special, "ml_three", "special.ml_three")
    tracer.wrap(dep, "incomplete_beta", "special.incomplete_beta")

    def capped(args, kwargs, n_max):
        if n_max >= dist.N_MAX_CEILING:
            tracer.count("distribution.n_max_capped")

    def truncation(args, kwargs, sd):
        tracer.record_max("distribution.truncation_mass.max", float(sd.truncation_mass))

    tracer.wrap(dist, "pmf_cfpp", "distribution.pmf_cfpp", on_call=truncation)
    tracer.wrap(dist, "jump_sum_pmf", "distribution.jump_sum_pmf")
    tracer.wrap(dist, "default_n_max", "distribution.default_n_max", on_call=capped)
    tracer.wrap(dist, "moment_report", "distribution.moment_report")

    tracer.wrap(sim, "sample_inverse_stable", "simulate.stable_draw")
    # sample_cfpp_batch(model, alpha, t, rng, size, method): its self time is
    # the Poisson draw on the TimeChange branch, the renewal loop otherwise.
    tracer.wrap(sim, "sample_cfpp_batch",
                lambda args, kwargs: SAMPLER_SPAN[args[5] if len(args) > 5 else kwargs.get("method", "TimeChange")])
    tracer.wrap(sim, "_jump_totals", "simulate.jump_sums")
    tracer.wrap(sim.JumpSampler, "sample", "simulate.jump_sums")
    tracer.wrap(sim, "ml_waiting_time", "simulate.waiting_time")
    tracer.wrap(sim, "_report_from_counts", "simulate.report")
    tracer.wrap(sim, "_all_counts", "simulate.all_counts")

    tracer.wrap(dep, "cov_cfpp", "dependence.cov_cfpp")
    tracer.wrap(dep, "fit_tail_exponent", "dependence.fit_tail_exponent")


# name -> unit, in the order they are printed.  Every workload prints all of
# them; a layer the workload never reaches reads 0.
METRICS = {
    "special.ml_weights.calls": "calls/op",
    "special.ml_weights.self_s": "s/op",
    "special.ml_weights.us_per_call": "us",
    "special.ml_weights.op_share": "share",
    "special.ml_weights.raised": "count",
    "special.ml_three.calls": "calls/op",
    "special.ml_three.self_s": "s/op",
    "special.incomplete_beta.calls": "calls/op",
    "special.incomplete_beta.self_s": "s/op",
    "distribution.pmf_cfpp.self_s": "s/op",
    "distribution.jump_sum_pmf.self_s": "s/op",
    "distribution.default_n_max.self_s": "s/op",
    "distribution.moment_report.self_s": "s/op",
    "distribution.n_max_capped": "count",
    "distribution.truncation_mass.max": "mass",
    "quad.integrand_evals": "evals/op",
    "simulate.stable_draw.self_s": "s/op",
    "simulate.poisson_draw.self_s": "s/op",
    "simulate.jump_sums.self_s": "s/op",
    "simulate.waiting_time.self_s": "s/op",
    "simulate.renewal_rounds": "rounds/op",
    "simulate.report.self_s": "s/op",
    "simulate.worker_busy_share": "share",
    "simulate.workers2_speedup": "ratio",
    "dependence.cov_cfpp.calls": "calls/op",
    "dependence.fit_tail_exponent.self_s": "s/op",
    **{f"cli.{c}.{part}": "s" for c in CLI_COMMANDS for part in ("interp_start_s", "import_s", "main_s")},
    "probe.raised": "count",
    "probe.inaccurate": "count",
    "trace.overhead_share": "share",
}


def merge(rows_list):
    """Sum several ``Tracer.by_name`` tables (the parent's and its children's)."""
    out: dict[str, dict[str, float]] = {}
    for rows in rows_list:
        for name, row in rows.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
    return out


def compute(rows, counts, maxima, ops, extra) -> dict[str, float]:
    """Per-layer metric values from merged span rows and counters.

    ``ops`` is the list of (op, latency_s) of the traced phase; ``extra``
    holds values measured outside the spans (cli timings, probe counts,
    overhead share, sampler figures).
    """
    n_ops = max(len(ops), 1)
    op_time = sum(lat for _, lat in ops) or 1.0

    def row(name):
        return rows.get(name, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})

    ml = row("special.ml_weights")
    renewal_ops = sum(1 for op, _ in ops if op.params.get("method") == "RenewalCompound")
    values = {
        "special.ml_weights.calls": ml["calls"] / n_ops,
        "special.ml_weights.self_s": ml["self_s"] / n_ops,
        "special.ml_weights.us_per_call": 1e6 * ml["self_s"] / ml["calls"] if ml["calls"] else 0.0,
        "special.ml_weights.op_share": ml["self_s"] / op_time,
        "special.ml_weights.raised": ml["raised"],
        "special.ml_three.calls": row("special.ml_three")["calls"] / n_ops,
        "special.ml_three.self_s": row("special.ml_three")["self_s"] / n_ops,
        "special.incomplete_beta.calls": row("special.incomplete_beta")["calls"] / n_ops,
        "special.incomplete_beta.self_s": row("special.incomplete_beta")["self_s"] / n_ops,
        "distribution.n_max_capped": counts.get("distribution.n_max_capped", 0),
        "distribution.truncation_mass.max": maxima.get("distribution.truncation_mass.max", 0.0),
        "quad.integrand_evals": counts.get("quad.integrand_evals", 0) / n_ops,
        "simulate.renewal_rounds": row("simulate.waiting_time")["calls"] / renewal_ops if renewal_ops else 0.0,
        "dependence.cov_cfpp.calls": row("dependence.cov_cfpp")["calls"] / n_ops,
    }
    for name in ("distribution.pmf_cfpp", "distribution.jump_sum_pmf", "distribution.default_n_max",
                 "distribution.moment_report", "simulate.stable_draw", "simulate.poisson_draw",
                 "simulate.jump_sums", "simulate.waiting_time", "simulate.report",
                 "dependence.fit_tail_exponent"):
        values[f"{name}.self_s"] = row(name)["self_s"] / n_ops
    for name in METRICS:
        values.setdefault(name, extra.get(name, 0.0))
    return {name: values[name] for name in METRICS}


def sampler_figures(tracer, traced, untraced) -> dict[str, float]:
    """Worker busy share and the workers=2 speed-up of the matched pairs.

    ``traced`` and ``untraced`` are the (op, latency_s) lists of the run's
    two halves.  Busy share, from the traced half: time the sampler spent
    drawing on worker threads divided by workers x the wall time of
    ``_all_counts``, over workers=2 operations.  Speed-up, from the
    untraced half so that no wrapper or tracer lock is inside it: summed
    latency of the workers=1 half of every complete pair over that of the
    workers=2 half.
    """
    two = {i for i, (op, _) in enumerate(traced) if op.params.get("workers") == 2}
    if not two:
        return {}
    busy = wall = 0.0
    for s in tracer.spans:
        if s.op in two and s.name in SAMPLER_SPAN.values():
            busy += s.end - s.start
        elif s.op in two and s.name == "simulate.all_counts":
            wall += 2 * (s.end - s.start)
    # The two halves of a pair share a seed and run back to back.
    one_s = two_s = 0.0
    for (a, lat_a), (b, lat_b) in zip(untraced, untraced[1:]):
        if a.params["seed"] == b.params["seed"] and a.params["workers"] == 1 and b.params["workers"] == 2:
            one_s, two_s = one_s + lat_a, two_s + lat_b
        elif a.params["seed"] == b.params["seed"] and a.params["workers"] == 2 and b.params["workers"] == 1:
            one_s, two_s = one_s + lat_b, two_s + lat_a
    return {
        "simulate.worker_busy_share": busy / wall if wall else 0.0,
        "simulate.workers2_speedup": one_s / two_s if two_s else 0.0,
    }


def cli_figures(results) -> dict[str, float]:
    """Median interpreter start, import and main time per subcommand."""
    parts: dict[str, dict[str, list[float]]] = {}
    for command, res in results:
        tr = res.trace
        cell = parts.setdefault(command, {"interp_start_s": [], "import_s": [], "main_s": []})
        cell["interp_start_s"].append(tr["started_at"] - res.spawned_at)
        cell["import_s"].append(tr["import_s"])
        cell["main_s"].append(tr["main_s"])
    return {
        f"cli.{command}.{part}": statistics.median(vals)
        for command, cell in parts.items()
        for part, vals in cell.items()
    }

"""cfpp benchmark: four workloads driven through the public API.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --headroom        # acceptance criteria vs budgets

Workloads: exact-law, laplace-quad, monte-carlo, cli (see workloads.py).
One client runs a closed loop: the next operation starts when the last one
and its check are done.  Inputs come from --seed only.  Every result is
checked.  The last line of standard output is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, op_tail_ms, ok_share, peak_rss_mb); with --trace 1 they are the
per-layer ones of layers.METRICS, from a traced half of the run followed by
an untraced half.  A fuller record, with the machine's facts, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from repo import BENCH_DIR, OUT_DIR, ROOT, child_env

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
CALIBRATION_EVERY_S = 0.25
CALIBRATION_REPEATS = 5  # calibrations whose median gives the speed before a set-up process
# Time of calibration_unit() at the reference speed: about its median on an
# Intel Xeon vCPU of a 2-core VM running Python 3.11.
CALIBRATION_REF_S = 1.5e-3


@dataclass
class Record:
    op: object
    latency_s: float  # the operation alone
    outcome: str  # "ok", "raised" or "inaccurate"
    reason: str | None
    result: object = None  # kept only for traced cli operations
    wall_s: float = 0.0  # the operation and its check
    speed: float = 1.0  # the machine's slowdown factor when it ran


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts():
    import mpmath
    import numpy
    import scipy

    cpu = None
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# the measured pieces
# ---------------------------------------------------------------------------


def measure_setup(workload, workdir):
    """Median time of fresh processes that import cfpp and warm up.

    Returns the median at the reference speed, and the raw times.
    """
    if workload.name == "cli":
        tiny = workdir / "setup.json"
        tiny.write_text(json.dumps({"intensity": {"type": "geometric", "lambda0": 1.0, "q": 0.5},
                                    "alpha": 0.7, "t": 1.0}))
        cmd = workload.setup_command(tiny)
    else:
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup", workload.name]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed = machine_speed()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=child_env(), timeout=120)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] / speed)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode(errors='replace')[-300:]}")
    return statistics.median(scaled), raw


def calibration_unit():
    """Seconds this process takes for a fixed piece of pure-Python work.

    The best of two tries, so an interrupt does not count.  On a shared
    machine the same work takes up to a third longer while neighbours are
    busy, for seconds to minutes.  No change to cfpp moves this figure.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def machine_speed():
    """Slowdown factor of the machine now: calibration time over the reference."""
    return statistics.median(calibration_unit() for _ in range(CALIBRATION_REPEATS)) / CALIBRATION_REF_S


@contextlib.contextmanager
def one_cpu(enabled):
    """Keep this process, and the processes it starts, on one CPU.

    The cli workload's operations run in child processes.  Its calibration
    runs in this process, so it describes the children only when they share
    this process's CPU; a neighbour can slow one CPU of the machine and not
    the other.  If the affinity cannot be set the run goes on unpinned.
    """
    allowed = os.sched_getaffinity(0)
    pinned = False
    if enabled and len(allowed) > 1:
        try:
            os.sched_setaffinity(0, {min(allowed)})
            pinned = True
        except OSError:
            pass
    try:
        yield
    finally:
        if pinned:
            os.sched_setaffinity(0, allowed)


def run_op(workload, op, tracer=None, index=None):
    """Execute and check one operation; the latency covers execute only."""
    result = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.execute(op)
        else:
            tracer.op = index
            with tracer.span("op") as root:
                tracer.root = root.sid
                result = workload.execute(op)
    except Exception as exc:  # a raising operation is a counted failure, not a crash
        latency = time.perf_counter() - t0
        return Record(op, latency, "raised", f"{type(exc).__name__}: {exc}", wall_s=latency)
    finally:
        if tracer is not None:
            tracer.op = tracer.root = None
    latency = time.perf_counter() - t0
    reason = workload.check(op, result)
    keep = result if tracer is not None and workload.name == "cli" else None
    return Record(op, latency, "ok" if reason is None else "inaccurate", reason, keep,
                  time.perf_counter() - t0)


def timed_loop(workload, ops, seconds, tracer=None):
    """Closed loop over the ops, cycling, until `seconds` have passed.

    Between operations, every CALIBRATION_EVERY_S, the loop times
    calibration_unit(); each record carries the median of the last
    CALIBRATION_REPEATS of those over the reference as its speed.
    """
    records = []
    recent = []
    start = time.perf_counter()
    calibrated_at = -float("inf")
    while True:
        if time.perf_counter() - calibrated_at >= CALIBRATION_EVERY_S:
            recent = (recent + [calibration_unit()])[-CALIBRATION_REPEATS:]
            speed = statistics.median(recent) / CALIBRATION_REF_S
            calibrated_at = time.perf_counter()
        op = ops[len(records) % len(ops)]
        record = run_op(workload, op, tracer, len(records))
        record.speed = speed
        records.append(record)
        if time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start


def run_probe(workload):
    """The workload's domain probe, untraced and outside the timed loop."""
    return [run_op(workload, op) for op in workload.probe_ops()] if hasattr(workload, "probe_ops") else []


def latency_summary(records, normalize=True):
    """Median, and the highest order statistic with TAIL_BEYOND samples above it.

    Each latency is divided by the machine's slowdown factor when it ran,
    unless ``normalize`` is false.  With too few samples for the tail, it
    is the maximum.
    """
    lat = sorted(r.latency_s / (r.speed if normalize else 1.0) for r in records)
    n = len(lat)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "p50_ms": 1e3 * statistics.median(lat),
        "tail_ms": 1e3 * lat[k],
        "tail_percentile": 100.0 * k / (n - 1) if n > 1 else 100.0,
        "tail_beyond": n - 1 - k,
        "samples": n,
    }


def throughput(records, window, normalize=True):
    """Correct operations per second: the median over windows of `window`
    consecutive operations, each window one pass of the design.

    Each operation's time, with its check, is divided by the machine's
    slowdown factor when it ran, unless ``normalize`` is false.  The
    median keeps the pass that filled caches, or met a slow spell, out of
    the figure.  With fewer than three windows it is the rate over all
    operations.
    """
    wins = [records[i:i + window] for i in range(0, len(records) - window + 1, window)]
    if len(wins) < 3:
        wins = [records]
    return statistics.median(
        sum(r.outcome == "ok" for r in w) / sum(r.wall_s / (r.speed if normalize else 1.0) for r in w)
        for w in wins
    )


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def untraced_run(workload, ops, seconds, workdir):
    setup_s, setup_all = measure_setup(workload, workdir)
    workload.warmup()
    workload.prepare(ops, workdir)
    records, elapsed = timed_loop(workload, ops, seconds)
    window = max(len(ops) // workload.passes, 1)  # one pass
    rss = peak_rss_mb(workload)
    probe = run_probe(workload)
    ok = sum(r.outcome == "ok" for r in records)
    lat = latency_summary(records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (throughput(records, window), "1/s"),
        "op_p50_ms": (lat["p50_ms"], "ms"),
        "op_tail_ms": (lat["tail_ms"], "ms"),
        "ok_share": (ok / len(records), "share"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {
        "setup_raw_s": setup_all,
        "loop_s": elapsed,
        "latency": lat,
        "raw_latency": latency_summary(records, normalize=False),
        "raw_ops_per_s": throughput(records, window, normalize=False),
        "loop_ops_per_s": ok / elapsed,
        "speed": statistics.median(r.speed for r in records),
    }
    return records, probe, metrics, details


def traced_run(workload, ops, seconds, workdir):
    import layers
    from spans import Tracer, is_wrapped

    import cfpp

    workload.warmup()
    workload.prepare(ops, workdir)
    tracer = Tracer()
    evals_before = getattr(workload, "integrand_evals", 0)
    workload.traced = True
    layers.install(tracer, cfpp)
    try:
        traced, traced_s = timed_loop(workload, ops, seconds / 2, tracer)
    finally:
        tracer.restore()
        workload.traced = False
    left = [f"{mod.__name__}.{attr}" for mod in (cfpp.special, cfpp.distribution, cfpp.simulate,
                                                  cfpp.dependence, cfpp.simulate.JumpSampler)
            for attr, fn in vars(mod).items() if is_wrapped(fn)]
    if left:
        raise RuntimeError(f"tracing wrappers still installed before the untraced half: {left}")
    tracer.count("quad.integrand_evals", getattr(workload, "integrand_evals", 0) - evals_before)
    probe = run_probe(workload)
    untraced, untraced_s = timed_loop(workload, ops, seconds / 2)

    # Spans and counters of the traced operations, with those of the cli
    # children that exited 0; a failed child leaves no trace and counts
    # only as a failure.
    timed = [(r.op, r.latency_s) for r in traced]
    cli_runs = [(r.op.params["argv"][0], r.result) for r in traced
                if r.outcome == "ok" and r.result is not None]
    rows = layers.merge([tracer.by_name(lambda s: s.op is not None and s.name != "op")]
                        + [res.trace["rows"] for _, res in cli_runs])
    counts = dict(tracer.counts)
    maxima = dict(tracer.maxima)
    for _, res in cli_runs:
        for k, v in res.trace["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in res.trace["maxima"].items():
            maxima[k] = max(maxima.get(k, v), v)
    window = max(len(ops) // workload.passes, 1)  # one pass
    ok_traced = throughput(traced, window)
    ok_untraced = throughput(untraced, window)
    extra = {
        **layers.sampler_figures(tracer, timed, [(r.op, r.latency_s) for r in untraced]),
        **layers.cli_figures(cli_runs),
        "probe.raised": sum(r.outcome == "raised" for r in probe),
        "probe.inaccurate": sum(r.outcome == "inaccurate" for r in probe),
        "trace.overhead_share": (ok_untraced - ok_traced) / ok_untraced if ok_untraced else 0.0,
    }
    values = layers.compute(rows, counts, maxima, timed, extra)
    metrics = {name: (values[name], unit) for name, unit in layers.METRICS.items()}
    details = {"traced_ops": len(traced), "traced_s": traced_s, "untraced_ops": len(untraced),
               "untraced_s": untraced_s, "spans": len(tracer.spans)}
    return traced + untraced, probe, metrics, details


def run_workload(name, seed, seconds, trace):
    import workloads

    workload = workloads.make(name)
    ops = workload.generate(seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = traced_run if trace else untraced_run
        with one_cpu(workload.name == "cli"):
            records, probe, metrics, details = run(workload, ops, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.outcome != "ok"]
    facts = machine_facts()
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": facts,
        "attempted": len(records), "failed": len(failed),
        "raised": sum(r.outcome == "raised" for r in failed),
        "inaccurate": sum(r.outcome == "inaccurate" for r in failed),
        "failures": [{"stratum": r.op.stratum, "outcome": r.outcome, "reason": r.reason} for r in failed[:20]],
        "domain_probe": [{"input": r.op.stratum, "outcome": r.outcome, "reason": r.reason,
                          "latency_s": r.latency_s} for r in probe],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"machine: {json.dumps(facts)}")
    print(f"{name} (seed {seed}, {'traced' if trace else 'untraced'}): {len(records)} operations of "
          f"{workload.op_label}; {len(failed)} failed "
          f"({report['raised']} raised, {report['inaccurate']} inaccurate); "
          f"failed_share {len(failed) / len(records):.4g}")
    for r in failed[:5]:
        print(f"  failed: {r.op.stratum}: {r.outcome}: {r.reason}")
    if "latency" in details:
        lat, raw = details["latency"], details["raw_latency"]
        print(f"  op_tail_ms is p{lat['tail_percentile']:.1f} of {lat['samples']} samples "
              f"({lat['tail_beyond']} beyond it)")
        print(f"  wall clock, before dividing by the machine's slowdown factor "
              f"(median {details['speed']:.3f}): ops_per_s {details['raw_ops_per_s']:.6g}, "
              f"op_p50_ms {raw['p50_ms']:.6g}, op_tail_ms {raw['tail_ms']:.6g}, "
              f"setup_s {statistics.median(details['setup_raw_s']):.6g}")
    for r in probe:
        print(f"  domain probe {r.op.stratum}: {r.outcome}" + (f" ({r.reason})" if r.reason else ""))
    for k, (v, u) in metrics.items():
        print(f"  {k:<40} {v:.6g} {u}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# reports that are not workloads
# ---------------------------------------------------------------------------

ACCEPTANCE_LINE = re.compile(r"ACCEPTANCE (\d+) PASS ([^:]+):.*\[([\d.]+)s / ([\d.]+)s\]")
HEADROOM_TARGET = 2.0  # ROADMAP: each criterion's budget at least 2x its elapsed time


def headroom():
    """Run the acceptance criteria read-only and report budget / elapsed."""
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(child_env(), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "-s",
         "-p", "no:cacheprovider", "--basetemp", str(OUT_DIR / "pytest-tmp")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    rows = []
    for m in ACCEPTANCE_LINE.finditer(proc.stdout):
        number, name, elapsed, budget = int(m[1]), m[2], float(m[3]), float(m[4])
        ratio = budget / elapsed if elapsed > 0 else float("inf")
        rows.append({"criterion": number, "name": name, "elapsed_s": elapsed, "budget_s": budget,
                     "headroom": ratio, "meets_2x": ratio >= HEADROOM_TARGET})
    print(f"machine: {json.dumps(machine_facts())}")
    for r in rows:
        print(f"criterion {r['criterion']:02d} {r['name']:<32} {r['elapsed_s']:7.2f}s / "
              f"{r['budget_s']:5.1f}s  headroom {r['headroom']:6.1f}x"
              f"{'' if r['meets_2x'] else '  < 2x target'}")
    shutil.rmtree(OUT_DIR / "pytest-tmp", ignore_errors=True)
    if len(rows) != 12 or proc.returncode != 0:
        print(f"expected 12 PASS lines, found {len(rows)}; pytest exit {proc.returncode}", file=sys.stderr)
        print(proc.stdout[-2000:], file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--headroom", action="store_true", help="acceptance budget headroom report")
    args = parser.parse_args(argv)

    from repo import require_cfpp

    require_cfpp()  # exits 2, printing no result, when the sources are missing
    if args.headroom:
        return headroom()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

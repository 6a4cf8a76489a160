"""Benchmark of the semifd CLI on seeded config streams.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monoids --seed 1 --seconds 45 --trace 0

One client runs jobs one after another (a closed loop) in this process: each
job writes a config file, calls ``semifd.cli.main`` on it and reads the report
file back. Rounds of the workload's fixed slot list run until ``--seconds``
have passed; the round in progress is finished, so every run has the same
job mix. Every report is checked (see checks.py).

``--trace 0`` prints the end-to-end metrics, each as ``<workload>/<metric>``:
jobs_per_s (certified share of jobs x slots / summed slot times) and
job_p50_s (median slot time), where a slot's time is the median wall time of
its jobs over the run; certified_frac (certified jobs / jobs attempted);
peak_rss_mb (this process's ru_maxrss); setup_s (median of several fresh
interpreters to import semifd.cli and generate the config stream).
Neighbours on the shared host slow a job by up to 2x for spells of a
fraction of a second to a few seconds. A slot's median ignores spells that
hit fewer than half of its jobs, and it repeats across runs where a
fastest-of, which needs one job to miss every spell, does not.
``--trace 1`` runs every job twice, untraced and traced (see spans.py), and
prints the per-layer metrics. The last line of output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# Pin BLAS and OpenMP pools before numpy can load: with two threads on a
# shared 2-vCPU host, per-job times spread far more than with one.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 12
CALIBRATION_LOOPS = 2_000_000
GOLDEN_SEED = 0


# -- host diagnostics (printed only; never used to drop, rescale or repeat) ----


def calibrate() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i % 7
    return time.perf_counter() - t0


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks)) if len(ticks) == 8 else None


# -- set-up -----------------------------------------------------------------------


def time_setup(cmd) -> float:
    """Seconds from starting a fresh interpreter on probe.py until it has
    imported semifd.cli and generated the config stream."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed with status %s" % proc.returncode)
    return elapsed


# -- jobs -------------------------------------------------------------------------


def run_job(cli, cfg_path: str, out_path: str, tracer=None):
    """(status, seconds, report) of one cli.main call; status is the exit
    code, or the exception's class name if cli.main raised."""
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = ["--config", cfg_path, "--out", out_path]
    gc.collect()
    t0 = time.perf_counter()
    try:
        status = cli.main(argv) if tracer is None else tracer.call(spans.ROOT, cli.main, argv)
    except Exception as exc:  # a traceback is a failed job, not a failed run
        status = type(exc).__name__
    elapsed = time.perf_counter() - t0
    report = None
    if status in (0, 1) and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
    return status, elapsed, report


def load_golden(workload: str, seed: int) -> list:
    if seed != GOLDEN_SEED:
        return []
    with open(os.path.join(HERE, "golden", workload + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def run_stream(cli, workload, seed, seconds, work, tracer=None, between_jobs=None):
    """Run whole rounds until ``seconds`` of them have passed; one dict per
    job. ``between_jobs`` is called after each job with the seconds run so
    far, outside the clock."""
    golden = load_golden(workload, seed)
    cfg_path = os.path.join(work, "config.json")
    out_path = os.path.join(work, "report.json")
    jobs = []
    start = time.perf_counter()
    for batch in workloads.stream(workload, seed):
        for slot, (cfg, meta) in enumerate(batch):
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            expect = None
            problems = []
            if len(jobs) < len(golden):
                cfg_digest, expect = golden[len(jobs)]
                if checks.digest(cfg) != cfg_digest:
                    problems.append(("golden:stale-config", True))
            job = {"slot": slot, "problems": problems}
            # A traced run repeats each job; alternate which pass goes first
            # so warm-up effects cancel out of trace.overhead_frac.
            passes = (False,) if tracer is None else ((False, True), (True, False))[len(jobs) % 2]
            for traced in passes:
                if traced:
                    tracer.job = len(jobs)
                    tracer.install()
                try:
                    status, elapsed, report = run_job(cli, cfg_path, out_path, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                job["traced_s" if traced else "s"] = elapsed
                for problem in checks.check_job(cfg, meta, status, report, expect):
                    if problem not in problems:
                        problems.append(problem)
            jobs.append(job)
            if between_jobs is not None:
                t0 = time.perf_counter()
                between_jobs(t0 - start)
                start += time.perf_counter() - t0
        if time.perf_counter() - start >= seconds:
            return jobs


# -- metrics ----------------------------------------------------------------------


def median_per_slot(jobs) -> dict:
    """Each slot's median job time over the run."""
    times: dict[int, list] = {}
    for j in jobs:
        times.setdefault(j["slot"], []).append(j["s"])
    return {slot: statistics.median(t) for slot, t in times.items()}


def end_to_end(jobs, setup) -> dict:
    slot_s = median_per_slot(jobs)
    certified = sum(1 for j in jobs if not j["problems"])
    return {
        "jobs_per_s": (certified / len(jobs) * len(slot_s) / sum(slot_s.values()), "1/s"),
        "job_p50_s": (statistics.median(slot_s.values()), "s"),
        "certified_frac": (certified / len(jobs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(jobs, tracer) -> dict:
    summary = tracer.summary()
    self_s, calls, job_s = summary["self_s"], summary["calls"], summary["job_s"]
    out = {}
    for span in spans.BOUNDARIES:
        out[span + ".self_s"] = (self_s.get(span, 0.0), "s")
        out[span + ".share"] = (self_s.get(span, 0.0) / job_s, "ratio")
        if span in spans.CALL_COUNTS:
            out[span + ".calls"] = (calls.get(span, 0), "count")
    for layer in spans.LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[layer + ".share"] = (total / job_s, "ratio")
    out[spans.ROOT + ".self_s"] = (self_s.get(spans.ROOT, 0.0), "s")
    out[spans.ROOT + ".share"] = (self_s.get(spans.ROOT, 0.0) / job_s, "ratio")
    for counter, _ in spans.HOOKS.values():
        out[counter] = (tracer.counters.get(counter, 0), "count")
    norms = calls.get("funcalg.multiplier_norm_lower", 0)
    nested = tracer.nested_calls("funcalg.fock_basis", "funcalg.multiplier_norm_lower")
    out["funcalg.fock_basis.calls_per_norm"] = (nested / norms if norms else 0.0, "ratio")
    failed = Counter(r[6:] for j in jobs for r, _ in j["problems"] if r.startswith("check:"))
    for name in checks.CHECK_NAMES:
        out["cli.checks_failed." + name] = (failed.get(name, 0), "count")
    untraced = sum(j["s"] for j in jobs)
    out["trace.overhead_frac"] = (sum(j["traced_s"] for j in jobs) / untraced - 1.0, "ratio")
    out["trace.job_s"] = (job_s, "s")
    out["trace.missing"] = (len(tracer.missing), "count")
    return out


def write_spans(tracer, workload, seed):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}, fh)
    return path


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semifd", "cli.py")):
        print("perfbench: no package source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # Set-up is timed in fresh interpreters, after one untimed import that
    # warms the page cache; the samples are spread evenly over the run.
    probe = [sys.executable, os.path.join(HERE, "probe.py"), args.workload, str(args.seed)]
    setup: list[float] = []
    if not args.trace:
        subprocess.run(probe, check=True, stdout=subprocess.DEVNULL, timeout=120)

    def between_jobs(elapsed):
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(time_setup(probe))

    from semifd import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("perfbench: imported semifd from %s, not %s" % (cli.__file__, SRC), file=sys.stderr)
        return 2

    work = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    calib_before, ticks_before = calibrate(), cpu_ticks()
    try:
        jobs = run_stream(cli, args.workload, args.seed, args.seconds, work, tracer,
                          None if args.trace else between_jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_after, ticks_after = calibrate(), cpu_ticks()
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(time_setup(probe))

    w = args.workload
    certified = sum(1 for j in jobs if not j["problems"])
    print(
        "perfbench %s seed=%d seconds=%g trace=%d jobs=%d certified=%d python=%s %s"
        % (w, args.seed, args.seconds, args.trace, len(jobs), certified, sys.version.split()[0],
           " ".join("%s=%s" % (v, os.environ[v]) for v in THREAD_VARS))
    )
    if args.trace:
        metrics = per_layer(jobs, tracer)
        print("spans written to %s" % write_spans(tracer, w, args.seed))
        for name in tracer.missing:
            print("missing boundary: %s" % name)
    else:
        metrics = end_to_end(jobs, setup)
        slot_s = median_per_slot(jobs)
        print("median s per slot: %s" % " ".join("%.4f" % slot_s[k] for k in sorted(slot_s)))
        print("set-up samples: %s s" % " ".join("%.4f" % s for s in setup))
    times = [j["s"] for j in jobs]
    rounds = len(jobs) // len(workloads.SLOTS[w])
    notes = {
        "jobs_per_s": "(median of %d rounds per slot; all %d jobs: %d certified / %.3f s = %.4g 1/s)"
        % (rounds, len(jobs), certified, sum(times), certified / sum(times)),
        "job_p50_s": "(median of %d rounds per slot; median of all %d jobs: %.4g s)"
        % (rounds, len(jobs), statistics.median(times)),
        "certified_frac": "(%d of %d jobs failed)" % (len(jobs) - certified, len(jobs)),
        "setup_s": "(median of %d fresh set-ups; fastest %.4g s)" % (len(setup), min(setup) if setup else 0.0),
    }
    for name, (value, unit) in metrics.items():
        print(("%s/%s = %.6g %s %s" % (w, name, value, unit, notes.get(name, ""))).rstrip())
    reasons = Counter(r for j in jobs for r, _ in j["problems"])
    for reason, count in sorted(reasons.items()):
        print("failure %s: %d of %d jobs" % (reason, count, len(jobs)))
    steal = "n/a"
    if ticks_before and ticks_after:
        d_steal, d_total = (a - b for a, b in zip(ticks_after, ticks_before))
        steal = "%d ticks (%.2f%% of all CPU ticks)" % (d_steal, 100.0 * d_steal / max(d_total, 1))
    print("host: calibration %.4f s before, %.4f s after; steal %s" % (calib_before, calib_after, steal))

    fatal = any(f for j in jobs for _, f in j["problems"])
    result = {
        "correct": not fatal,
        "attempted": len(jobs),
        "failed": len(jobs) - certified,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

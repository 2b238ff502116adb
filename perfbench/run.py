"""Benchmark of the mfe command line: the finite, limit and Monte-Carlo
routes, timed per CLI subcommand and traced per module.

    python3 perfbench/run.py --workload finite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/mfe`.  Workloads and
their recorded values are in `perfbench/workloads.json`.

Load model: a closed loop with one client.  Each job is a fresh
`python -m mfe.cli ...` process and the next starts only after it ends,
so at most two processes run at once, this harness and one job, and
both run on the same core (see below).

--trace 0 times the jobs as a user sees them and prints the end-to-end
metrics: `setup_s` (fresh interpreter to `import mfe.cli`, median of
several), `batch_s` (the whole job batch) and `peak_rss_mb` (largest
max-RSS of any job).  A run does --seconds // batch_budget_s batches,
at least one, with the workload's batch_budget_s from workloads.json;
the count depends on no measurement, so two versions of mfe are
measured on the same work.  A job's time is its median over the
batches.

Times are CPU times scaled to a reference CPU speed.  A shared virtual
machine shares its cores with other tenants, and a core's speed drifts
by up to a factor of two over seconds to tens of seconds, which no run
short enough to repeat can average out.  So the harness pins itself, and with
it every job, to one core, and while a job runs it times a fixed
pure-Python speed probe on that core every SPEED_PROBE_GAP_S.  A job's
time is its CPU time (user + system, from os.wait4), which leaves out
the probes and equals its wall time on a core of its own, multiplied by
(REF_SPEED_PROBE_S / median probe time) ** SPEED_ELASTICITY.  The
exponent is below 1 because the jobs slow down less than the probe
does, presumably as part of their time goes to memory stalls, which a
slower core does not lengthen.  Over repeated jobs, log job time
against log probe time has slopes from 0.15 to 0.65 on the exact
routes and near 1 on the Monte-Carlo ones; 0.65 gave the smallest
largest spread over the four workloads.  A change to mfe does not
change the probe, so it moves the scaled times as it moves the raw
ones.  The raw wall times are printed too, as `setup_s (raw)` and
`wall_s (raw)`.

--trace 1 runs the batch twice in-process (`inproc.py`), once plain and
once with every public function of every mfe module wrapped, and prints
the per-layer metrics: counts and shares of self time per function and
module, and the tracing overhead (the two runs' difference, each scaled
to the reference speed).

Every output is checked (`common.check_output`).  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
Earlier lines are the same metrics for people, with the per-subcommand
times and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import common

SETUP_REPEATS = 5
JOB_TIMEOUT_S = 150
SPEED_PROBE_GAP_S = 0.05
REF_SPEED_PROBE_S = 0.0025
SPEED_ELASTICITY = 0.65


def speed_probe():
    """Seconds of a fixed task of about 2 ms: Fraction arithmetic and
    dict stores, the kind of work the exact routes do."""
    t0 = time.perf_counter()
    x, d = Fraction(0), {}
    for j in range(1, 600):
        x += Fraction(j % 7, j % 11 + 1)
        d[j, j % 5] = x
    return time.perf_counter() - t0


class Finished:
    """Exit code, output, wall time, speed factor, speed-scaled CPU time
    and max-RSS of one child process."""

    def __init__(self, rc, out, err, wall_s, cpu_s, speed, maxrss_mb):
        self.rc, self.out, self.err = rc, out, err
        self.wall_s, self.speed = wall_s, speed
        self.scaled_s = cpu_s * speed
        self.maxrss_mb = maxrss_mb
        self.errors = []


def pin_to_one_core():
    """Keep this process, and the jobs it starts, on its first allowed
    core, so that the probe times the core the job runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn(argv, timeout=JOB_TIMEOUT_S):
    """Run argv to completion, probing the CPU speed while it runs.

    A waiter thread reaps the child with os.wait4, which gives its
    max-RSS, and notes when it ended; the calling thread probes until
    then.
    """
    probes = [speed_probe()]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=common.job_env(),
                            cwd=common.ROOT)
    out, err, ended = [], [], []

    def reap():
        ended.append(os.wait4(proc.pid, 0))
        ended.append(time.perf_counter())

    threads = [threading.Thread(target=lambda: out.append(
                   proc.stdout.read())),
               threading.Thread(target=lambda: err.append(
                   proc.stderr.read())),
               threading.Thread(target=reap)]
    for t in threads:
        t.start()
    try:
        while threads[-1].is_alive():
            if time.perf_counter() - t0 > timeout:
                proc.kill()
            probes.append(speed_probe())
            threads[-1].join(SPEED_PROBE_GAP_S)
    finally:
        if threads[-1].is_alive():
            proc.kill()
        for t in threads:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    (_, status, usage), t1 = ended
    proc.returncode = os.waitstatus_to_exitcode(status)
    speed = (REF_SPEED_PROBE_S
             / statistics.median(probes)) ** SPEED_ELASTICITY
    # the job's own CPU time leaves out the probes that shared its core
    return Finished(proc.returncode, out[0].decode(), err[0].decode(),
                    t1 - t0, usage.ru_utime + usage.ru_stime, speed,
                    usage.ru_maxrss / 1024.0)


def import_split():
    done = spawn([sys.executable, "-X", "importtime", "-c",
                  "import mfe.cli"])
    if done.rc != 0:
        raise RuntimeError("import mfe.cli failed:\n" + done.err)
    return common.parse_importtime(done.err)


def setup_seconds():
    """Medians of the raw and scaled wall times of fresh interpreters
    that only import mfe.cli."""
    runs = []
    for _ in range(SETUP_REPEATS):
        done = spawn([sys.executable, "-c", "import mfe.cli"])
        if done.rc != 0:
            raise RuntimeError("import mfe.cli failed:\n" + done.err)
        runs.append(done)
    return (statistics.median([r.wall_s for r in runs]),
            statistics.median([r.scaled_s for r in runs]))


def run_job(job):
    done = spawn([sys.executable, "-m", "mfe.cli"] + job["argv"])
    done.errors = common.check_output(job, done.rc, done.out, done.err)
    return done


def timed(jobs, n_batches, report):
    """n_batches job batches through the CLI.

    Returns the end-to-end metrics, the per-subcommand times, the raw
    (unscaled) batch time, and the jobs attempted and failed.
    """
    batches = [[run_job(job) for job in jobs] for _ in range(n_batches)]
    runs = [(i, r) for b in batches for i, r in enumerate(b)]
    # determinism probe: a later batch repeats every job with the same
    # arguments and seed; with one batch, the probe job runs again
    if n_batches == 1:
        probe_at = next(i for i, job in enumerate(jobs) if job["probe"])
        runs.append((probe_at, run_job(jobs[probe_at])))
    for i, r in runs[len(jobs):]:
        if r.out != batches[0][i].out:
            r.errors.append("stdout differs between two identical runs")
    failed = sum(1 for _, r in runs if r.errors)
    for i, r in runs:
        for e in r.errors:
            report("FAIL %s: %s" % (" ".join(jobs[i]["argv"]), e))

    def job_median(i, attr="scaled_s"):
        return statistics.median([getattr(b[i], attr) for b in batches])

    metrics = {
        "batch_s": sum(job_median(i) for i in range(len(jobs))),
        "peak_rss_mb": max(r.maxrss_mb for _, r in runs),
    }
    per_sub = {}
    for sub in common.SUBCOMMANDS:
        mine = [i for i, job in enumerate(jobs) if job["subcommand"] == sub]
        if mine:
            per_sub[sub + "_s"] = sum(job_median(i) for i in mine)
    raw_s = sum(job_median(i, "wall_s") for i in range(len(jobs)))
    report("batches %d, jobs per batch %d" % (len(batches), len(jobs)))
    return metrics, per_sub, raw_s, len(runs), failed


def traced(args, report):
    """Plain and traced in-process runs; returns (metrics, attempted,
    failed)."""
    runs, speed = {}, {}
    for mode in ("plain", "traced"):
        done = spawn([sys.executable, str(common.HERE / "inproc.py"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--mode", mode]
                     + (["--probe-only"] if args.probe_only else []))
        if done.rc != 0 or not done.out.strip():
            raise RuntimeError("in-process %s run failed:\n%s"
                               % (mode, done.err))
        runs[mode] = json.loads(done.out.strip().splitlines()[-1])
        speed[mode] = done.speed
        for e in runs[mode]["errors"]:
            report("FAIL (%s) %s" % (mode, e))
    metrics = dict(runs["traced"]["layers"])
    metrics["trace.plain_wall_s"] = runs["plain"]["wall_s"]
    # the two runs are scaled to the reference speed like the jobs, or
    # the machine's drift between them swamps the overhead
    metrics["trace.overhead_s"] = (
        runs["traced"]["wall_s"] * speed["traced"]
        - runs["plain"]["wall_s"] * speed["plain"])
    for e in runs["traced"]["hook_errors"]:
        report("counter hook failed, its metrics are incomplete: %s" % e)
    self_s = runs["traced"]["self_s"]
    for name, value in sorted(self_s.items()):
        report("%-44s %14.6g s self" % (name, value))
    if metrics["rmt.expm_matrices"]:
        report("%-44s %14.6g us" % ("rmt.expm per matrix", 1e6 * self_s[
            "rmt.expm"] / metrics["rmt.expm_matrices"]))
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    return metrics, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-only", action="store_true",
                    help="run only each workload's probe job (self-test)")
    args = ap.parse_args(argv)

    if not common.program_present():
        print("error: no src/mfe under %s; run from a checkout of the "
              "repository" % common.ROOT, file=sys.stderr)
        return 2
    spec = common.load_spec()
    if args.workload not in spec["workloads"]:
        print("error: unknown workload %r (have %s)" % (
            args.workload, ", ".join(spec["workloads"])), file=sys.stderr)
        return 2
    bench = common.load_benchmark()
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    jobs = common.build_jobs(spec, args.workload, args.seed,
                             args.probe_only)

    def report(text):
        print("%-8s %s" % (args.workload, text), flush=True)

    def show(name, value, unit):
        report("%-44s %14.6g %s" % (name, value, unit))

    pin_to_one_core()
    imports = import_split()
    if args.trace:
        metrics, attempted, failed = traced(args, report)
        metrics.update(imports)
        names = [m["name"] for m in bench["per_layer"]]
    else:
        setup_raw, setup_s = setup_seconds()
        n_batches = max(1, int(args.seconds // spec["workloads"][
            args.workload]["batch_budget_s"]))
        metrics, per_sub, raw_s, attempted, failed = timed(
            jobs, n_batches, report)
        metrics["setup_s"] = setup_s
        names = [m["name"] for m in bench["end_to_end"]]
        for name, value in sorted(per_sub.items()):
            show(name, value, "s")
        show("setup_s (raw)", setup_raw, "s")
        show("wall_s (raw)", raw_s, "s")
        for name, value in sorted(imports.items()):
            show(name, value, "s")
    report("error_rate %d/%d = %g" % (failed, attempted,
                                      failed / attempted))
    # a function a later version removes did no work: its counts are 0
    values = {name: metrics.get(name, 0) for name in names}
    for name in names:
        show(name, values[name], units[name])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

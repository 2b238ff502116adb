"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs `run.py --probe-only` (each workload's probe job, one of its
smallest) with --trace 0 and --trace 1, and checks that every metric
named in BENCHMARK.json is printed, by name and with its unit, both in
the lines for people and in the final JSON line.  Then checks that the
output check catches a deliberately wrong recorded value, a NaN in the
output, a traceback on stderr and a failing exit code, for the probe
job of every workload.  Exits 1 and lists the problems if any.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction

import common
import run

problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)


def check_printed(workload, trace, bench):
    kind = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--probe-only"], capture_output=True, text=True,
        cwd=common.ROOT, timeout=170)
    tag = "%s --trace %d" % (workload, trace)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and lines, "%s: exit %d, stderr %s"
           % (tag, proc.returncode, proc.stderr[-500:]))
    if not lines:
        return
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           "%s: result keys %s" % (tag, sorted(result)))
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, "%s: %r" % (tag, {
               k: result[k] for k in ("correct", "attempted", "failed")}))
    wanted = {m["name"]: m["unit"] for m in bench[kind]}
    expect(sorted(result["metrics"]) == sorted(wanted),
           "%s: metric names differ from BENCHMARK.json" % tag)
    for name, unit in wanted.items():
        got = result["metrics"].get(name, {})
        expect(got.get("unit") == unit and isinstance(got.get("value"),
                                                      (int, float)),
               "%s: %s printed as %r" % (tag, name, got))
        expect(any(line.split()[1:2] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]),
               "%s: no line shows %s with unit %s" % (tag, name, unit))
    if not trace:
        subs = {j["subcommand"] for j in common.build_jobs(
            common.load_spec(), workload, 1, probe_only=True)}
        for sub in subs:
            expect(any(line.split()[1:2] == [sub + "_s"] for line in lines),
                   "%s: no %s_s line" % (tag, sub))
        expect(any("error_rate" in line for line in lines),
               "%s: no error_rate line" % tag)


def _bump(coeffs):
    coeffs[0] = str(Fraction(coeffs[0]) + Fraction(1, 10 ** 9))


def corrupted(job):
    """The job with one recorded value made slightly wrong."""
    bad = copy.deepcopy(job)
    e = bad["expect"]
    if "exact" in e:
        e["exact"] += 1.0
    elif "statistic_terms" in e:
        _bump(e["statistic_terms"][0]["coeffs"])
    elif "terms" in e:
        _bump(e["terms"][0]["coeffs"])
    elif "rows" in e:
        e["rows"][0]["exact_d"] += 1e-9
    else:
        e["values"][0]["value"] += 1e-9
    return bad


def with_nan(out):
    """The output with its first float replaced by NaN."""
    obj = json.loads(out)

    def walk(x):
        items = x.items() if isinstance(x, dict) else enumerate(x)
        for k, v in items:
            if isinstance(v, float):
                x[k] = float("nan")
                return True
            if isinstance(v, (dict, list)) and walk(v):
                return True
        return False

    walk(obj)
    return json.dumps(obj)


def check_checker(workload, spec):
    for job in common.build_jobs(spec, workload, 1, probe_only=True):
        done = run.run_job(job)
        tag = "%s %s" % (workload, " ".join(job["argv"]))
        expect(not done.errors, "%s: correct output rejected: %s"
               % (tag, done.errors))
        expect(common.check_output(corrupted(job), done.rc, done.out,
                                   done.err),
               "%s: wrong recorded value not caught" % tag)
        expect(common.check_output(job, done.rc, with_nan(done.out),
                                   done.err),
               "%s: NaN in output not caught" % tag)
        expect(common.check_output(job, done.rc, done.out,
                                   "Traceback (most recent call last):"),
               "%s: traceback not caught" % tag)
        expect(common.check_output(job, 1, done.out, done.err),
               "%s: exit code 1 not caught" % tag)


def main():
    if not common.program_present():
        print("error: no src/mfe under %s" % common.ROOT, file=sys.stderr)
        return 2
    spec = common.load_spec()
    bench = common.load_benchmark()
    for workload in spec["workloads"]:
        check_checker(workload, spec)
        for trace in (0, 1):
            check_printed(workload, trace, bench)
    for p in problems:
        print("FAIL", p)
    print("selftest: %d problems" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

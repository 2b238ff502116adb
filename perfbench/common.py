"""Shared pieces of the benchmark: workload jobs, job environment, output
checks and the `-X importtime` split.

Workloads, their jobs and the values recorded for them live in
`workloads.json` next to this file.  A job is one `mfe.cli` invocation;
the checks here decide whether its output is right.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SUBCOMMANDS = ("moment", "cumulant", "amalgamated", "simulate", "compare")
FINITE_TOL = 1e-12
MC_SIGMAS = 4.0


def load_spec():
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def load_benchmark():
    """BENCHMARK.json at the root: the metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def program_present():
    return (SRC / "mfe" / "cli.py").is_file()


def job_env():
    """Environment of every job: the checkout's sources, one thread.

    MFE_THREADS is unset (the program's default of 1) and BLAS is pinned
    to one thread, so that a job runs on the one core `run.py` keeps it
    on.
    """
    env = dict(os.environ)
    env.pop("MFE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def build_jobs(spec, workload, seed, probe_only=False):
    """The workload's jobs for this seed, in run order.

    The seed fixes the order of the jobs and every Monte-Carlo seed.  It
    never changes a word, a size or a time, so the work done and the
    recorded exact values are the same for every seed.  probe_only keeps
    just the job marked as the workload's determinism probe, one of its
    smallest, for the harness self-test.
    """
    rng = random.Random(seed)
    jobs = []
    for rec in spec["workloads"][workload]["jobs"]:
        argv = list(rec["args"])
        if argv[0] in ("simulate", "compare"):
            argv += ["--seed", str(rng.randrange(1, 2 ** 31))]
        jobs.append({"subcommand": argv[0], "argv": argv,
                     "expect": rec["expect"],
                     "probe": rec.get("probe", False)})
    rng.shuffle(jobs)
    if probe_only:
        jobs = [job for job in jobs if job["probe"]]
    return jobs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError("non-finite number %s in output" % name)


def parse_output(text):
    """The job's stdout as one JSON object; NaN and Infinity rejected."""
    obj = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(obj, dict):
        raise ValueError("output is not a JSON object")
    return obj


def _terms(terms):
    return sorted((Fraction(t["rate"]), tuple(Fraction(c)
                                              for c in t["coeffs"]))
                  for t in terms)


def _close(a, b, what, errors):
    if not (isinstance(a, (int, float)) and math.isfinite(a)
            and abs(a - b) <= FINITE_TOL):
        errors.append("%s %r differs from recorded %r" % (what, a, b))


def _same_terms(got, want, what, errors):
    if _terms(got) != _terms(want):
        errors.append("%s differ from the recorded Fractions" % what)


def _values(got, want, errors):
    got = got or []
    if [v["t"] for v in got] != [v["t"] for v in want]:
        errors.append("value times %r differ" % [v["t"] for v in got])
        return
    for g, w in zip(got, want):
        _close(g["value"], w["value"], "value at t=%s" % w["t"], errors)


def _mc(mean, stderr, exact, allowance, what, errors):
    """|mean - exact| within MC_SIGMAS standard errors plus the stated
    allowance for the scheme's time-step bias."""
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0):
        errors.append("%s: bad mean/stderr %r/%r" % (what, mean, stderr))
        return
    if abs(mean - exact) > MC_SIGMAS * stderr + allowance:
        errors.append("%s: mean %.6g is %.2f stderr from exact %.6g "
                      "(allowance %g)" % (what, mean,
                                          abs(mean - exact) / stderr,
                                          exact, allowance))


def check_output(job, rc, out, err):
    """Errors found in one job's result; an empty list means correct."""
    errors = []
    if rc != 0:
        errors.append("exit code %r" % rc)
    if "Traceback" in err:
        errors.append("traceback on stderr")
    try:
        got = parse_output(out)
    except ValueError as exc:
        return errors + ["stdout is not valid JSON: %s" % exc]
    if got.get("schema") != 1:
        errors.append("schema tag %r" % got.get("schema"))
    want = job["expect"]
    sub = job["subcommand"]
    try:
        if sub == "moment":
            if "terms" in want:
                _same_terms(got["terms"], want["terms"], "terms", errors)
            _values(got.get("values"), want["values"], errors)
        elif sub == "cumulant":
            _same_terms(got["terms"], want["terms"], "terms", errors)
            if got["cross_check"] != "exact":
                errors.append("cross_check is %r" % got["cross_check"])
        elif sub == "amalgamated":
            betas = [c["beta"] for c in got["cumulants"]]
            if betas != [c["beta"] for c in want["cumulants"]]:
                errors.append("cumulant blocks %r differ" % betas)
            else:
                for g, w in zip(got["cumulants"], want["cumulants"]):
                    _same_terms(g["terms"], w["terms"],
                                "cumulant %s" % w["beta"], errors)
            _same_terms(got["sum_terms"], want["sum_terms"], "sum_terms",
                        errors)
            _same_terms(got["statistic_terms"], want["statistic_terms"],
                        "statistic_terms", errors)
            if got["sum_matches_statistic"] is not True:
                errors.append("sum_matches_statistic is not true")
            _values(got.get("values"), want["values"], errors)
        elif sub == "simulate":
            _mc(got["mean"], got["stderr"], want["exact"],
                want["allowance"], "simulate", errors)
        elif sub == "compare":
            rows = got["rows"]
            if [r["t"] for r in rows] != [w["t"] for w in want["rows"]]:
                errors.append("compare times differ")
            for g, w in zip(rows, want["rows"]):
                _close(g["exact_d"], w["exact_d"], "exact_d", errors)
                _close(g["limit"], w["limit"], "limit", errors)
                _mc(g["mc_mean"], g["mc_stderr"], w["exact_d"],
                    want["allowance"], "compare t=%s" % w["t"], errors)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        errors.append("malformed output: %r" % (exc,))
    return errors


# ---------------------------------------------------------------------------
# import split
# ---------------------------------------------------------------------------

IMPORT_PACKAGES = ("sympy", "scipy", "numpy")


def parse_importtime(text):
    """Seconds of `import mfe.cli` and of each heavy package within it.

    A package's time is the cumulative time of its outermost import
    lines, those with no ancestor in any of the packages: what importing
    it costs where mfe first asks for it, including what it pulls in
    (numpy modules first imported by scipy count as scipy's).
    `-X importtime` prints children before their parent, so the lines
    are walked in reverse to see ancestors first.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(fields[1])))
    total = None
    own = {p: 0 for p in IMPORT_PACKAGES}
    ancestors = []
    for depth, name, cum_us in reversed(rows):
        del ancestors[depth:]
        top = name.split(".")[0]
        if name == "mfe.cli":
            total = cum_us
        if top in own and not any(a.split(".")[0] in own
                                  for a in ancestors):
            own[top] += cum_us
        ancestors.append(name)
    if total is None:
        raise ValueError("no mfe.cli line in the -X importtime output")
    out = {"cli.import_s": total / 1e6}
    for p in IMPORT_PACKAGES:
        out["cli.import_%s_s" % p] = own[p] / 1e6
    return out

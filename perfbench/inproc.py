"""One workload's job batch run in-process through `mfe.cli.main`,
plain or traced.

    python3 perfbench/inproc.py --workload limit --seed 1 --mode traced

Started by `run.py --trace 1` in a fresh interpreter, after the import
of mfe, which is not timed.  In traced mode every public function of
every mfe module is wrapped in each module namespace that binds it, so
a call is caught wherever the caller looks the name up.  scipy's `expm`,
bound in both `moments` and `rmt`, is wrapped per namespace and counted
as `moments.expm` or `rmt.expm` by the calling module.  Class methods
are not spans: their time is self time of the function that called
them.

Spans (name, parent span, job, start, end) are kept in memory, written
to `perfbench/out/spans-<workload>.npz` at the end, and reduced to
per-function and per-module counts, self seconds and shares of self
time.  A span's self time is its duration minus the durations of its
child spans.  The last line of stdout is a JSON summary for `run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import sys
import time
import traceback
import types
from array import array

import common

sys.path.insert(0, str(common.SRC))

MODULES = ("ncpart", "brauer", "evaltrace", "generators", "moments",
           "cumulants", "opvalued", "rmt", "cli")


class Tracer:
    """Span recorder; each wrapped call appends one span, then runs the
    hook registered for its name, if any, on (args, kwargs, result)."""

    def __init__(self, hooks):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.hooks = hooks
        self.hook_errors = set()

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        names, parent, start, end = self.name, self.parent, self.start, \
            self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            self.job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                # a counter that no longer fits the program is reported,
                # not allowed to fail the job
                try:
                    hook(args, kwargs, result)
                except Exception as exc:
                    self.hook_errors.add("%s: %r" % (name, exc))
            return result

        return traced

    def install(self):
        """Wrap the public functions of the mfe modules in place."""
        mods = {m: importlib.import_module("mfe." + m) for m in MODULES}
        shared = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if attr == "expm" and short in ("moments", "rmt"):
                    setattr(mod, attr, self.wrap(short + ".expm", obj))
                elif home.startswith("mfe.") and (
                        isinstance(obj, types.FunctionType)
                        or hasattr(obj, "cache_info")):
                    if id(obj) not in shared:
                        shared[id(obj)] = self.wrap(
                            home[4:] + "." + obj.__name__, obj)
                    setattr(mod, attr, shared[id(obj)])
        return mods

    def spans(self):
        import numpy as np
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end)}


class Counters:
    """Layer counters taken from the arguments and results of spans."""

    def __init__(self):
        self.basis_states = 0
        self.max_basis_states = 0
        self.nnz = 0
        self.dense_bytes = 0
        self.solve_order = 0
        self.solve_states = 0
        self.words = set()
        self.expm_matrices = 0
        self.terminals = []

    def hooks(self):
        return {
            "generators.reachable_basis": self.basis,
            "generators.build_generator_finite": self.generator,
            "generators.build_generator_limit": self.generator,
            "moments.expm": self.dense,
            "moments.solve_semigroup_row": self.solve,
            "moments.moment_of_word": self.word,
            "rmt.expm": self.matrices,
            "rmt.sample_terminals": self.terminal,
        }

    def basis(self, args, kwargs, basis):
        self.basis_states += len(basis)
        self.max_basis_states = max(self.max_basis_states, len(basis))

    def generator(self, args, kwargs, gen):
        self.nnz += sum(len(row) for row in gen.rows)

    def dense(self, args, kwargs, result):
        # computed, not measured: one float64 copy of the dense generator
        self.dense_bytes += 8 * args[0].shape[-1] ** 2

    def solve(self, args, kwargs, mf):
        self.solve_order += sum(len(c) for c in mf.terms.values())
        self.solve_states += args[0].size

    def word(self, args, kwargs, result):
        self.words.add(repr((args, sorted(kwargs.items()))))

    def matrices(self, args, kwargs, result):
        self.expm_matrices += args[0].shape[0] if args[0].ndim == 3 else 1

    def terminal(self, args, kwargs, result):
        self.terminals.append(result)

    def unitarity_defect_max(self):
        """Largest entry of U*U - 1 over all sampled terminals.

        Quaternion terminals, shape (samples, N, N, 4), are embedded as
        complex 2N x 2N matrices [[x, y], [-conj(y), conj(x)]].
        """
        import numpy as np
        worst = 0.0
        for u in self.terminals:
            if u.ndim == 4:
                x = u[..., 0] + 1j * u[..., 1]
                y = u[..., 2] + 1j * u[..., 3]
                u = np.block([[x, y], [-y.conj(), x.conj()]])
            gram = np.conj(np.swapaxes(u, -1, -2)) @ u
            worst = max(worst, float(np.abs(gram - np.eye(
                u.shape[-1])).max()))
        return worst


def run_jobs(jobs, tracer=None):
    """Each job through cli.main with stdout and stderr captured."""
    import mfe.cli as cli
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main(job["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                # a job that raises is a failed job, not a failed run
                rc = 1
                err.write(traceback.format_exc())
        results.append((rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - t0, results


def layer_metrics(tracer, counters, wall):
    """Per-layer metrics, the self seconds behind their shares, and the
    spans as arrays."""
    import numpy as np
    sp = tracer.spans()
    dur = sp["end"] - sp["start"]
    has_parent = sp["parent"] >= 0
    child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    own = dur - child
    n_names = len(tracer.names)
    calls = np.bincount(sp["name"], minlength=n_names)
    own_by_name = np.bincount(sp["name"], weights=own, minlength=n_names)
    self_s = {module: 0.0 for module in MODULES}
    out = {}
    for nid, name in enumerate(tracer.names):
        out[name + ".calls"] = out.get(name + ".calls", 0) + int(calls[nid])
        self_s[name] = self_s.get(name, 0.0) + float(own_by_name[nid])
        self_s[name.split(".")[0]] += float(own_by_name[nid])
    # shares of the traced wall time, not seconds: they do not drift with
    # the shared machine's speed
    for name, seconds in self_s.items():
        out[name + ".self_share"] = seconds / wall
    c = counters
    compose_calls = out.get("brauer.compose.calls", 0)
    mow_calls = out.get("moments.moment_of_word.calls", 0)
    out.update({
        "generators.basis_states": c.basis_states,
        "generators.max_basis_states": c.max_basis_states,
        "generators.nnz": c.nnz,
        "generators.compose_per_state":
            compose_calls / c.basis_states if c.basis_states else 0.0,
        "moments.dense_bytes": c.dense_bytes,
        "moments.order_per_state":
            c.solve_order / c.solve_states if c.solve_states else 0.0,
        "moments.word_reuse_ratio":
            len(c.words) / mow_calls if mow_calls else 0.0,
        "rmt.expm_matrices": c.expm_matrices,
        "rmt.unitarity_defect_max": c.unitarity_defect_max(),
        "trace.wall_s": wall,
        "trace.spans": len(dur),
        "trace.coverage": float(own.sum()) / wall,
    })
    return out, self_s, sp


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    ap.add_argument("--probe-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = common.build_jobs(common.load_spec(), args.workload, args.seed,
                             args.probe_only)
    tracer = counters = None
    if args.mode == "traced":
        counters = Counters()
        tracer = Tracer(counters.hooks())
        tracer.install()
    else:
        for m in MODULES:
            importlib.import_module("mfe." + m)
    wall, results = run_jobs(jobs, tracer)

    errors, failed = [], 0
    for job, (rc, out, err) in zip(jobs, results):
        found = common.check_output(job, rc, out, err)
        failed += bool(found)
        errors += ["%s: %s" % (" ".join(job["argv"]), e) for e in found]
    summary = {"wall_s": wall, "attempted": len(jobs), "failed": failed,
               "errors": errors}
    if tracer is not None:
        import numpy as np
        summary["layers"], summary["self_s"], sp = layer_metrics(
            tracer, counters, wall)
        summary["hook_errors"] = sorted(tracer.hook_errors)
        common.OUT.mkdir(exist_ok=True)
        np.savez(common.OUT / ("spans-%s.npz" % args.workload), **sp)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

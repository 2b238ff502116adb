"""Batch command line comparing exact finite-dimension, limit and
Monte-Carlo values of block trace statistics.

Outputs are machine readable (JSON with a schema tag, or CSV) and byte
identical for identical arguments and seed.  Each subcommand imports
the modules it calls: only simulate and compare import rmt and with it
numpy, simulate imports none of the exact solvers, only cumulant and
amalgamated import the non-crossing partitions of ncpart, and none
imports the reference definitions of mfe.reference.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction

from .brauer import DimensionFunction, encode_word, square_df

SCHEMA = 1

# the columns of every subcommand's CSV rows
CSV_HEADER = ("statistic", "t", "exact_d", "limit", "mc_mean", "mc_stderr")

# how every subcommand but amalgamated reads a word
_WORD_HELP = ("block word, e.g. \"u11 u12* u21\": u<i><j> is the (i, j) "
              "block of the Brownian unitary, and u<i><j>* the adjoint of "
              "that block, which is the (j, i) block of u*")

# how simulate and compare read --steps
_STEPS_HELP = ("steps of each sampled path to time t, by default 16 per "
               "unit time, at least one.  Each step draws the semisimple "
               "part of its increment with variance dt (1 - kappa dt/24), "
               "kappa = 2 + 4 (beta - 2)/(beta N), which makes the scheme "
               "weak order 2; kappa dt >= 24 exits 2")

_TOKEN = re.compile(r"u(?:(\d)(\d)|\[(\d+),(\d+)\])(\*?)$")


def parse_word(text):
    """Tokens u<i><j> with optional trailing *, or u[i,j] for indices
    past one digit, separated by whitespace."""
    tokens = []
    for part in text.split():
        m = _TOKEN.match(part)
        if not m:
            raise ValueError("unparsable word token %r" % part)
        if m.group(1) is not None:
            i, j = int(m.group(1)), int(m.group(2))
        else:
            i, j = int(m.group(3)), int(m.group(4))
        if i < 1 or j < 1:
            raise ValueError("indices start at 1 in %r" % part)
        tokens.append((i, j, m.group(5) == "*"))
    if not tokens:
        raise ValueError("empty word")
    return tokens


def parse_partition(text, k):
    """Blocks separated by '/', each block digits or a comma list."""
    from .ncpart import NonCrossingPartition
    blocks = []
    for part in text.split("/"):
        part = part.strip().strip("[]{}")
        if "," in part:
            blk = [int(x) for x in part.split(",")]
        else:
            blk = [int(x) for x in part]
        if not blk:
            raise ValueError("empty block in partition %r" % text)
        blocks.append(blk)
    pi = NonCrossingPartition(blocks)
    if pi.k != k:
        raise ValueError("partition covers %d slots, word has %d"
                         % (pi.k, k))
    return pi


def parse_ratios(text):
    try:
        vals = [Fraction(p.strip()) for p in text.split(",")]
    except ZeroDivisionError:
        raise ValueError("zero denominator in --ratios %r" % text) from None
    if not vals or any(v <= 0 for v in vals):
        raise ValueError("ratios must be positive fractions")
    return DimensionFunction(
        {c: v for c, v in enumerate(vals, start=1)})


def _mf_payload(mf, times):
    out = {"terms": mf.term_records()}
    if len(out["terms"]) == 1:
        out.update(out["terms"][0])
    if times:
        out["values"] = [{"t": t, "value": float(mf.value(t))}
                         for t in times]
    return out


def _emit(args, payload, rows):
    if args.format == "json":
        payload = dict(payload)
        payload["schema"] = SCHEMA
        text = json.dumps(payload, sort_keys=True, allow_nan=False,
                          separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for row in rows:
            w.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _infer_n(tokens, n):
    seen = max(max(i, j) for i, j, _ in tokens)
    if n is None:
        return seen
    if n < seen:
        raise ValueError("word uses block index above n=%d" % n)
    return n


def cmd_moment(args):
    from .moments import finite_evaluator, moment_of_word
    tokens = parse_word(args.word)
    n = _infer_n(tokens, args.n)
    if args.limit:
        mf = moment_of_word(tokens, n)
    else:
        if args.field is None or args.d is None:
            raise ValueError("finite mode needs --field and --d")
        if not args.t:
            raise ValueError("finite mode needs at least one --t")
        seed, word = encode_word(tokens)
        mf = finite_evaluator(seed, word, square_df(n, args.d), args.field)
    payload = _mf_payload(mf, args.t)
    rows = []
    for v in payload.get("values", []):
        exact, lim = ("", v["value"]) if args.limit else (v["value"], "")
        rows.append([args.word, v["t"], exact, lim, "", ""])
    _emit(args, payload, rows)
    return 0


def cmd_cumulant(args):
    from .cumulants import Colourization, cumulants_from_moments, \
        kappa_closed_form
    from .moments import moment_of_word
    if args.word:
        tokens = parse_word(args.word)
        if any(star for _, _, star in tokens):
            raise ValueError("cumulants take plain (unstarred) words")
        n = _infer_n(tokens, args.n)
        col = Colourization([i for i, _, _ in tokens],
                            [j for _, j, _ in tokens])
        p = len(tokens)
        if args.p is not None and args.p != p:
            raise ValueError("--p disagrees with the word length")
    else:
        if args.p is None:
            raise ValueError("need --p or --word")
        p, n = args.p, 1 if args.n is None else args.n
        if n < 1:
            raise ValueError("--n must be a positive integer, got %d" % n)
        col = Colourization.constant(p)
    closed = kappa_closed_form(p, n, col)

    letters, moments = col.tokens(), {}

    def phi(block):
        toks = tuple(letters[v - 1] for v in block)
        if toks not in moments:
            moments[toks] = moment_of_word(toks, n)
        return moments[toks]

    inverted, = cumulants_from_moments(phi, p, orders=[p])
    agree = closed == inverted
    payload = _mf_payload(closed, args.t)
    payload["cross_check"] = "exact" if agree else "mismatch"
    rows = [[args.word or ("u11 " * p).strip(), t, "",
             float(closed.value(t)), "", ""] for t in args.t]
    _emit(args, payload, rows)
    return 0 if agree else 1


def cmd_simulate(args):
    from .rmt import estimate_stat
    tokens = parse_word(args.word)
    n = _infer_n(tokens, args.n)
    if args.N % n:
        raise ValueError("N=%d not divisible by n=%d" % (args.N, n))
    if len(args.t) != 1:
        raise ValueError("simulate takes exactly one --t")
    t = args.t[0]
    df = square_df(n, args.N // n)
    b, w = encode_word(tokens)
    mean, se = estimate_stat(b, w, args.field, df, t, args.samples,
                             seed=args.seed, steps=args.steps)
    payload = {"mean": mean, "stderr": se, "samples": args.samples,
               "seed": args.seed}
    rows = [[args.word, t, "", "", mean, se]]
    _emit(args, payload, rows)
    return 0


def cmd_compare(args):
    from .moments import finite_evaluator, moment_of_word
    from .rmt import estimate_stats
    if not args.t:
        raise ValueError("compare needs at least one --t")
    if args.bound is not None and not 0 <= args.bound < math.inf:
        raise ValueError("--bound must be a finite non-negative number, "
                         "got %r" % args.bound)
    tokens = parse_word(args.word)
    n = _infer_n(tokens, args.n)
    df = square_df(n, args.d)
    b, w = encode_word(tokens)
    limit_mf = moment_of_word(tokens, n)
    exact_at = finite_evaluator(b, w, df, args.field)
    exacts = [exact_at(t) for t in args.t]
    limits = [float(limit_mf.value(t)) for t in args.t]
    mc = estimate_stats(b, w, args.field, df, args.t, args.samples,
                        seed=args.seed, steps=args.steps)
    rows, entries, failed = [], [], False
    for t, exact, lim, (mean, se) in zip(args.t, exacts, limits, mc):
        mc_ok = abs(mean - exact) <= 4 * se + 1e-12
        delta_ok = args.bound is None or abs(exact - lim) <= args.bound
        if args.check and not (mc_ok and delta_ok):
            failed = True
        entries.append({"t": t, "exact_d": exact, "limit": lim,
                        "mc_mean": mean, "mc_stderr": se,
                        "mc_within_4se": mc_ok,
                        "finite_limit_delta": abs(exact - lim)})
        rows.append([args.word, t, exact, lim, mean, se])
    _emit(args, {"rows": entries, "N": n * args.d, "field": args.field},
          rows)
    return 1 if failed else 0


def cmd_amalgamated(args):
    from .moments import MomentFunction
    from .ncpart import NonCrossingPartition, enumerate_nc
    from .opvalued import limit_cumulant_coefficient, limit_statistic
    tokens = parse_word(args.word)
    k = len(tokens)
    ratios = parse_ratios(args.ratios)
    try:
        alpha = tuple(int(x) for x in args.alpha.split(","))
    except ValueError:
        raise ValueError("--alpha must be comma-separated integer colours, "
                         "got %r" % args.alpha) from None
    if any(a not in ratios.dims for a in alpha):
        raise ValueError("--alpha colours must lie in 1..%d, one per ratio"
                         % ratios.n)
    _, w = encode_word(tokens)
    pi = parse_partition(args.pi, k) if args.pi else \
        NonCrossingPartition([range(1, k + 1)])
    total = MomentFunction.zero()
    per_beta = []
    for beta in enumerate_nc(k):
        if not beta.leq(pi):
            continue
        c = limit_cumulant_coefficient(beta, alpha, w, ratios)
        total = total + c
        per_beta.append({
            "beta": "/".join("".join(map(str, blk)) for blk in beta.blocks),
            "terms": c.term_records(),
        })
    stat = limit_statistic(pi, alpha, w, ratios)
    agree = total == stat
    payload = {"cumulants": per_beta, "sum_terms": total.term_records(),
               "statistic_terms": stat.term_records(),
               "sum_matches_statistic": agree}
    if args.t:
        payload["values"] = [{"t": t, "value": float(stat.value(t))}
                             for t in args.t]
    rows = [[args.word, t, "", float(stat.value(t)), "", ""]
            for t in args.t]
    _emit(args, payload, rows)
    return 0 if agree else 1


def build_parser():
    top = argparse.ArgumentParser(
        prog="mfe",
        description="trace statistics of block Brownian motion")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"),
                       default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--t", type=float, action="append", default=None)

    p = sub.add_parser("moment", help="word moments, finite or limit")
    p.add_argument("--word", required=True, help=_WORD_HELP)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--limit", action="store_true")
    p.add_argument("--field", choices=("R", "C", "H"), default=None)
    p.add_argument("--d", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("cumulant",
                       help="closed-form cumulant with cross-check")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--word", default=None,
                   help="block word of unstarred tokens u<i><j>, the (i, j) "
                        "blocks of the Brownian unitary")
    common(p)
    p.set_defaults(func=cmd_cumulant)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate")
    p.add_argument("--word", required=True, help=_WORD_HELP)
    p.add_argument("--field", choices=("R", "C", "H"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--steps", type=int, default=None, help=_STEPS_HELP)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare",
                       help="exact finite-d vs limit vs Monte-Carlo")
    p.add_argument("--word", required=True, help=_WORD_HELP)
    p.add_argument("--field", choices=("R", "C", "H"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--steps", type=int, default=None, help=_STEPS_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true")
    p.add_argument("--bound", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("amalgamated",
                       help="limit cumulant coefficients below a partition")
    p.add_argument("--word", required=True,
                   help="word whose slot s is the (a(s-1), a(s)) block of "
                        "--alpha, and a starred slot the adjoint of that "
                        "block; the indices of the tokens are not read")
    p.add_argument("--alpha", required=True,
                   help="comma-separated boundary colours a0..ak")
    p.add_argument("--ratios", required=True,
                   help="comma-separated block ratios, e.g. 1/4,3/4")
    p.add_argument("--pi", default=None,
                   help="slot partition, blocks joined by '/'")
    common(p)
    p.set_defaults(func=cmd_amalgamated)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.t is None:
        args.t = []
    try:
        for t in args.t:
            if not math.isfinite(t):
                raise ValueError("--t must be a finite number, got %r" % t)
        if getattr(args, "samples", 2) < 2:
            raise ValueError("a standard error needs --samples >= 2")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be a non-negative integer, got %d"
                             % args.seed)
        return args.func(args)
    except (ValueError, MemoryError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Every public module-level function or class of the package has a use:
the package itself names it, an acceptance criterion names it, or it is
a reference that the tests check other routes against (REFERENCES).
Every private one has a caller elsewhere in the package, or is such a
reference.  The references live in mfe.reference, which no subcommand
loads, and each subcommand loads only the modules it runs."""

import ast
import io
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mfe"

# kept with no caller in the package and no mention in the acceptance
# criteria, each for the reason given; all are defined in mfe.reference
REFERENCES = {
    "identity_diagram": "the unit of the Brauer algebra laws",
    "parse_diagram": "reads back the parse(...) repr of a diagram",
    "sigma_of": "the paper's permutation of a diagram, canonically oriented",
    "transpose_diagram": "the paper's transpose of a diagram",
    "taylor_coeff_geodesic": "geodesic route to the Taylor coefficients",
    "moments_from_cumulants": "inverse of the Moebius inversion",
    "rho_contract": "tensor contraction oracle for the trace evaluator",
    "generator_free_process": "limit generator side of the Schurmann check",
    "schurmann_L": "Schurmann triple side of the same check",
    "factorized_moment": "per-cycle product route to limit moments",
    "zero_nc": "bottom of NC(k), the lower end of Moebius intervals",
    "expm": "batched exponential on the sampler's kernel, checked by scipy",
    "_ratio_factor": "per-move loop factor the generator rows are checked "
                     "against",
}


def names(tokens):
    return {t.string for t in tokens if t.type == tokenize.NAME}


def tokens_of(path):
    return list(tokenize.generate_tokens(io.StringIO(path.read_text())
                                         .readline))


def definitions(private=False):
    """(module, name, first line, last line) of each public, or each
    private, module-level def and class."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_") == private:
                first = min([node.lineno] + [d.lineno
                                             for d in node.decorator_list])
                out.append((path.name, node.name, first, node.end_lineno))
    return out


def unused(defs, kept):
    """The definitions that the package names nowhere outside their own
    lines and that are not in kept, as module.name."""
    tokens = {path.name: tokens_of(path) for path in SRC.glob("*.py")}
    out = []
    for module, name, first, last in defs:
        outside = names(t for m, ts in tokens.items() for t in ts
                        if m != module or not first <= t.start[0] <= last)
        if name not in outside | kept:
            out.append("%s.%s" % (module[:-3], name))
    return out


def test_every_public_definition_has_a_use():
    acceptance = names(tokens_of(ROOT / "tests" / "test_acceptance.py"))
    assert unused(definitions(), acceptance | set(REFERENCES)) == []


def test_every_private_definition_has_a_caller():
    assert unused(definitions(private=True), set(REFERENCES)) == []


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_references_exist(name):
    assert name in {n for _, n, _, _ in definitions() + definitions(True)}


def test_every_reference_is_checked():
    """Each reference is named by a test module other than this one, so
    a reference that lost its last check shows here."""
    tests = names(t for path in (ROOT / "tests").glob("test_*.py")
                  if path.name != pathlib.Path(__file__).name
                  for t in tokens_of(path))
    assert sorted(set(REFERENCES) - tests) == []


def test_references_live_in_the_reference_module():
    homes = {}
    for module, name, _, _ in definitions() + definitions(True):
        homes.setdefault(name, set()).add(module)
    assert {name: homes.get(name) for name in REFERENCES
            if homes.get(name) != {"reference.py"}} == {}


# one tiny job per subcommand, and the modules that it must not load
JOBS = {
    "import": [],
    "moment-finite": ["moment", "--field", "C", "--d", "1", "--word",
                      "u11 u11", "--t", "1"],
    "moment-limit": ["moment", "--limit", "--word", "u11 u11", "--t", "1"],
    "cumulant": ["cumulant", "--p", "2"],
    "simulate": ["simulate", "--field", "C", "--N", "2", "--word", "u11",
                 "--t", "1", "--samples", "2", "--steps", "1"],
    "compare": ["compare", "--field", "C", "--d", "1", "--word", "u11",
                "--t", "1", "--samples", "2", "--steps", "1"],
    "amalgamated": ["amalgamated", "--word", "u11 u11", "--alpha", "1,1,1",
                    "--ratios", "1/4,3/4", "--t", "1"],
}
EXACT_ONLY = {"mfe.ncpart", "mfe.evaltrace", "mfe.rmt", "mfe.cumulants",
              "mfe.opvalued", "mfe.reference", "numpy"}
UNLOADED = {
    "import": {"mfe.ncpart", "mfe.reference", "numpy"},
    "moment-finite": EXACT_ONLY,
    "moment-limit": EXACT_ONLY,
    "cumulant": {"mfe.reference"},
    "simulate": {"mfe.generators", "mfe.moments", "mfe.cumulants",
                 "mfe.opvalued", "mfe.reference"},
    "compare": {"mfe.reference"},
    "amalgamated": {"mfe.reference"},
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_each_subcommand_loads_only_what_it_runs(job):
    """A fresh interpreter that compiles the package from source, as a
    job without cached bytecode does, imports mfe.cli and runs the job;
    its exit code and loaded modules are read back."""
    code = ("import contextlib, io, sys\n"
            "import mfe.cli\n"
            "argv = %r\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = mfe.cli.main(argv) if argv else 0\n"
            "print(rc, *sorted(sys.modules))\n" % JOBS[job])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                 PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, check=True)
    rc, *modules = out.stdout.split()
    assert rc == "0"
    assert UNLOADED[job] & set(modules) == set()

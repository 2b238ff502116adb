import json
import math
import os
import resource
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import mfe
from mfe.brauer import encode_word, square_df
from mfe.cli import (
    main,
    parse_partition,
    parse_ratios,
    parse_word,
)
from mfe.moments import moment_of_word


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestParsers:
    def test_word_tokens(self):
        assert parse_word("u11 u23*") == [(1, 1, False), (2, 3, True)]
        assert parse_word("u[10,2]* u[1,1]") == [(10, 2, True),
                                                 (1, 1, False)]

    def test_word_rejects_junk(self):
        for bad in ("", "x11", "u0 u11", "u123", "u[1;2]", "u1,2"):
            with pytest.raises(ValueError):
                parse_word(bad)

    def test_partition(self):
        pi = parse_partition("12/3", 3)
        assert sorted(map(sorted, pi.blocks)) == [[1, 2], [3]]
        assert parse_partition("[1,3]/[2]", 3).blocks == ((1, 3), (2,))
        with pytest.raises(ValueError):
            parse_partition("12", 3)

    def test_ratios(self):
        df = parse_ratios("1/4,3/4")
        assert df.value(1) + df.value(2) == 1
        with pytest.raises(ValueError):
            parse_ratios("0,1")


class TestMoment:
    def test_limit_json(self, capsys):
        rc, out, _ = run(capsys, "moment", "--limit", "--n", "1",
                         "--word", "u11 u11", "--t", "1")
        data = json.loads(out)
        assert rc == 0
        assert data["schema"] == 1
        assert data["rate"] == "-1"
        assert data["coeffs"] == ["1", "-1"]
        assert data["values"][0]["value"] == pytest.approx(0.0, abs=1e-12)

    def test_finite_matches_limit_direction(self, capsys):
        rc, out, _ = run(capsys, "moment", "--word", "u11", "--field", "C",
                         "--d", "4", "--t", "1")
        assert rc == 0
        got = json.loads(out)["values"][0]["value"]
        assert got == pytest.approx(math.exp(-0.5), abs=0.05)

    def test_finite_exact_terms(self, capsys):
        rc, out, _ = run(capsys, "moment", "--field", "C", "--d", "2",
                         "--word", "u11", "--t", "1")
        data = json.loads(out)
        assert rc == 0
        assert data["terms"] == [{"rate": "-1/2", "coeffs": ["1"]}]
        assert data["values"][0]["value"] == math.exp(-0.5)

    def test_finite_needs_field(self, capsys):
        rc, _, err = run(capsys, "moment", "--word", "u11", "--t", "1")
        assert rc == 2 and "field" in err

    def test_multi_t_finite_equals_single_t_calls(self, capsys):
        argv = ["moment", "--field", "C", "--d", "3", "--word",
                "u12 u21 u11 u11*", "--format", "csv"]
        times = ["0", "0.25", "1", "2"]
        rc, out, _ = run(capsys, *argv, *[a for t in times
                                          for a in ("--t", t)])
        assert rc == 0
        singles = []
        for t in times:
            rc1, out1, _ = run(capsys, *argv, "--t", t)
            assert rc1 == 0
            singles.append(out1.splitlines()[1])
        assert out.splitlines()[1:] == singles

    def test_word_index_above_n(self, capsys):
        rc, _, err = run(capsys, "moment", "--limit", "--n", "1",
                         "--word", "u12")
        assert rc == 2

    def test_limit_with_many_blocks_is_fast(self):
        # the dimension classes of 20,000 colours are made in linear time;
        # a scan of every colour per colour took minutes
        src = os.path.dirname(os.path.dirname(mfe.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "mfe.cli", "moment", "--limit",
             "--word", "u11 u11", "--n", "20000"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=10, check=True)
        assert json.loads(out.stdout)["coeffs"] == ["1", "-1/20000"]


class TestCumulant:
    def test_first_cumulant_value(self, capsys):
        rc, out, _ = run(capsys, "cumulant", "--p", "1", "--n", "1",
                         "--t", "0.8")
        data = json.loads(out)
        assert rc == 0
        assert data["cross_check"] == "exact"
        assert data["values"][0]["value"] == \
            pytest.approx(math.exp(-0.4))

    def test_word_form(self, capsys):
        rc, out, _ = run(capsys, "cumulant", "--word", "u12 u21",
                         "--n", "2")
        data = json.loads(out)
        assert rc == 0
        assert data["rate"] == "-1"
        assert data["coeffs"] == ["0", "-1/2"]

    def test_starred_word_rejected(self, capsys):
        rc, _, err = run(capsys, "cumulant", "--word", "u11*")
        assert rc == 2

    def test_one_moment_solve_per_sub_word(self, capsys, monkeypatch):
        calls = []

        def counted(tokens, n):
            calls.append(tuple(tokens))
            return moment_of_word(tokens, n)

        monkeypatch.setattr("mfe.moments.moment_of_word", counted)
        rc, out, _ = run(capsys, "cumulant", "--p", "5")
        assert rc == 0
        assert json.loads(out)["cross_check"] == "exact"
        assert len(calls) == len(set(calls)) == 5


class TestSimulate:
    def test_mean_near_exact(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--field", "C", "--N", "8",
                         "--t", "1", "--word", "u11", "--samples", "500",
                         "--seed", "7", "--steps", "50")
        data = json.loads(out)
        assert rc == 0
        assert abs(data["mean"] - math.exp(-0.5)) <= 4 * data["stderr"]

    def test_byte_identical_given_seed(self, capsys):
        argv = ["simulate", "--field", "C", "--N", "4", "--t", "0.5",
                "--word", "u11", "--samples", "50", "--seed", "3",
                "--steps", "10"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_so1_is_exact(self, capsys):
        # SO(1) = {1}: each draw is zero, so every sample of tr(u11) is 1
        rc, out, _ = run(capsys, "simulate", "--field", "R", "--N", "1",
                         "--word", "u11", "--t", "1", "--samples", "5")
        data = json.loads(out)
        assert rc == 0 and (data["mean"], data["stderr"]) == (1.0, 0.0)

    def test_indivisible_dimension(self, capsys):
        rc, _, _ = run(capsys, "simulate", "--field", "C", "--N", "5",
                       "--n", "2", "--t", "1", "--word", "u11",
                       "--samples", "10")
        assert rc == 2


class TestCompare:
    def test_csv_columns_and_pass(self, capsys):
        rc, out, _ = run(capsys, "compare", "--field", "C", "--d", "3",
                         "--word", "u11", "--t", "0.5", "--samples",
                         "400", "--steps", "40", "--check", "--bound",
                         "0.5", "--format", "csv")
        lines = out.strip().split("\n")
        assert rc == 0
        assert lines[0] == "statistic,t,exact_d,limit,mc_mean,mc_stderr"
        assert lines[1].startswith("u11,0.5,")

    def test_check_fails_on_tight_bound(self, capsys):
        # finite d = 2 sits a visible distance from the limit
        rc, _, _ = run(capsys, "compare", "--field", "R", "--d", "2",
                       "--word", "u11", "--t", "1", "--samples", "200",
                       "--steps", "30", "--check", "--bound", "1e-9")
        assert rc == 1

    @pytest.mark.parametrize("steps,passes", [
        ([], 32), (["--steps", "10"], 20)])
    def test_sampling_passes(self, capsys, monkeypatch, steps, passes):
        # by default t = 0.5 and t = 1 both take the fine step 1/32, so
        # one 32-step coupled pass per letter serves both, and its coarse
        # path draws nothing; an explicit --steps gives each t its own
        # step and its own pass.  Either way each row is what its own
        # estimate_stat call gives, bit for bit.
        from mfe import rmt
        draws = []
        gaussian_lie = rmt._gaussian_lie
        monkeypatch.setattr(rmt, "_gaussian_lie",
                            lambda *a: draws.append(a) or gaussian_lie(*a))
        argv = ["--field", "C", "--d", "2", "--word", "u11 u11*",
                "--samples", "20", "--seed", "5", *steps]
        rc, out, _ = run(capsys, "compare", *argv, "--t", "0.5", "--t", "1")
        b, w = encode_word(parse_word("u11 u11*"))
        letters = len({l.letter for l in w})
        assert rc == 0 and len(draws) == passes * letters
        monkeypatch.setattr(rmt, "_gaussian_lie", gaussian_lie)
        for row in json.loads(out)["rows"]:
            assert (row["mc_mean"], row["mc_stderr"]) == rmt.estimate_stat(
                b, w, "C", square_df(1, 2), row["t"], 20, seed=5,
                steps=int(steps[1]) if steps else None)

    def test_needs_a_time(self, capsys):
        rc, out, err = run(capsys, "compare", "--field", "C", "--d", "2",
                           "--word", "u11", "--samples", "10")
        assert_one_line_error(rc, out, err)
        assert "--t" in err

    def test_without_check_reports_only(self, capsys):
        rc, out, _ = run(capsys, "compare", "--field", "R", "--d", "2",
                         "--word", "u11", "--t", "1", "--samples", "200",
                         "--steps", "30", "--bound", "1e-9")
        assert rc == 0
        assert json.loads(out)["rows"][0]["finite_limit_delta"] > 1e-9


class TestAmalgamated:
    def test_sum_matches_statistic(self, capsys):
        rc, out, _ = run(capsys, "amalgamated", "--word", "u11 u11",
                         "--alpha", "1,1,1", "--ratios", "1/4,3/4",
                         "--t", "1")
        data = json.loads(out)
        assert rc == 0
        assert data["sum_matches_statistic"] is True
        betas = {c["beta"] for c in data["cumulants"]}
        assert betas == {"12", "1/2"}

    def test_failed_sum_check_exits_one(self, capsys):
        # the whole seed is invalid, so the statistic is 0, while the
        # valid blocks of 1/23 give a nonzero coefficient
        rc, out, err = run(capsys, "amalgamated", "--word", "u11 u11* u11*",
                           "--alpha", "1,1,2,1", "--ratios", "1/4,3/4",
                           "--t", "1")
        data = json.loads(out)
        assert rc == 1 and err == ""
        assert data["sum_matches_statistic"] is False
        assert data["statistic_terms"] == []

    def test_bad_alpha_length(self, capsys):
        rc, _, _ = run(capsys, "amalgamated", "--word", "u11 u11",
                       "--alpha", "1,1", "--ratios", "1")
        assert rc == 2


def assert_one_line_error(rc, out, err):
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestEdgeInputs:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "-1"])
    @pytest.mark.parametrize("argv", [
        ["moment", "--limit", "--word", "u11 u11"],
        ["moment", "--field", "C", "--d", "2", "--word", "u11 u11"],
        ["cumulant", "--p", "2"],
        ["simulate", "--field", "C", "--N", "2", "--word", "u11",
         "--samples", "4"],
        ["compare", "--field", "C", "--d", "2", "--word", "u11",
         "--samples", "4"],
        ["amalgamated", "--word", "u11 u11", "--alpha", "1,1,1",
         "--ratios", "1"],
    ])
    def test_non_finite_time_rejected(self, capsys, argv, bad):
        rc, out, err = run(capsys, *argv, "--t=" + bad)
        assert_one_line_error(rc, out, err)
        assert ("negative time" if bad == "-1" else "--t") in err

    def test_alpha_colour_outside_ratios(self, capsys):
        for alpha in ("1,3,1", "0,1,1"):
            rc, out, err = run(capsys, "amalgamated", "--word", "u11 u11",
                               "--alpha", alpha, "--ratios", "1/2,1/2")
            assert_one_line_error(rc, out, err)
            assert "--alpha" in err

    @pytest.mark.parametrize("argv", [
        ["compare", "--d", "2", "--check"],
        ["simulate", "--N", "2"],
    ], ids=["compare", "simulate"])
    def test_compare_needs_two_samples(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--field", "C", "--word", "u11",
                           "--t", "1", "--samples", "1")
        assert_one_line_error(rc, out, err)
        assert "--samples" in err

    @pytest.mark.parametrize("argv", [
        ["--p", "3", "--n", "0"],
        ["--p", "2", "--n", "-1"],
    ])
    def test_cumulant_n_must_be_positive(self, capsys, argv):
        rc, out, err = run(capsys, "cumulant", *argv)
        assert_one_line_error(rc, out, err)
        assert "--n" in err

    @pytest.mark.parametrize("bound", ["nan", "-1", "inf"])
    def test_compare_bound_must_be_finite_non_negative(self, capsys, bound):
        rc, out, err = run(capsys, "compare", "--field", "C", "--d", "2",
                           "--word", "u11", "--t", "1", "--samples", "4",
                           "--bound=" + bound)
        assert_one_line_error(rc, out, err)
        assert "--bound" in err

    # inputs that used to raise a traceback or run for hours
    @pytest.mark.parametrize("argv,msg", [
        (["amalgamated", "--word", "u11", "--alpha", "1,1",
          "--ratios", "1/0"], "--ratios"),
        (["amalgamated", "--word", "u11", "--alpha", "1,1",
          "--ratios", "1/4,3/0"], "--ratios"),
        (["cumulant", "--p", "13"], "enumeration bound 12"),
        (["cumulant", "--word", " ".join(["u11"] * 13)],
         "enumeration bound 12"),
        (["simulate", "--N", "2", "--samples", "3", "--field", "C",
          "--word", "u11", "--t", "1e300"], "more than the 1000000 allowed"),
        (["compare", "--d", "2", "--samples", "3", "--field", "C",
          "--word", "u11", "--t", "1e6"], "more than the 1000000 allowed"),
        (["moment", "--limit", "--t", "1", "--word", " ".join(["u11"] * 40)],
         "reachable basis exceeds 20000"),
    ], ids=["ratio-1/0", "ratio-3/0", "cumulant-p13", "cumulant-word13",
            "simulate-t1e300", "compare-t1e6", "limit-u11^40"])
    def test_fails_fast(self, capsys, argv, msg):
        rc, out, err = run(capsys, *argv)
        assert_one_line_error(rc, out, err)
        assert msg in err

    def test_limit_basis_bound_exits_2(self, capsys):
        # the creating closure of u12 u23 ... u14,1 passes BASIS_BOUND
        # orbits, and with them distinct diagrams
        word = " ".join("u[%d,%d]" % (i, i % 14 + 1) for i in range(1, 15))
        rc, out, err = run(capsys, "moment", "--limit", "--t", "1",
                           "--word", word)
        assert (rc, out, err) == \
            (2, "", "error: reachable basis exceeds 20000\n")

    def test_limit_u11_power_11_closes(self, capsys):
        # its creating closure has 58,786 diagrams but 56 orbits
        rc, out, err = run(capsys, "moment", "--limit", "--t", "1",
                           "--word", " ".join(["u11"] * 11))
        assert (rc, err) == (0, "")
        assert json.loads(out)["rate"] == "-11/2"

    def test_many_rate_moment_is_exactly_zero(self, capsys):
        # the annihilator has 24 distinct rates; the moment is 0, since
        # conjugating by diag(e^(i theta) I, I) multiplies this word by
        # e^(2 i theta) and leaves the law of the diffusion unchanged
        rc, out, err = run(capsys, "moment", "--field", "C", "--n", "2",
                           "--d", "5", "--word",
                           "u11 u11* u11 u11* u12 u21* u22 u11", "--t", "1")
        assert (rc, err) == (0, "")
        data = json.loads(out)
        assert data["terms"] == []
        assert data["values"] == [{"t": 1.0, "value": 0.0}]

    def test_limit_moment_at_huge_t(self, capsys):
        argv = ["moment", "--limit", "--word", "u11 u11 u11", "--t", "1e300"]
        rc, out, err = run(capsys, *argv, "--format", "csv")
        assert (rc, err) == (0, "")
        assert out.splitlines()[1].split(",")[3] == "0.0"
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert json.loads(out)["values"] == [{"t": 1e300, "value": 0.0}]

    def test_overflowing_step_exits_2(self, capsys):
        # the error comes before numpy overflows, so no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "simulate", "--field", "C", "--N", "2",
                               "--word", "u11", "--t", "1e300",
                               "--samples", "3", "--steps", "1")
        assert_one_line_error(rc, out, err)
        assert "step size" in err

    def test_irrational_rate_exits_2(self, capsys, monkeypatch):
        # an annihilator x^2 - 2 has no rational roots
        monkeypatch.setattr(
            "mfe.moments._krylov_annihilator",
            lambda gen, seed: ([Fraction(2), Fraction(0)], []))
        rc, out, err = run(capsys, "moment", "--limit", "--word", "u11 u11",
                           "--t", "1")
        assert_one_line_error(rc, out, err)
        assert "rational" in err

    def test_irrational_rate_on_finite_route_exits_2(self, capsys,
                                                     monkeypatch):
        # the finite route shares the exact solver and has no float
        # fallback
        monkeypatch.setattr(
            "mfe.moments._krylov_annihilator",
            lambda gen, seed: ([Fraction(2), Fraction(0)], []))
        rc, out, err = run(capsys, "moment", "--field", "R", "--d", "2",
                           "--word", "u11 u11", "--t", "1")
        assert_one_line_error(rc, out, err)
        assert "rational" in err

    def test_refused_allocation_exits_2(self):
        # a 3 GiB address-space cap makes the 8.6 GB paths of one block
        # fail to allocate whatever the host's overcommit policy
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        src = os.path.dirname(os.path.dirname(mfe.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "mfe.cli", "simulate", "--field", "C",
             "--N", "512", "--word", "u11", "--t", "1",
             "--samples", "2048"],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, preexec_fn=cap, timeout=300)
        assert_one_line_error(out.returncode, out.stdout, out.stderr)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--N", "2", "--t", "1", "--samples", "100000001"],
        ["compare", "--d", "1", "--t", "0.5", "--t", "1",
         "--samples", "50000001"],
    ], ids=["simulate", "compare"])
    def test_values_past_bound_exit_2(self, capsys, argv):
        # samples x times past MAX_VALUES is refused before anything is
        # allocated, with no address-space cap
        rc, out, err = run(capsys, *argv, "--field", "C", "--word", "u11")
        assert_one_line_error(rc, out, err)
        assert "values allowed" in err

    @pytest.mark.parametrize("module", ["scipy.sparse.linalg", "sympy"])
    def test_import_leaves_sparse_solver_unloaded(self, module):
        code = ("import sys, mfe.cli; "
                "print(%r in sys.modules)" % module)
        src = os.path.dirname(os.path.dirname(mfe.__file__))
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_finite_run_leaves_scipy_unloaded(self):
        code = ("import sys, mfe.cli; "
                "mfe.cli.main(['moment', '--field', 'C', '--d', '2', "
                "'--word', 'u11 u11', '--t', '1']); "
                "print('scipy' in sys.modules)")
        src = os.path.dirname(os.path.dirname(mfe.__file__))
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("argv, loads", [
        ([], False),
        (["moment", "--limit", "--word", "u11 u11", "--t", "1"], False),
        (["moment", "--field", "C", "--d", "2", "--word", "u11 u11",
          "--t", "1"], False),
        (["cumulant", "--p", "3"], False),
        (["amalgamated", "--word", "u11 u11", "--alpha", "1,1,1",
          "--ratios", "1/4,3/4", "--t", "1"], False),
        (["simulate", "--field", "C", "--N", "2", "--word", "u11",
          "--t", "1", "--samples", "2"], True),
        (["compare", "--field", "C", "--d", "1", "--word", "u11",
          "--t", "1", "--samples", "2"], True),
    ], ids=["import", "moment-limit", "moment-finite", "cumulant",
            "amalgamated", "simulate", "compare"])
    def test_numpy_loads_only_for_monte_carlo(self, argv, loads):
        code = "import sys, mfe.cli\n"
        if argv:
            code += "assert mfe.cli.main(%r) == 0\n" % argv
        if argv[:1] == ["simulate"]:
            # the Monte-Carlo estimate calls none of the exact solvers
            code += ("assert not {'mfe.generators', 'mfe.moments', "
                     "'mfe.cumulants', 'mfe.opvalued'} & set(sys.modules)\n")
        code += "print('numpy' in sys.modules)\n"
        src = os.path.dirname(os.path.dirname(mfe.__file__))
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src,
                                      OPENBLAS_NUM_THREADS="1"),
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == str(loads)


class TestOutputs:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "res.json"
        rc, out, _ = run(capsys, "moment", "--limit", "--word", "u11",
                         "--out", str(path))
        assert rc == 0 and out == ""
        assert json.loads(path.read_text())["rate"] == "-1/2"

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "res.json"
        rc, out, err = run(capsys, "moment", "--limit", "--word", "u11 u11",
                           "--t", "1", "--out", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

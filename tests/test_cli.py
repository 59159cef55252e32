import contextlib
import csv
import importlib.metadata
import io
import json
import math
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli there
    import tomli as tomllib

from fem_accuracy import kernels
from fem_accuracy.cli import build_parser, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# What the CLI prints on stderr, once, for p = 1e-3.
P_WARNING = "warning: p = 0.001 is outside the variational framework (need p > 1)"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def parse_json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
        names = set(actions[0].choices)
        assert {"basis", "bounds", "constant", "prob", "hstar-seq", "weakstar", "converge"} <= names

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "prob --steps 1",
            "hstar-seq --qmax 0",
            "basis --k 0",
            "constant --sigma 0.5",
            "weakstar --q-list 0",
            "converge --meshes ,",
            "prob --hmin nan",
            "bounds --samples -1",
            "bounds --seed -1",
            "converge --k 0",
            "converge --p 0",
            "converge --p nan",
            "converge --cea-ratio 0.5",
            "bounds --p 0",
            "bounds --p nan",
            "bounds --l -1",
            "bounds --r -1",
            "hstar-seq --k 0",
            "hstar-seq --m -1",
            "weakstar --k 0",
            "weakstar --p 0",
            "weakstar --bump-a 2 --bump-b 1",
            "prob --k1 2 --k2 1",
            "prob --ck1 -1 --ck2 1",
            "prob --ck1 2.0",
            "prob --ck2 2.0",
            "prob --seminorm-ratio 1e308 --cea-ratio 100",
            "prob --ck1 1e308 --ck2 1e-308",
            "prob --n 0",
            "constant --k 0",
            "constant --m 1 --k 2 --lam nan",
            "constant --sigma nan",
            "constant --h-cap nan",
            "constant --cea-ratio nan",
            "converge --k 2 --cea-ratio nan",
            "constant --m 1 --k 2 --sigma inf",
            "constant --m 1 --k 2 --lam inf",
            "constant --m 1 --k 2 --h-cap inf",
            "constant --m 1 --k 2 --cea-ratio inf",
            "converge --k 2 --cea-ratio inf --meshes 4,8",
            "converge --k 1 --m 1 --p 1.0 --cea-ratio -5 --meshes 4,8",
            "converge --k 1 --m 1 --p 1.0 --cea-ratio nan --meshes 4,8",
            "weakstar --bump-a=1 --bump-b=inf",
            "weakstar --bump-a=-inf --bump-b=2",
            "converge --k 1 --meshes 8,8",
            "constant --n 200 --m 1 --k 300",
            "constant --n 1 --m 200 --k 300",
            "constant --m 2 --k 3 --sigma 1e200",
            "constant --m 3 --k 5 --h-cap 1e200",
            "constant --m 1 --k 2 --lam 1e308 --sigma 1e10",
            "converge --k 2 --m 1 --cea-ratio 1e308 --meshes 4,8",
        ],
    )
    def test_bad_argument_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_failed_solve_is_not_usage_error(self, monkeypatch):
        # LinAlgError is a ValueError, but a failed solve is not the user's argument.
        from fem_accuracy import fem1d

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("nonpositive pivot")

        monkeypatch.setattr(fem1d, "convergence_study", fail)
        with pytest.raises(np.linalg.LinAlgError):
            main(["converge", "--meshes", "4"])

    @pytest.mark.parametrize("ratio", ["-5", "0.5", "nan", "inf"])
    def test_bad_cea_ratio_refused_before_any_solve(self, capsys, monkeypatch, ratio):
        # A usage error must not cost a study: nothing is assembled or solved.
        from fem_accuracy import fem1d

        def fail(*args, **kwargs):
            raise RuntimeError("assembled before the arguments were checked")

        monkeypatch.setattr(fem1d, "assemble_and_solve_all", fail)
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--k", "3", "--cea-ratio", ratio, "--meshes", "20000,40000,80000"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith("need finite lam > 0, cea_ratio >= 1, h_cap > 0")

    def test_import_loads_no_scipy(self):
        # scipy is imported by the functions that use it, not at start-up.
        code = "import sys, fem_accuracy.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_subcommands_load_only_the_scipy_they_need(self):
        # None of them needs scipy: quadrature and the weak-* integrals are
        # standard library, the Galerkin solve numpy only.
        code = (
            "import contextlib, io, json, sys\n"
            "from fem_accuracy.cli import main\n"
            "loaded = {}\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv.split()) == 0, argv\n"
            "    loaded[argv] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps(loaded))\n"
        )
        argv = [
            "bounds --n 1 --k 3 --r 2",
            "bounds --n 2 --k 4 --r 2",
            "weakstar --q-list 1,5,20",
            "converge --k 1 --meshes 4,8",
            "converge --k 3 --m 1 --meshes 16,32,64,128,256",
        ]
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == {cmd: [] for cmd in argv}


class TestColdStart:
    def test_no_numpy_until_a_subcommand_needs_it(self):
        # Importing the CLI, --help, `constant` (closed form, standard library
        # only), a usage error, an inadmissible constant, `basis` (exact
        # arithmetic, standard library only) and the closed forms and 1D
        # integrals of `prob`, `hstar-seq` and `weakstar` load no numpy.
        code = (
            "import contextlib, io, json, sys\n"
            "import fem_accuracy.cli\n"
            "loaded = {'import': 'numpy' in sys.modules}\n"
            "for argv in sys.argv[1:]:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            rc = fem_accuracy.cli.main(argv.split())\n"
            "        except SystemExit as exc:\n"
            "            rc = exc.code\n"
            "    loaded[argv] = [rc, 'numpy' in sys.modules, out.getvalue()]\n"
            "print(json.dumps(loaded))\n"
        )
        constant = "constant --n 1 --m 1 --k 4 --p 2.0"
        basis = "basis --n 2 --k 3"
        converge = "converge --k 1 --meshes 4,8"
        closed_forms = ["prob --k1 1 --k2 2 --steps 20", "hstar-seq --qmax 50", "weakstar --q-list 1,5,20"]
        argv = ["--help", constant, "constant --cea-ratio 0.5", "constant --m 2 --k 1", basis, *closed_forms, converge]
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True)
        loaded = json.loads(out.stdout)
        assert loaded.pop("import") is False
        assert {a: v[:2] for a, v in loaded.items()} == {
            "--help": [0, False],
            constant: [0, False],
            "constant --cea-ratio 0.5": [2, False],
            "constant --m 2 --k 1": [3, False],
            basis: [0, False],
            **{cmd: [0, False] for cmd in closed_forms},
            converge: [0, True],
        }
        # The lazily loaded layers print what a process with numpy loaded up front prints.
        for cmd in (constant, basis, *closed_forms, converge):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(cmd.split()) == 0
            assert loaded[cmd][2] == buf.getvalue()

    def test_numpy_subcommands_load_nothing_beyond_numpy(self):
        # bounds and converge load the standard library, the package and what
        # `import numpy` loads, and nothing more: no numpy.random for the scan's
        # points.  Each command runs in its own child, as it would from a shell.
        listing = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
        command = "import contextlib, io, sys\nfrom fem_accuracy.cli import main\n"
        command += "with contextlib.redirect_stdout(io.StringIO()):\n    main(sys.argv[1:])\n"

        def loaded(code, *argv):
            ran = [sys.executable, "-c", code + listing, *argv]
            return set(json.loads(subprocess.run(ran, capture_output=True, text=True, check=True).stdout))

        numpy = loaded("import numpy\n")
        extra = {}
        for argv in ("bounds --n 2 --k 4 --r 2", "converge --k 3 --m 1 --meshes 16,32,64,128,256"):
            names = loaded(command, *argv.split()) - numpy
            extra[argv] = sorted(m for m in names if m.split(".")[0] not in sys.stdlib_module_names | {"fem_accuracy"})
        assert extra == {argv: [] for argv in extra}


class TestFailedCheck:
    def test_failed_cap_exits_1(self, capsys):
        # The r = 1 cap k^3 is false at k = 12 in 1D: 1900.8 > 1728.
        code, out, err = run_main(capsys, ["bounds", "--n", "1", "--k", "12", "--r", "1", "--samples", "0", "--l", "0"])
        assert code == 1
        assert err == "FAIL: pointwise-cap\n"
        assert [r["pass"] for r in parse_csv(out)] == ["True", "False", "True"]

    def test_violated_bound_exits_1(self, capsys, monkeypatch):
        from fem_accuracy import fem1d

        row = {"k": 1, "m": 0, "p": 2.0, "h": 0.25, "error": 1.0, "bound": 0.5, "order_est": None, "pass": False}
        monkeypatch.setattr(fem1d, "convergence_study", lambda *args, **kwargs: ([row], None))
        code, out, err = run_main(capsys, ["converge", "--meshes", "4"])
        assert code == 1
        assert err == "FAIL: error exceeded the bound\n"
        assert parse_csv(out)[0]["pass"] == "False"


class TestBasisCommand:
    def test_quadratic_interval_dump(self, capsys):
        code, out, _ = run_main(capsys, ["basis", "--n", "1", "--k", "2", "--format", "json"])
        assert code == 0
        rows = parse_json_lines(out)
        assert len(rows) == 3
        bubble = next(r for r in rows if r["multi_index"] == [1, 1])
        assert bubble["terms"] == {"1 1": "4"}
        assert bubble["node"] == ["1/2", "1/2"]


class TestBoundsCommand:
    def test_pass_exit_code_and_rows(self, capsys):
        code, out, err = run_main(
            capsys,
            ["bounds", "--n", "1", "--k", "2", "--r", "1", "--samples", "200", "--format", "json"],
        )
        assert code == 0
        assert err == ""
        rows = parse_json_lines(out)
        assert len(rows) == 3
        assert all(r["pass"] for r in rows)
        names = {r["bound_name"] for r in rows}
        assert names == {"pointwise-cap", "seminorm-cap"}

    @pytest.mark.parametrize(
        "p,reason",
        [
            # 400th powers of the P3 gradients overflow: the cap printed measured inf and FAIL.
            pytest.param("400", "their p-th powers over- or underflow", id="overflow"),
            # The cap printed measured 1.0 and True.
            pytest.param("1e-300", "below p = 2^-20 their 1/p-th roots magnify rounding by over 2^20", id="p-near-0"),
        ],
    )
    def test_unmeasurable_seminorm_cap_is_usage_error(self, capsys, p, reason):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "1", "--k", "3", "--p", p])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        # Below p = 1 the index and the cap each warn, once, ahead of the usage lines.
        warned = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert captured.err.splitlines()[: len(warned)] == warned
        assert warned == (
            [
                f"warning: p = {float(p)} is outside the variational framework (need p > 1)",
                f"warning: seminorm cap outside its hypothesis: k+1 > l + n/p fails for k=3, l=1, n=1, p={float(p)}",
            ]
            if float(p) < 1
            else []
        )
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"fem-accuracy: error: the W^{{m,p}} seminorms cannot be measured in floats at p = {float(p):g}: {reason}"
        ]


    @pytest.mark.parametrize(
        "argv,error,scans",
        [
            # k^(r(n+2)) is 10^309 at r = 103: float ** raised OverflowError, a traceback with exit 1.
            # Every pointwise cap is checked before any scan, so r = 0..102 are not scanned first.
            ("bounds --n 1 --k 10 --r 400 --samples 0", "the pointwise cap leaves the floats at n=1, k=10, r=103", False),
            # 400! is an int beyond the floats: its product with a float raised OverflowError.
            (
                "bounds --n 1 --k 2 --l 400 --r 0 --samples 0",
                "the seminorm cap leaves the floats at n=1, k=2, l=400, p=2.0",
                True,
            ),
        ],
        ids=["pointwise", "seminorm"],
    )
    def test_cap_beyond_the_floats_is_usage_error(self, capsys, monkeypatch, argv, error, scans):
        if not scans:

            def scan(*args):
                raise AssertionError("a pointwise scan ran before every cap was checked")

            monkeypatch.setattr(kernels, "derivative_rows", scan)
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [f"fem-accuracy: error: {error}"]

    @pytest.mark.parametrize(
        "argv,error",
        [
            # The C(57, 7) = 264,385,836 lattice points ended in a MemoryError traceback.
            ("bounds --n 7", "a pointwise scan of 264395836 points is over the budget of 4000000"),
            # random.Random.randbytes was asked for 8 GB of sample words.
            ("bounds --samples 1000000000", "a pointwise scan of 1000000051 points is over the budget of 4000000"),
            # The seminorm cap's 50,002-point Gauss factor took minutes to build.
            ("bounds --p 1e5", "the seminorm cap's rule of 50002 points a factor is over its budget of 4000000 for g^2"),
            # p (k - l) = 2e308 leaves the floats: its ceil raised OverflowError, a traceback.
            ("bounds --k 3 --p 1e308", "the seminorm cap's rule of inf points a factor is over its budget of 4000000 for g^2"),
        ],
        ids=["lattice", "samples", "rule", "rule-beyond-the-floats"],
    )
    def test_over_budget_is_usage_error_before_any_work(self, capsys, monkeypatch, argv, error):
        from fem_accuracy import bounds, norms

        def work(*args):
            raise AssertionError("a scan or a seminorm began before the budgets were checked")

        monkeypatch.setattr(bounds, "barycentric_lattice", work)
        monkeypatch.setattr(norms, "element_powers", work)
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [f"fem-accuracy: error: {error}"]


class TestConstantCommand:
    def test_default_value(self, capsys):
        code, out, _ = run_main(capsys, ["constant", "--format", "json"])
        assert code == 0
        (row,) = parse_json_lines(out)
        assert row["script_C"] == pytest.approx(8.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "argv,want",
        [
            # c1 = 3, xi = sqrt(1 + 1e600) and K = 3 * 2^3 / 1.5: 4.8e301, xi overflowing in floats.
            ("constant --m 1 --k 2 --h-cap 1e300", 4.8e301),
            # c1 = c2 = 1 + 1/171! with 171! beyond the floats, xi = 1, K = 256^171 / (85! / 2).
            ("constant --n 171 --k 85", 2 * 256**171 / math.factorial(85)),
        ],
        ids=["h-cap-1e300", "n-171-k-85"],
    )
    def test_overflowing_factor_taken_in_log_space(self, capsys, argv, want):
        code, out, _ = run_main(capsys, argv.split() + ["--format", "json"])
        assert code == 0
        (row,) = parse_json_lines(out)
        # script_C is the exp of a log near 650 (694 for the first): a few hundred eps.
        assert row["script_C"] == pytest.approx(want, rel=1e-12)

    def test_inadmissible_exits_3(self, capsys):
        code, _, err = run_main(capsys, ["constant", "--m", "2", "--k", "1"])
        assert code == 3
        assert "fails" in err or "requires" in err


class TestProbCommand:
    def test_explicit_constants_route(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["prob", "--k1", "1", "--k2", "2", "--ck1", "20", "--ck2", "9", "--steps", "5"],
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        assert float(rows[0]["h_star"]) == pytest.approx(20.0 / 9.0, rel=1e-12)
        probs = [float(r["probability"]) for r in rows]
        assert all(b <= a for a, b in zip(probs, probs[1:]))
        assert {"h", "probability", "step", "h_star"} == set(rows[0])

    def test_formula_route(self, capsys):
        code, out, _ = run_main(capsys, ["prob", "--steps", "3", "--format", "json"])
        assert code == 0
        rows = parse_json_lines(out)
        assert rows[0]["h_star"] == pytest.approx(20.0 / 9.0, rel=1e-12)

    def test_inadmissible_pair_exits_3(self, capsys):
        code, _, err = run_main(capsys, ["prob", "--m", "2", "--k1", "1", "--k2", "3"])
        assert code == 3
        assert err.strip()

    @pytest.mark.parametrize(
        "argv,names",
        [
            ("--ck1 inf --ck2 1", "c_k1 and c_k2"),
            ("--ck1 1 --ck2 inf", "c_k1 and c_k2"),
            ("--seminorm-ratio inf", "seminorm_ratio and cea_quotient"),
            ("--cea-ratio inf", "seminorm_ratio and cea_quotient"),
        ],
        ids=["ck1-inf", "ck2-inf", "seminorm-ratio-inf", "cea-ratio-inf"],
    )
    def test_infinite_constant_is_named(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exc:
            main(["prob", *argv.split()])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == f"fem-accuracy: error: {names} must be positive and finite"


class TestHstarSeqCommand:
    def test_sequence_rows(self, capsys):
        code, out, _ = run_main(capsys, ["hstar-seq", "--qmax", "5"])
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["q"]) for r in rows] == [1, 2, 3, 4, 5]
        hs = [float(r["h_star"]) for r in rows]
        assert all(a < b for a, b in zip(hs, hs[1:]))
        assert hs[0] == pytest.approx((20.0 / 9.0) / math.pi, rel=1e-10)
        assert float(rows[4]["h_star_over_q"]) == pytest.approx(hs[4] / 5.0, rel=1e-12)

    def test_p_beyond_lgamma_range(self, capsys):
        # The sine model's seminorm ratio does not depend on p, so a p near the
        # float limit runs (it once was an OverflowError traceback with exit 1).
        code, out, err = run_main(capsys, ["hstar-seq", "--qmax", "2", "--p", "1e306"])
        assert (code, err) == (0, "")
        assert out == run_main(capsys, ["hstar-seq", "--qmax", "2", "--p", "5e305"])[1]


class TestWeakstarCommand:
    def test_ladder_errors(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["weakstar", "--q-list", "1,20,50", "--bump-a", "0.5", "--bump-b", "2.0", "--format", "json"],
        )
        assert code == 0
        rows = parse_json_lines(out)
        assert [r["q"] for r in rows] == [1, 20, 50]
        assert rows[-1]["error"] < 1e-6

    def test_p_beyond_lgamma_range(self, capsys):
        code, out, err = run_main(capsys, ["weakstar", "--q-list", "1", "--p", "1e308"])
        assert (code, err) == (0, "")
        assert out == run_main(capsys, ["weakstar", "--q-list", "1", "--p", "5e305"])[1]


class TestConvergeCommand:
    def test_study_rows(self, capsys):
        code, out, _ = run_main(
            capsys, ["converge", "--k", "1", "--meshes", "4,8", "--format", "json"]
        )
        assert code == 0
        rows = parse_json_lines(out)
        assert len(rows) == 2
        assert rows[0]["slope"] == pytest.approx(2.0, abs=0.2)
        assert all(r["pass"] for r in rows)

    def test_cubic_problem_option(self, capsys):
        code, out, _ = run_main(
            capsys, ["converge", "--k", "3", "--problem", "cubic", "--meshes", "2,4", "--format", "json"]
        )
        assert code == 0
        rows = parse_json_lines(out)
        # Exactly reproduced solution: errors at rounding level.
        assert all(r["error"] < 1e-10 for r in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "3", "--meshes", "128,512,1024,2048"],
            ["--k", "3", "--m", "1", "--problem", "cubic", "--meshes", "8,64,256,1024"],
        ],
    )
    def test_fine_meshes_pass_past_the_vertex_floor(self, capsys, argv):
        # Both printed FAIL (exit 1) while the vertex system was solved by subtraction: a
        # slope of 0.51 against 4, and cubic errors up to 1.4e-10 where the bound is 0.
        code, out, _ = run_main(capsys, ["converge", *argv])
        assert code == 0
        assert all(r["pass"] == "True" for r in parse_csv(out))


    @pytest.mark.parametrize("p", ["400", "1e300"])
    def test_p_whose_powers_leave_the_floats_is_usage_error(self, capsys, p):
        # |u - u_h|^p underflows to 0 and |u|^p overflows: the study cannot be measured.
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--k", "2", "--p", p, "--meshes", "2,4"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"fem-accuracy: error: the W^{{m,p}} seminorms cannot be measured in floats "
            f"at p = {float(p):g}: their p-th powers over- or underflow"
        )

    def test_p_near_zero_is_usage_error(self, capsys):
        # The 1/p-th root magnifies rounding by 1/p: at p = 1e-300 every error printed 1.0.
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--k", "2", "--p", "1e-300", "--meshes", "2,4"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[0] == "warning: p = 1e-300 is outside the variational framework (need p > 1)"
        assert captured.err.count("warning:") == 1
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "at p = 1e-300:" in errors[0]

    @pytest.mark.parametrize("k", ["2", "3"])
    def test_total_whose_root_leaves_the_floats_is_usage_error(self, capsys, k):
        # Each seminorm is finite at p = 1e-3, but the 1/p-th root of their W^{2,p}
        # total overflows; this was an OverflowError traceback with exit 1.
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--k", k, "--m", "2", "--p", "1e-3", "--meshes", "8,16"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[0] == P_WARNING
        assert captured.err.count("warning:") == 1
        assert captured.err.splitlines()[-1] == (
            "fem-accuracy: error: the W^{m,p} seminorms cannot be measured in floats "
            "at p = 0.001: their total or its 1/p-th root over- or underflows"
        )
        # A total inside the float range prints as before.
        code, out, err = run_main(capsys, ["converge", "--k", "2", "--m", "1", "--p", "1e-3", "--meshes", "8,16"])
        assert code == 0 and err == P_WARNING + "\n"
        assert [r["error"] for r in parse_csv(out)] == ["9.902172322358021e+297", "1.7413485399564797e+297"]

    def test_small_p_above_the_floor_is_measured(self, capsys):
        code, out, err = run_main(capsys, ["converge", "--k", "2", "--p", "1e-3", "--meshes", "2,4"])
        assert code == 0 and err == P_WARNING + "\n"
        rows = parse_csv(out)
        # The errors as printed before the floor on p (on the Gauss rule by Newton, with
        # shape-function tables as products of node factors); the least-squares slope's
        # last digits depend on the BLAS core.
        assert [r["error"] for r in rows] == ["0.012231297007076218", "0.0013521468326781795"]
        assert float(rows[0]["slope"]) == pytest.approx(3.1772536646470404, rel=1e-13)


class TestOutputHandling:
    def test_out_file_writes_and_silences_stdout(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_main(capsys, ["constant", "--out", str(target)])
        assert code == 0
        assert out == ""
        rows = parse_csv(target.read_text())
        assert float(rows[0]["script_C"]) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main(["constant", "--out", str(target)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"error: cannot write --out {target}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_csv_and_json_agree(self, capsys):
        _, out_csv, _ = run_main(capsys, ["hstar-seq", "--qmax", "3"])
        _, out_json, _ = run_main(capsys, ["hstar-seq", "--qmax", "3", "--format", "json"])
        csv_rows = parse_csv(out_csv)
        json_rows = parse_json_lines(out_json)
        for c, j in zip(csv_rows, json_rows):
            assert float(c["h_star"]) == pytest.approx(j["h_star"], rel=1e-12)


def readme_commands():
    """The `fem-accuracy ...` lines of the README's "Command line" block, as argv lists."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.startswith("fem-accuracy ")]


class TestReadmeExamples:
    def test_examples_exit_0(self, capsys):
        commands = readme_commands()
        assert len(commands) >= 7
        for argv in commands:
            code, out, err = run_main(capsys, argv)
            assert code == 0, (argv, err)
            assert out, argv


def declared_console_script(name):
    """The console-script entry point ``name`` as pyproject.toml declares it."""
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no [project.scripts] {name}"
    return importlib.metadata.EntryPoint(name=name, value=scripts[name], group="console_scripts")


def write_launcher(entry_point, directory):
    """Write the launcher an installer generates for ``entry_point``."""
    launcher = directory / entry_point.name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry_point.module} import {entry_point.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({entry_point.attr}())\n"
    )
    launcher.chmod(0o755)
    return launcher


class TestEntryPoint:
    def test_console_script_installed(self, tmp_path):
        """The package ships a working ``fem-accuracy`` command.

        The entry point declared in pyproject.toml must load ``fem_accuracy.cli.main``
        and ``main`` must return the documented exit codes.  If the ``fem-accuracy``
        distribution is installed, its metadata must match that declaration and its
        script must be on PATH or in the interpreter's scripts directory; that script
        is run.  Otherwise (the suite run from the source tree with ``PYTHONPATH=src``)
        no script can exist, so the launcher an installer would generate from the
        declaration is written to a temporary directory and run instead.
        """
        entry_point = declared_console_script("fem-accuracy")
        assert entry_point.load() is main
        seeded = ["bounds", "--n", "1", "--k", "3", "--r", "1", "--samples", "500"]
        seeded += ["--seed", "3", "--format", "json"]
        assert main(seeded) == 0
        assert main(["constant", "--m", "2", "--k", "1"]) == 3

        try:
            dist = importlib.metadata.distribution("fem-accuracy")
        except importlib.metadata.PackageNotFoundError:
            launcher = [str(write_launcher(entry_point, tmp_path))]
        else:
            installed = dist.entry_points.select(group="console_scripts", name="fem-accuracy")
            assert [ep.value for ep in installed] == [entry_point.value]
            scripts_dir = sysconfig.get_path("scripts")
            script = shutil.which("fem-accuracy") or shutil.which("fem-accuracy", path=scripts_dir)
            assert script is not None
            launcher = [script]

        usage = subprocess.run(launcher + ["--help"], capture_output=True, text=True)
        assert usage.returncode == 0, usage.stderr
        assert usage.stdout.startswith("usage: fem-accuracy")
        unknown = subprocess.run(launcher + ["no-such-command"], capture_output=True)
        assert unknown.returncode == 2
        ran = subprocess.run(launcher + seeded, capture_output=True, check=True)
        module = subprocess.run(
            [sys.executable, "-m", "fem_accuracy.cli"] + seeded, capture_output=True, check=True
        )
        assert ran.stdout == module.stdout
        assert ran.stdout

    def test_module_invocation_deterministic(self):
        cmd = [
            sys.executable,
            "-m",
            "fem_accuracy.cli",
            "bounds",
            "--n",
            "1",
            "--k",
            "3",
            "--r",
            "1",
            "--samples",
            "500",
            "--seed",
            "3",
            "--format",
            "json",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout

    def test_usage_error_exit_code(self):
        out = subprocess.run(
            [sys.executable, "-m", "fem_accuracy.cli", "no-such-command"],
            capture_output=True,
        )
        assert out.returncode == 2

    def test_library_warning_is_one_line_without_a_source_path(self):
        # p = 1 warns from two places in the library (the error report and the
        # constant's index); the process prints the message once, with no file path.
        out = subprocess.run(
            [sys.executable, "-m", "fem_accuracy.cli", "converge", "--k", "2", "--p", "1", "--meshes", "2,4"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0 and out.stdout
        assert out.stderr == "warning: p = 1.0 is outside the variational framework (need p > 1)\n"

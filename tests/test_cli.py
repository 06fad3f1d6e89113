import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from haar_riesz import (
    CoefficientMap,
    DyadicInterval,
    StepSet,
    build_gram,
    comparison_table,
    parse_rational,
    render_float,
    riesz_constant,
)
from haar_riesz import gram as gram_module
from haar_riesz.cli import MAX_PRECISION, run
from haar_riesz.search import _CountTree

from conftest import prime_shifted_set


@pytest.fixture
def two_thirds_file(tmp_path):
    path = tmp_path / "two_thirds.json"
    path.write_text(json.dumps(StepSet(((0, F(2, 3)),)).to_json_dict()))
    return str(path)


def test_counterexample_csv(tmp_path, capsys):
    assert run(["counterexample", "--n", "3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 5  # header + 4 data rows
    first = lines[1].split(",")
    assert first[1] == "2/3"
    assert first[3] == "1/1"


def test_counterexample_json_round_trip(capsys):
    assert run(["counterexample", "--n", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert parse_rational(rows[2]["sum_of_norms"]) == F(1)
    assert parse_rational(rows[2]["norm_of_sum"]) == F(2, 3)


def test_verify_weights(capsys):
    assert run(["verify-weights", "--p", "3/4", "--grid", "256"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gpos_failures"] == []
    assert report["gcomp_failures"] == []
    assert parse_rational(report["C"]) == 16
    assert report["grid_step"] == "1/256"


def test_gram_certificate_passes(two_thirds_file, capsys):
    code = run(
        [
            "gram",
            "--set",
            two_thirds_file,
            "--p",
            "1/2",
            "--depth",
            "6",
            "--c",
            "1/100",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["riesz"]["certified"] is True
    assert report["family_size"] == 85


def test_gram_certificate_fails_above_pencil_floor(two_thirds_file, capsys):
    # the zig-zag subfamily pins λ_min ≤ 4/7 < 3/5 at depth 6
    code = run(
        ["gram", "--set", two_thirds_file, "--p", "1/2", "--depth", "6", "--c", "3/5"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["riesz"]["certified"] is False


def test_gram_bessel_and_csv(two_thirds_file, tmp_path, capsys):
    out = tmp_path / "gram.csv"
    code = run(
        [
            "gram",
            "--set",
            two_thirds_file,
            "--p",
            "3/4",
            "--depth",
            "2",
            "--bessel",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().strip().split("\n")
    # admissible family at depth 2 on [0, 2/3): {[0,1/2), [0,1/4), [1/4,1/2)}
    assert len(rows) == 3


def test_gram_built_once_with_unchanged_output(two_thirds_file, monkeypatch, capsys):
    # one exact Gram serves the pencil bounds and the shown view, and the
    # pivot pass decides both verdicts without one; the expected reports are
    # the output of four separate builds
    import haar_riesz.cli as cli

    calls = []

    def counting_build_gram(*args, **kwargs):
        calls.append(kwargs)
        return build_gram(*args, **kwargs)

    monkeypatch.setattr(cli, "build_gram", counting_build_gram)
    argv = ["gram", "--set", two_thirds_file, "--p", "1/2", "--depth", "2", "--c", "1/4", "--bessel"]
    labels = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
    entries = [["0/1"] * 5 for _ in range(5)]
    for i, value in enumerate(["2/3", "1/2", "1/4", "1/4", "1/6"]):
        entries[i][i] = value
    entries[0][4] = entries[4][0] = "-1/12"
    expected = {
        "p": "1/2",
        "depth": 2,
        "family_size": 5,
        "pencil_eig": ["0.74999999999999989", "1.2499999999999998"],
        "riesz": {"c": "1/4", "certified": True},
        "bessel": {"bound": "2/1", "certified": True},
        "gram": {
            "size": 5,
            "normalized": False,
            "labels": [{"level": level, "index": index} for level, index in labels],
            "entries": entries,
        },
    }
    assert run(argv) == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    assert len(calls) == 1

    assert run(argv + ["--normalized", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "1,0,0,0,-0.25\n0,1,0,0,0\n0,0,1,0,0\n0,0,0,1,0\n-0.25,0,0,0,1\n"
    )
    assert len(calls) == 2


def test_gram_normalized_json_keeps_the_raw_entries(two_thirds_file, capsys):
    # json prints the exact raw rationals with the flag set, not the float
    # view: the normalized entries involve square roots
    argv = ["gram", "--set", two_thirds_file, "--p", "1/3", "--depth", "1"]
    assert run(argv) == 0
    raw = json.loads(capsys.readouterr().out)["gram"]
    assert run(argv + ["--normalized"]) == 0
    shown = json.loads(capsys.readouterr().out)["gram"]
    assert shown["normalized"] is True and raw["normalized"] is False
    assert shown["entries"] == raw["entries"] == [
        ["2/3", "0/1", "-1/6"],
        ["0/1", "1/2", "0/1"],
        ["-1/6", "0/1", "1/6"],
    ]


def test_constants_csv(capsys):
    assert run(["constants", "--p-list", "43/64,3/4,4/5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "p,c_paper,c_asymptotic,c_sharp_conjectured,c_bcms"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["3/4"][4] == ""  # blank BCMS at the boundary
    assert rows["4/5"][4] != ""
    assert parse_rational(rows["3/4"][1]) == F(1, 16)


def test_constants_range_and_file(tmp_path, capsys):
    assert run(["constants", "--p-list", "7/10:9/10:1/10", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in rows] == ["7/10", "4/5", "9/10"]
    listing = tmp_path / "ps.txt"
    listing.write_text("3/4\n9/10\n")
    assert run(["constants", "--p-list", str(listing), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in rows] == ["3/4", "9/10"]


def test_search_writes_result(tmp_path):
    out = tmp_path / "result.json"
    code = run(
        [
            "search",
            "--p",
            "3/4",
            "--depth",
            "3",
            "--resolution",
            "5",
            "--iters",
            "4",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 7
    assert len(payload["history"]) == 4
    StepSet.from_json_dict(payload["best_set"])  # parses back


def test_search_honours_precision(capsys):
    command = ["search", "--p", "3/4", "--depth", "3", "--resolution", "5"]
    command += ["--iters", "4", "--seed", "7"]
    assert run(command) == 0
    full = json.loads(capsys.readouterr().out)
    assert run(command + ["--precision", "5"]) == 0
    short = json.loads(capsys.readouterr().out)
    assert short["best_ratio"] == format(float(full["best_ratio"]), ".5g")
    assert [r for _, r in short["history"]] == [
        format(float(r), ".5g") for _, r in full["history"]
    ]
    assert short["best_set"] == full["best_set"]
    assert short["certificate_lower"] == full["certificate_lower"]


def test_induction_check(two_thirds_file, tmp_path, capsys):
    coeffs = CoefficientMap(
        {DyadicInterval(0, 0): F(1), DyadicInterval(1, 0): F(-2), DyadicInterval(2, 1): F(1, 2)}
    )
    coeffs_file = tmp_path / "coeffs.json"
    coeffs_file.write_text(json.dumps(coeffs.to_json_dict()))
    code = run(
        [
            "induction-check",
            "--set",
            two_thirds_file,
            "--coeffs",
            str(coeffs_file),
            "--p",
            "17/24",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert report["telescoping_exact"] is True
    assert len(report["steps"]) == 2


def test_demo_perturbation(capsys):
    assert run(["demo-perturbation", "--n", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sum_norm_sq"] == "2/1"
    assert report["norm_of_sum_sq"] == "0/1"
    assert report["per_vector_perturbation"] == "1/3"


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["counterexample", "--n", "1", "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_rational(self, capsys):
        assert run(["verify-weights", "--p", "0.75"]) == 2

    def test_out_of_domain(self, capsys):
        assert run(["verify-weights", "--p", "1/2"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert (
            run(["gram", "--set", "/nonexistent.json", "--p", "3/4", "--depth", "2"])
            == 2
        )

    @pytest.mark.parametrize(
        "args,content",
        [
            pytest.param(["gram", "--set"], {"intervals": [["1/2"]]}, id="short-pair"),
            pytest.param(["gram", "--set"], {"intervals": 5}, id="intervals-not-a-list"),
            pytest.param(["gram", "--set"], {"intervals": [[None, "1"]]}, id="null-end"),
            pytest.param(["gram", "--set"], b"\xff\xfe{", id="set-not-utf8"),
            pytest.param(["induction-check", "--coeffs"], {"coeffs": [{"level": 1}]}, id="no-index"),
            pytest.param(["induction-check", "--coeffs"], {"coeffs": 5}, id="coeffs-not-a-list"),
            pytest.param(
                ["induction-check", "--coeffs"],
                {"coeffs": [{"level": 1.9, "index": 0.7, "a": "1"}]},
                id="float-level-and-index",
            ),
            pytest.param(
                ["induction-check", "--coeffs"],
                {"coeffs": [{"level": True, "index": 0, "a": "1"}]},
                id="bool-level",
            ),
            pytest.param(["gram", "--set"], {"intervals": [["0", "1/2", "junk"]]}, id="long-pair"),
            pytest.param(["constants", "--p-list"], None, id="p-list-directory"),
            pytest.param(["constants", "--p-list"], b"3/4,\xff", id="p-list-not-utf8"),
        ],
    )
    def test_malformed_input_files(self, capsys, tmp_path, two_thirds_file, args, content):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
        rest = {
            "gram": ["--p", "1/2", "--depth", "2"],
            "induction-check": ["--set", two_thirds_file, "--p", "3/4"],
            "constants": [],
        }[args[0]]
        assert run(args + [str(path)] + rest) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")

    @pytest.mark.parametrize(
        "intervals",
        [
            pytest.param([[0, 0.5]], id="float-end"),
            pytest.param([[0.0, "1/2"]], id="integral-float-end"),
            pytest.param([[False, True]], id="bool-ends"),
            pytest.param([["0", True]], id="bool-end"),
        ],
    )
    def test_set_ends_are_json_integers_or_strings(self, capsys, tmp_path, intervals):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"intervals": intervals}))
        assert run(["gram", "--set", str(path), "--p", "1/2", "--depth", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: step set JSON must be")

    def test_set_ends_may_be_integers_or_fractions(self, capsys, tmp_path):
        outputs = []
        for intervals in ([["1/3", 1]], [["1/3", "1/1"]]):
            path = tmp_path / "set.json"
            path.write_text(json.dumps({"intervals": intervals}))
            assert run(["gram", "--set", str(path), "--p", "1/2", "--depth", "2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and json.loads(outputs[0])["family_size"] > 0

    def test_negative_n(self, capsys):
        assert run(["counterexample", "--n", "-3"]) == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["counterexample", "--n", "2"],
            ["demo-perturbation", "--n", "3"],
            ["search", "--p", "3/4", "--depth", "2", "--resolution", "3", "--iters", "1", "--seed", "1"],
        ],
    )
    def test_negative_precision(self, capsys, command):
        assert run(command + ["--precision", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: precision")

    def test_negative_precision_on_gram(self, capsys, two_thirds_file):
        command = ["gram", "--set", two_thirds_file, "--p", "1/2", "--depth", "2"]
        assert run(command + ["--precision", "-1"]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("precision", [MAX_PRECISION + 1, 2**31, 10**11])
    @pytest.mark.parametrize(
        "command",
        [
            ["constants", "--p-list", "3/4"],
            ["search", "--p", "3/4", "--depth", "3", "--resolution", "4", "--iters", "3"]
            + ["--seed", "1"],
        ],
    )
    def test_precision_past_the_cap(self, capsys, command, precision):
        assert run(command + ["--precision", str(precision)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: precision must lie in [0, {MAX_PRECISION}]")

    def test_precision_at_the_cap_prints_every_digit(self, capsys):
        assert MAX_PRECISION == 767
        assert run(["constants", "--p-list", "3/4", "--precision", "767"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        (report,) = comparison_table([F(3, 4)])
        assert row[2] == format(report.asymptotic, ".767g")
        # the longest exact expansion of a float64 has 767 significant digits
        smallest_normal = 2.0**-1022 - 2.0**-1074
        digits = format(smallest_normal, ".800g").split("e")[0].replace(".", "")
        assert len(digits.rstrip("0")) == MAX_PRECISION
        assert render_float(smallest_normal, 767) == render_float(smallest_normal, 800)

    def test_unwritable_out(self, capsys, tmp_path):
        for out in (tmp_path, tmp_path / "missing" / "x.csv"):
            assert run(["constants", "--p-list", "3/4", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"input error: cannot write the report to {out}")

    def test_theorem_floor_undercut_exits_1(self, capsys, monkeypatch):
        floor = float(riesz_constant(F(3, 4)))
        monkeypatch.setattr(
            _CountTree, "extremes", lambda self, p, memo: (floor - 1e-3, 1.0, 1)
        )
        command = ["search", "--p", "3/4", "--depth", "2", "--resolution", "3"]
        assert run(command + ["--iters", "2", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure: computed ratio")

    def test_unconverged_eigensolver_exits_3(self, capsys, monkeypatch, two_thirds_file):
        # [0, 2/3) at p = 1/2, depth 2: the root carries a slope, so its
        # members form one block of five
        command = ["gram", "--set", two_thirds_file, "--p", "1/2", "--depth", "2"]
        assert run(command) == 0
        assert json.loads(capsys.readouterr().out)["family_size"] == 5
        monkeypatch.setattr(gram_module, "_JACOBI_MAX_SWEEPS", 0)
        assert run(command) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: Jacobi iteration did not converge")


class TestResourceCaps:
    """Oversized inputs exit 2 before anything is allocated."""

    def test_grid_cap(self, capsys, monkeypatch):
        from haar_riesz import weights

        def reached(*args):
            raise AssertionError("the grid sweep was reached")

        monkeypatch.setattr(weights, "weight_mass", reached)
        code = run(["verify-weights", "--p", "3/4", "--grid", str(weights.MAX_GRID + 1)])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_p_list_range_cap(self, capsys, monkeypatch):
        import haar_riesz.cli as cli

        def reached(*args):
            raise AssertionError("the range was expanded")

        monkeypatch.setattr(cli, "_range_values", reached)
        assert run(["constants", "--p-list", f"0:1:1/{cli.MAX_P_LIST}"]) == 2
        assert run(["constants", "--p-list", "0:1:1/1000000000000"]) == 2
        assert "values" in capsys.readouterr().err
        with pytest.raises(AssertionError):  # the cap itself is accepted
            run(["constants", "--p-list", f"1:{cli.MAX_P_LIST}:1"])

    def test_p_list_range_values(self):
        from haar_riesz.cli import _parse_p_list

        assert _parse_p_list("7/10:9/10:1/10") == [F(7, 10), F(8, 10), F(9, 10)]
        assert _parse_p_list("1/2:1:1/3") == [F(1, 2), F(5, 6)]
        assert _parse_p_list("1:1/2:1/10") == []

    def test_search_iteration_cap(self, capsys, monkeypatch):
        from haar_riesz import search

        def reached(*args):
            raise AssertionError("a candidate was drawn")

        monkeypatch.setattr(search, "_draw_cells", reached)
        base = ["search", "--p", "3/4", "--depth", "2", "--resolution", "3", "--seed", "1"]
        for iters in (search.MAX_ITERATIONS + 1, 10**12):
            assert run(base + ["--iters", str(iters)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("input error: iterations")
        with pytest.raises(AssertionError):  # the cap itself is accepted
            run(base + ["--iters", str(search.MAX_ITERATIONS)])

    def test_count_table_bit_budget(self, capsys, monkeypatch, tmp_path):
        from haar_riesz import measure

        def reached(*args):
            raise AssertionError("the set was swept")

        monkeypatch.setattr(measure, "measures_below", reached)
        path = tmp_path / "set.json"
        path.write_text(json.dumps(prime_shifted_set(3000).to_json_dict()))
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps(CoefficientMap({DyadicInterval(0, 0): F(1)}).to_json_dict()))
        for args in (
            ["gram", "--set", str(path), "--p", "1/2", "--depth", "16"],
            ["induction-check", "--set", str(path), "--coeffs", str(coeffs), "--p", "3/4", "--levels", "15"],
        ):
            assert run(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("input error: the level-16 count table")

    def test_table_and_demo_caps(self, capsys, monkeypatch):
        from haar_riesz import counterexample, gram

        def reached(*args):
            raise AssertionError("the work was started")

        monkeypatch.setattr(counterexample, "_descent", reached)
        monkeypatch.setattr(gram, "Fraction", reached)
        n = str(counterexample.MAX_TABLE_N + 1)
        assert run(["counterexample", "--n", n]) == 2
        assert run(["demo-perturbation", "--n", str(gram.MAX_VECTORS + 1)]) == 2
        assert capsys.readouterr().err.count("input error") == 2

    def test_induction_levels_cap(self, capsys, monkeypatch, two_thirds_file, tmp_path):
        from haar_riesz import weights

        def reached(*args):
            raise AssertionError("a level was swept")

        monkeypatch.setattr(weights, "weighted_norm_sq", reached)
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps(CoefficientMap({DyadicInterval(0, 0): F(1)}).to_json_dict()))
        args = ["induction-check", "--set", two_thirds_file, "--coeffs", str(coeffs)]
        args += ["--p", "3/4", "--levels", str(weights.MAX_LEVEL + 1)]
        assert run(args) == 2
        assert "level" in capsys.readouterr().err

    def test_negative_induction_levels(self, capsys, two_thirds_file, tmp_path):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps(CoefficientMap().to_json_dict()))
        args = ["induction-check", "--set", two_thirds_file, "--coeffs", str(coeffs)]
        args += ["--p", "3/4"]
        assert run(args + ["--levels", "-7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "top level must be >= 0, got -7" in captured.err
        assert run(args) == 0  # no coefficients and no --levels: level 0
        assert json.loads(capsys.readouterr().out)["top_level"] == 0

    @pytest.mark.parametrize("level", [17, 400])
    def test_coefficient_levels_past_the_cap_keep_their_message(
        self, capsys, two_thirds_file, tmp_path, level
    ):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps({"coeffs": [{"level": level, "index": 0, "a": "1"}]}))
        args = ["induction-check", "--set", two_thirds_file, "--coeffs", str(coeffs)]
        assert run(args + ["--p", "3/4"]) == 2
        assert f"input error: level must be <= 16, got {level}" in capsys.readouterr().err

    def test_deep_coefficient_level_exits_before_allocating(self, two_thirds_file, tmp_path):
        """Level 10^12 exits 2 with a small peak-RSS growth.  The check runs
        in a child process whose address space is capped, so a route that
        built 1 << level would fail there and not strain the machine."""
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps({"coeffs": [{"level": 10**12, "index": 0, "a": "1"}]}))
        script = (
            "import resource, sys\n"
            "from haar_riesz.cli import run\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "code = run(['induction-check', '--set', sys.argv[1], '--coeffs', sys.argv[2],"
            " '--p', '3/4'])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(code, after - before)\n"
        )
        src = str(Path(__import__("haar_riesz").__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        child = subprocess.run(
            [sys.executable, "-c", script, two_thirds_file, str(coeffs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert "coefficient level must be <= 400" in child.stderr
        code, growth_kib = map(int, child.stdout.split())
        assert code == 2
        assert growth_kib < 8 * 1024

    def test_search_resolution_cap(self):
        from haar_riesz.search import MAX_RESOLUTION

        args = ["search", "--p", "3/4", "--depth", "2", "--iters", "1", "--seed", "1"]
        args += ["--resolution", str(MAX_RESOLUTION + 1)]
        for mode in ("random", "greedy-flip"):
            assert run(args + ["--mode", mode]) == 2

    def test_dense_cap_exits_before_allocating(self, capsys, tmp_path):
        """A family past gram.MAX_DENSE members exits 2 with no dense view
        built: the full depth-12 family (8191 members) would take 512 MiB."""
        full = tmp_path / "full.json"
        full.write_text(json.dumps(StepSet(((0, 1),)).to_json_dict()))
        commands = [
            ["gram", "--set", str(full), "--p", "1/2", "--depth", "12"],
            ["search", "--p", "1/2", "--depth", "11", "--resolution", "12", "--bias", "1"]
            + ["--iters", "1", "--seed", "1"],
        ]
        for command in commands:
            tracemalloc.start()
            try:
                code = run(command)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 2
            assert "input error: a dense matrix of" in capsys.readouterr().err
            assert peak < 8 << 20

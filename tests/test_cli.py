import json
import time
from fractions import Fraction

import pytest

from bmbounds import upperiso
from bmbounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertifyCommand:
    def test_certified_at_113_32(self, capsys):
        code, out, _ = run(capsys, "certify", "--t", "113/32")
        assert code == 0
        assert "certified" in out

    def test_not_certified_at_4(self, capsys):
        code, out, _ = run(capsys, "certify", "--t", "4")
        assert code == 1
        assert "not certified" in out

    def test_guard_error_is_exit_2(self, capsys):
        code, _, err = run(capsys, "certify", "--t", "1")
        assert code == 2
        assert "guard" in err

    def test_single_case_filter(self, capsys):
        code, out, _ = run(capsys, "certify", "--t", "4", "--case", "j012",
                           "--format", "structured")
        doc = json.loads(out)
        assert [e["case"] for e in doc["cases"]] == ["J012"]

    def test_decimal_literal_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--t", "3.5"])
        assert exc.value.code == 2

    def test_non_ascii_digits_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--t", "\u0661\u0661\u0663/\u0663\u0662"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "bmbounds certify: error: argument --t: not a p/q rational literal")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, text, digits", [
        ("--t", "1" + "0" * 5000 + "/3", 5001),
        ("--c-policy", "9" * 5000 + ",1,4", 5000),
    ], ids=["t", "c-policy"])
    def test_overlong_literal_rejected(self, capsys, int_digit_limit, flag, text, digits):
        """A literal past int()'s digit limit is a usage error of one line that
        gives its digit count."""
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--t", "113/32", flag, text])
        assert exc.value.code == 2
        usage, error = capsys.readouterr().err.split("bmbounds certify: error: ")
        assert usage.startswith("usage: bmbounds certify") and "Traceback" not in usage
        assert error == f"argument {flag}: integer literal too long: {digits} digits\n"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_number_past_the_digit_limit_is_exit_2(self, capsys, int_digit_limit, fmt):
        """A t the parser accepts whose report would print a number past
        int()'s digit limit (an echoed rhs here) is exit 2 with one line."""
        code, out, err = run(capsys, "certify", "--t", "1" + "0" * 2200 + "/3", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: a number to print has more than {int_digit_limit} digits," \
                      " the interpreter's limit\n"

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--t", "4", "--frobnicate"])
        assert exc.value.code == 2


class TestSearchCommand:
    def test_headline_bound(self, capsys):
        code, out, _ = run(capsys, "search", "--lo", "3", "--hi", "5", "--iters", "6",
                           "--c-policy", "2,1,4")
        assert code == 0
        assert "113/32" in out
        assert "3.53125" in out

    def test_structured_trace(self, capsys):
        code, out, _ = run(capsys, "search", "--iters", "4", "--format", "structured")
        doc = json.loads(out)
        assert doc["kind"] == "search"
        assert doc["t_lo"] == "7/2"
        assert len(doc["trace"]) == 6  # two endpoints + four probes

    def test_bad_bracket_exit_2(self, capsys):
        code, _, err = run(capsys, "search", "--lo", "5", "--hi", "3")
        assert code == 2
        assert "inverted" in err


    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_iters_bounded_before_any_decision(self, capsys, monkeypatch, command):
        """More than MAX_ITERS bisection steps is exit 2 with one line, before a
        case is decided or a system built."""
        import bmbounds.certify as certify_mod
        import bmbounds.reference as reference_mod
        import bmbounds.systems as systems_mod

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("no case may be decided")

        for module in (certify_mod, systems_mod):
            monkeypatch.setattr(module, "build_case_system", boom)
            monkeypatch.setattr(module, "case_rows", boom)
        monkeypatch.setattr(reference_mod, "build_case_system", boom)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--iters", "100000")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", "error: --iters 100000 exceeds the limit of 1000\n")

    def test_iters_cap_is_inclusive(self, capsys, monkeypatch):
        import bmbounds.certify as certify_mod

        monkeypatch.setattr(certify_mod, "MAX_ITERS", 3)
        code, out, _ = run(capsys, "search", "--iters", "3", "--format", "structured")
        assert (code, len(json.loads(out)["trace"])) == (0, 5)
        code, out, err = run(capsys, "search", "--iters", "4")
        assert (code, out, err) == (2, "", "error: --iters 4 exceeds the limit of 3\n")


class TestSweepCommand:
    def test_default_policies_rank(self, capsys):
        code, out, _ = run(capsys, "sweep", "--iters", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "policy,t_lo,t_hi"
        assert lines[1].startswith("2;1;4,113/32")

    def test_repeated_policy_is_exit_2(self, capsys, monkeypatch):
        """As for a repeated --functions index: one line, before any search."""
        import bmbounds.certify as certify_mod

        searched = []
        monkeypatch.setattr(certify_mod, "binary_search_bound",
                            lambda *args: searched.append(args))  # pragma: no cover
        code, out, err = run(capsys, "sweep", "--policies", "2,1,4", "2,1,4", "--iters", "1")
        assert (code, out, err) == (2, "", "error: policies must be distinct, got 2,1,4 more than once\n")
        assert searched == []

    def test_bracket_error_past_the_digit_limit_names_feasible_cases(self, capsys, int_digit_limit):
        """A lo end whose pair rows would print past int()'s digit limit, all
        four cases feasible there: the skipped line names them, since they
        are settled on base rows, with no report made."""
        lo = "1" + "0" * 2200 + "/3"
        code, out, err = run(capsys, "sweep", "--lo", lo, "--hi", "1" + "0" * 2199 + "3/3",
                             "--iters", "0", "--policies", "2,1,4")
        assert (code, err) == (2, "")
        assert out == f"skipped 2,1,4: bracket end lo = {lo} is not all-infeasible" \
                      " (feasible: J012, not0, in0not1, in01not2)\n"

    def test_report_past_the_digit_limit_is_exit_2_not_skipped(self, capsys, int_digit_limit):
        """A bracket whose end report prints a number past int()'s digit
        limit is exit 2 with one line, not a skipped policy."""
        code, out, err = run(capsys, "sweep", "--lo", "3" + "0" * 2199 + "1/1" + "0" * 2200, "--hi", "5",
                             "--iters", "0", "--policies", "2,1,4")
        assert (code, out) == (2, "")
        assert err == f"error: a number to print has more than {int_digit_limit} digits," \
                      " the interpreter's limit\n"


class TestDichotomyCommand:
    def test_certified_at_113_32(self, capsys):
        code, out, _ = run(capsys, "dichotomy", "--t", "113/32")
        assert code == 0
        assert out.count("branches") == 8

    def test_exploratory_at_18_5(self, capsys, tmp_path):
        out_path = tmp_path / "dich.json"
        code, _, _ = run(capsys, "dichotomy", "--t", "18/5", "--format", "structured",
                         "--out", str(out_path))
        assert code == 1
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "dichotomy"
        assert len(doc["assignments"]) == 8

    def test_guard_error_is_exit_2(self, capsys):
        """The guards on t run before a branch row divides by t - 1."""
        code, _, err = run(capsys, "dichotomy", "--t", "1", "--functions", "0")
        assert code == 2
        assert "guard" in err

    @pytest.mark.parametrize("functions, shown", [
        (["0", "0"], "[0, 0]"),
        # 2**20 assignments if it were accepted
        (["0", "1", "2"] * 6 + ["0", "1"], "[0, 1, 2, 0, 1, 2, ...]"),
    ], ids=["0-0", "twenty"])
    def test_repeated_function_is_exit_2(self, capsys, monkeypatch, functions, shown):
        import bmbounds.reference as reference_mod
        import bmbounds.systems as systems_mod

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("no system may be built")

        for module in (systems_mod, reference_mod):
            monkeypatch.setattr(module, "build_case_system", boom)
        code, out, err = run(capsys, "dichotomy", "--t", "113/32", "--functions", *functions)
        assert (code, out) == (2, "")
        assert err == f"error: functions must be distinct indices 0-2, got {shown}\n"

    @pytest.mark.parametrize("functions, shown", [
        ([0, 0], "[0, 0]"),
        ([0] * 20000, "[0, 0, 0, 0, 0, 0, ...]"),
        ([0, 3], "[0, 3]"),
    ], ids=["0-0", "20000-zeros", "index-3"])
    def test_verify_rejects_functions_that_are_not_distinct_indices(
            self, capsys, tmp_path, functions, shown):
        path = tmp_path / "dich.json"
        run(capsys, "dichotomy", "--t", "113/32", "--functions", "0", "--format", "structured",
            "--out", str(path))
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "functions": functions}))
        code, out, err = run(capsys, "verify-cert", str(path))
        assert (code, err) == (2, "")
        assert out == ("malformed certificate: functions must be distinct indices 0-2,"
                       f" got {shown}\n")


class TestBoundsCommand:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", "2..2", "--k", "2..2")
        assert code == 0
        assert "4.2360679" in out
        assert "height(2)" in out and "copies(2)" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "2..3", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "kind,parameter,value"
        assert lines[1].startswith("copies,2,3.0")

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--k", "1..2")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_no_range_is_input_error(self, capsys, fmt):
        code, out, err = run(capsys, "bounds", "--format", fmt)
        assert (code, out, err) == (2, "", "error: bounds needs --m a..b, --k a..b or both\n")

    @pytest.mark.parametrize("argv, count", [
        (("--m", "1..100000000"), 100000000),
        (("--k", "2..100002"), 100001),
        (("--m", "1..50000", "--k", "2..50002"), 100001),
    ])
    def test_table_bounded_before_any_row(self, capsys, monkeypatch, argv, count):
        """More than MAX_TABLE_ROWS rows, --m and --k together, is exit 2 with
        one line, before a single row is evaluated."""
        from bmbounds import bounds

        def boom(n):  # pragma: no cover
            raise AssertionError("no row may be evaluated")

        monkeypatch.setattr(bounds, "lower_bound_height", boom)
        monkeypatch.setattr(bounds, "gp_lower_bound", boom)
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (
            2, "", f"error: table of {count} rows exceeds the limit of 100000\n")

    def test_table_row_cap_is_inclusive(self, capsys, monkeypatch):
        from bmbounds import bounds

        monkeypatch.setattr(bounds, "MAX_TABLE_ROWS", 3)
        code, out, _ = run(capsys, "bounds", "--m", "1..2", "--k", "2..2", "--format", "csv")
        assert (code, len(out.splitlines())) == (0, 4)
        code, out, err = run(capsys, "bounds", "--m", "1..2", "--k", "2..3")
        assert (code, out, err) == (2, "", "error: table of 4 rows exceeds the limit of 3\n")


class TestUpperCommand:
    def test_optimize(self, capsys):
        code, out, _ = run(capsys, "upper", "--optimize", "--tol", "1e-10")
        assert code == 0
        assert "3.8751297" in out
        assert "matching=corrected" in out

    def test_optimize_prints_norms_at_full_precision(self, capsys):
        """t* and its exact norms are printed rounded to 20 significant digits.

        normT = t (row M:0, with Minv:1 for S) holds only right of the
        minimizer: --tol 1e-12 stops there, while --tol 1e-10 stops left of
        it, where rows tail:0 and stail:1 carry the norms and normT > t*.
        """
        for tol, rows in (("1e-12", {"T": "M:0", "S": "Minv:1"}),
                          ("1e-10", {"T": "tail:0", "S": "stail:1"})):
            code, out, _ = run(capsys, "upper", "--optimize", "--tol", tol,
                               "--format", "structured")
            doc = json.loads(out)
            t_star, report = upperiso.optimize_distortion(tol=tol)
            assert code == 0
            assert doc["argmax_rows"] == rows
            assert (report.norm_t == t_star) == (rows["T"] == "M:0")
            for key, exact in (("t_star", t_star), ("normT", report.norm_t),
                               ("normS", report.norm_s), ("distortion", report.distortion)):
                assert abs(Fraction(doc[key]) - exact) < Fraction(1, 10**19)
            assert doc["distortion"].startswith("3.87512979")

    def test_optimize_runs_the_optimizer_once(self, capsys, monkeypatch):
        calls = []
        optimize = upperiso.optimize_distortion

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return optimize(*args, **kwargs)

        monkeypatch.setattr(upperiso, "optimize_distortion", counting)
        assert run(capsys, "upper", "--optimize", "--tol", "1e-6")[0] == 0
        assert calls == [{"tol": "1e-6"}]

    def test_coarse_tol_matching_judges_printed_t_star(self, capsys):
        """At --tol 0.5 the search probes only the midpoint 3.5 of [3, 4], which
        lies more than 1e-4 from either closed-form reading, so neither matches."""
        code, out, _ = run(capsys, "upper", "--optimize", "--tol", "0.5",
                           "--format", "structured")
        doc = json.loads(out)
        assert code == 0
        assert doc["t_star"] == "3.5"
        assert doc["closed_form"]["matching"] == "ambiguous"

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "upper", "--scan", "3:4:1/2")
        lines = out.strip().splitlines()
        assert lines[0] == "t,normT,normS,distortion"
        assert len(lines) == 4
        assert lines[1].startswith("3,4.666666666667")

    def test_scan_of_a_thousand_steps(self, capsys):
        code, out, _ = run(capsys, "upper", "--scan", "3:4:1/1000", "--format", "structured")
        rows = json.loads(out)["rows"]
        assert code == 0
        assert len(rows) == 1001 and (rows[0]["t"], rows[-1]["t"]) == ("3", "4")

    @pytest.mark.parametrize("spec, err", [
        ("3:5:1/2", "scan needs 3 <= lo <= hi <= 4 and step > 0, got 3:5:1/2"),
        ("3:5:1/10000000", "scan needs 3 <= lo <= hi <= 4 and step > 0, got 3:5:1/10000000"),
        ("3:4:1/1000000000", "scan of 1000000001 rows exceeds the limit of 100000"),
    ])
    def test_scan_bounded_before_any_row(self, capsys, monkeypatch, spec, err):
        """An interval leaving [3, 4] or more than MAX_SCAN_ROWS rows is exit 2
        with one line, before a single row is evaluated."""
        def boom(*args):  # pragma: no cover
            raise AssertionError("no row may be evaluated")

        monkeypatch.setattr(upperiso, "_row_norms", boom)
        start = time.perf_counter()
        code, out, stderr = run(capsys, "upper", "--scan", spec)
        assert time.perf_counter() - start < 1.0
        assert (code, out, stderr) == (2, "", f"error: {err}\n")

    def test_scan_row_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(upperiso, "MAX_SCAN_ROWS", 5)
        code, out, _ = run(capsys, "upper", "--scan", "3:4:1/4", "--format", "structured")
        assert (code, len(json.loads(out)["rows"])) == (0, 5)
        code, out, err = run(capsys, "upper", "--scan", "3:4:1/5")
        assert (code, out, err) == (2, "", "error: scan of 6 rows exceeds the limit of 5\n")

    def test_t_structured_is_one_scan_row(self, capsys):
        code, out, _ = run(capsys, "upper", "--t", "7/2", "--format", "structured")
        doc = json.loads(out)
        _, scan, _ = run(capsys, "upper", "--scan", "7/2:7/2:1", "--format", "structured")
        assert code == 0
        assert doc == {"kind": "upper-t", **json.loads(scan)["rows"][0]}

    def test_t_csv_equals_one_point_scan(self, capsys):
        code, out, _ = run(capsys, "upper", "--t", "387513/100000", "--format", "csv")
        _, scan, _ = run(capsys, "upper", "--scan", "387513/100000:387513/100000:1",
                         "--format", "csv")
        assert code == 0
        assert out == scan
        assert out.splitlines()[0] == "t,normT,normS,distortion"

    def test_needs_a_mode(self, capsys):
        code, _, err = run(capsys, "upper")
        assert code == 2

    def test_modes_mutually_exclusive(self, capsys):
        code, _, err = run(capsys, "upper", "--optimize", "--scan", "3:4:1/2")
        assert code == 2
        assert "mutually exclusive" in err

    @pytest.mark.parametrize("argv", [["--t", "7/2", "--tol", "0.5"],
                                      ["--scan", "3:4:1/2", "--tol", "1e-3"]])
    def test_tol_needs_optimize(self, capsys, argv):
        code, out, err = run(capsys, "upper", *argv)
        assert (code, out, err) == (2, "", "error: --tol applies only to --optimize\n")

    def test_case_flag_accepts_spec_spelling(self, capsys):
        code, out, _ = run(capsys, "certify", "--t", "4", "--case", "J012",
                           "--format", "structured")
        assert [e["case"] for e in json.loads(out)["cases"]] == ["J012"]


class TestVerifyCertCommand:
    def test_fresh_certificate_verifies(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "certify", "--t", "113/32", "--format", "structured", "--out", str(path))
        code, out, _ = run(capsys, "verify-cert", str(path))
        assert code == 0
        assert "verified" in out

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "certify", "--t", "113/32", "--format", "structured", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["cases"][0]["farkas"][0] = "12345/7"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "verify-cert", str(path))
        assert code == 1

    def test_truncated_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "certify", "--t", "113/32", "--format", "structured", "--out", str(path))
        path.write_text(path.read_text()[:100])
        code, _, _ = run(capsys, "verify-cert", str(path))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify-cert", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("data, message", [
        (b"\xff\xfe{}", "cannot read {path}: not UTF-8 text (invalid start byte at byte 0)"),
        (b"[" * 100000 + b"]" * 100000, "malformed certificate: JSON nested too deeply"),
    ], ids=["not-utf8", "nested-100000"])
    def test_unreadable_input_exit_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "cert.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "verify-cert", str(path))
        assert (code, out, err) == (2, message.format(path=path) + "\n", "")

    def test_search_report_verifies(self, capsys, tmp_path):
        path = tmp_path / "search.json"
        run(capsys, "search", "--iters", "6", "--format", "structured", "--out", str(path))
        code, _, _ = run(capsys, "verify-cert", str(path))
        assert code == 0

    def test_single_case_document_binds_its_case(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "certify", "--t", "4", "--case", "in01not2", "--format", "structured",
            "--out", str(path))
        doc = json.loads(path.read_text())
        assert doc["case"] == "in01not2"
        assert run(capsys, "verify-cert", str(path))[0] == 0
        del doc["case"]  # the one entry then has to cover all four cases
        path.write_text(json.dumps(doc))
        assert run(capsys, "verify-cert", str(path))[0] == 1

    @pytest.mark.parametrize("argv, malform", [
        (("certify", "--t", "113/32"), lambda doc: [doc]),
        (("certify", "--t", "113/32"),
         lambda doc: {**doc, "cases": [{**e, "case": "bogus"} for e in doc["cases"]]}),
        (("dichotomy", "--t", "113/32", "--functions", "0"),
         lambda doc: {**doc, "functions": ["x"]}),
        (("dichotomy", "--t", "113/32", "--functions", "0"),
         lambda doc: {**doc, "functions": [0.5]}),
        (("dichotomy", "--t", "113/32", "--functions", "0"),
         lambda doc: {**doc, "t": "1"}),
        (("certify", "--t", "113/32"),
         lambda doc: {**doc, "t": "\u0661\u0661\u0663/\u0663\u0662"}),
        (("certify", "--t", "113/32"),
         lambda doc: {**doc, "policy": "\u0662,\u0661,\u0664"}),
        (("certify", "--t", "113/32"),
         lambda doc: {**doc, "policy": " 2, 1 ,4"}),
        (("certify", "--t", "113/32"),
         lambda doc: {**doc, "policy": "1,2"}),
        (("certify", "--t", "113/32"),
         lambda doc: {**doc, "policy": "1,2,3,4"}),
        (("certify", "--t", "113/32"),
         lambda doc: {**doc, "cases": [{**e, "farkas": "1" * len(e["farkas"])} for e in doc["cases"]]}),
        (("certify", "--t", "113/32"),
         lambda doc: {**doc, "cases": [{**e, "farkas": dict(enumerate(e["farkas"]))}
                                       for e in doc["cases"]]}),
        (("certify", "--t", "4"),
         lambda doc: {**doc, "cases": [{**e, "witness": list(e["witness"].values())}
                                       if "witness" in e else e for e in doc["cases"]]}),
    ], ids=["json-array", "bogus-case", "function-x", "function-half", "t-1", "t-non-ascii",
            "policy-non-ascii", "policy-spaces", "policy-two-parts", "policy-four-parts",
            "farkas-string", "farkas-object", "witness-list"])
    def test_malformed_document_exit_2(self, capsys, tmp_path, argv, malform):
        path = tmp_path / "cert.json"
        run(capsys, *argv, "--format", "structured", "--out", str(path))
        path.write_text(json.dumps(malform(json.loads(path.read_text()))))
        code, out, err = run(capsys, "verify-cert", str(path))
        assert code == 2
        assert out.startswith("malformed certificate") and "Traceback" not in err

    @pytest.mark.parametrize("argv, kind", [
        (("upper", "--t", "14927/3852"), "upper-t"),
        (("upper", "--scan", "3:4:1/2"), "upper-scan"),
        (("upper", "--optimize", "--tol", "1e-6"), "upper-optimize"),
        (("bounds", "--m", "2..3"), "bounds"),
    ], ids=["upper-t", "upper-scan", "upper-optimize", "bounds"])
    def test_document_of_another_kind_is_named(self, capsys, tmp_path, argv, kind):
        """An upper or bounds document carries no certificate: its kind is
        named (exit 2) before any field it lacks, even with a
        ``tool_version`` added (this read "missing field 'tool_version'",
        then "missing field 'variant'")."""
        code, out, _ = run(capsys, *argv, "--format", "structured")
        doc = json.loads(out)
        assert (code, doc["kind"]) == (0, kind)
        path = tmp_path / "doc.json"
        for text in (out, json.dumps({"tool_version": "bmbounds-0", **doc})):
            path.write_text(text)
            assert run(capsys, "verify-cert", str(path)) == (
                2, f"malformed certificate: unknown certificate kind '{kind}'\n", "")

    @pytest.mark.parametrize("coeff, message", [
        ("x", "not a p/q rational literal: 'x'"),
        ("1" + "0" * 4999, "integer literal too long: 5000 digits"),
    ], ids=["x", "5000-digits"])
    def test_unreadable_echo_coefficient_exit_2(self, capsys, tmp_path, int_digit_limit,
                                                coeff, message):
        """An echoed coefficient that is not read is named by its inequality."""
        path = tmp_path / "cert.json"
        run(capsys, "certify", "--t", "113/32", "--format", "structured", "--out", str(path))
        doc = json.loads(path.read_text())
        coeffs = doc["cases"][0]["system"]["inequalities"][0]["coeffs"]
        coeffs[next(iter(coeffs))] = coeff
        path.write_text(json.dumps(doc))
        assert run(capsys, "verify-cert", str(path)) == (
            2, f"malformed certificate: inequality #0: {message}\n", "")

    @pytest.mark.parametrize("policy", ["1,2", "1,2,3,4", 214])
    def test_policy_is_read_like_the_flag(self, capsys, tmp_path, policy):
        """verify-cert and --c-policy read a policy through the same parser."""
        path = tmp_path / "cert.json"
        run(capsys, "certify", "--t", "113/32", "--format", "structured", "--out", str(path))
        path.write_text(json.dumps({**json.loads(path.read_text()), "policy": policy}))
        assert run(capsys, "verify-cert", str(path)) == (
            2, f"malformed certificate: c-policy must be p,q,r, got {policy!r}\n", "")
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--t", "113/32", "--c-policy", str(policy)])
        assert exc.value.code == 2
        assert f"c-policy must be p,q,r, got {str(policy)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["upper", "--optimize", "--tol", "abc"],
    ["upper", "--optimize", "--tol", "0"],
    ["upper", "--optimize", "--tol", "-1"],
    ["upper", "--optimize", "--tol", "1e-45"],
    ["upper", "--optimize", "--tol", "inf"],
    ["upper", "--optimize", "--tol", "1/0"],
    ["dichotomy", "--t", "4", "--functions", "5"],
    ["search", "--iters", "-1"],
    ["sweep", "--iters", "-2"],
    # Integer arguments take ASCII digits only, with no surrounding space.
    ["certify", "--t", "113/32", "--c-policy", "\u0662,\u0661,\u0664"],
    ["certify", "--t", "113/32", "--c-policy", " 2, 1 ,4"],
    ["search", "--iters", " \u0663"],
    ["search", "--iters", "3 "],
    ["sweep", "--iters", "\u0662"],
    ["sweep", "--policies", "2,1,\u0664"],
    ["dichotomy", "--t", "4", "--functions", "\u0662"],
    ["dichotomy", "--t", "4", "--functions", " 2"],
    ["bounds", "--m", "1..\u0663"],
    ["bounds", "--k", "\uff12"],
    # A reversed range would print an empty table.
    ["bounds", "--m", "5..2"],
    ["bounds", "--k", "4..2", "--format", "structured"],
    # certify and dichotomy have no CSV rendering.
    ["certify", "--t", "4", "--format", "csv"],
    ["dichotomy", "--t", "4", "--format", "csv"],
    # A scan spec has three parts.
    ["upper", "--scan", "3:4"],
])
def test_bad_arguments_rejected_at_parse_time(capsys, monkeypatch, argv):
    def boom(*args, **kwargs):  # pragma: no cover
        raise AssertionError("the optimizer must not start")

    monkeypatch.setattr(upperiso, "optimize_distortion", boom)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert last.startswith(f"bmbounds {argv[0]}: error: argument ")
    if argv[1] == "--scan":
        assert last.endswith(f"--scan: scan spec must be lo:hi:step, got {argv[2]!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("where, reason", [("no-such-dir/out.json", "No such file or directory"),
                                           ("", "Is a directory")])
def test_unwritable_out_is_input_error(capsys, tmp_path, where, reason):
    path = tmp_path / where
    code, out, err = run(capsys, "certify", "--t", "3", "--out", str(path))
    assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")


def test_structured_output_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "certify", "--t", "113/32", "--format", "structured", "--out", str(a))
    run(capsys, "certify", "--t", "113/32", "--format", "structured", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.json"
    d = tmp_path / "d.json"
    run(capsys, "search", "--iters", "5", "--format", "structured", "--out", str(c))
    run(capsys, "search", "--iters", "5", "--format", "structured", "--out", str(d))
    assert c.read_bytes() == d.read_bytes()

import json

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


class TestSweepCommand:
    def test_default_policies_rank(self, capsys):
        code, out, _ = run(capsys, "sweep", "--iters", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "policy,t_lo,t_hi"
        assert lines[1].startswith("2;1;4,113/32")


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


class TestUpperCommand:
    def test_optimize(self, capsys):
        code, out, _ = run(capsys, "upper", "--optimize", "--tol", "1e-10")
        assert code == 0
        assert "3.8751297" in out
        assert "matching=corrected" in out

    def test_optimize_prints_norms_at_full_precision(self, capsys):
        """normT = t exactly at every t (row M:0 has l1 norm t), so the printed digits agree."""
        code, out, _ = run(capsys, "upper", "--optimize", "--tol", "1e-10",
                           "--format", "structured")
        doc = json.loads(out)
        assert code == 0
        assert doc["normT"] == doc["t_star"]
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
        """At --tol 0.5 the optimizer stops on the grid point 3.875, which lies
        1.3e-4 from either closed-form reading, so neither matches within 1e-4."""
        code, out, _ = run(capsys, "upper", "--optimize", "--tol", "0.5",
                           "--format", "structured")
        doc = json.loads(out)
        assert code == 0
        assert doc["t_star"] == "3.875"
        assert doc["closed_form"]["matching"] == "ambiguous"

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "upper", "--scan", "3:4:1/2")
        lines = out.strip().splitlines()
        assert lines[0] == "t,normT,normS,distortion"
        assert len(lines) == 4
        assert lines[1].startswith("3,4.666666666667")

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
    ], ids=["json-array", "bogus-case", "function-x", "function-half", "t-1", "t-non-ascii",
            "policy-non-ascii", "policy-spaces"])
    def test_malformed_document_exit_2(self, capsys, tmp_path, argv, malform):
        path = tmp_path / "cert.json"
        run(capsys, *argv, "--format", "structured", "--out", str(path))
        path.write_text(json.dumps(malform(json.loads(path.read_text()))))
        code, out, err = run(capsys, "verify-cert", str(path))
        assert code == 2
        assert out.startswith("malformed certificate") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["upper", "--optimize", "--tol", "abc"],
    ["upper", "--optimize", "--tol", "0"],
    ["upper", "--optimize", "--tol", "-1"],
    ["upper", "--optimize", "--tol", "1e-45"],
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
])
def test_bad_arguments_rejected_at_parse_time(capsys, monkeypatch, argv):
    def boom(*args, **kwargs):  # pragma: no cover
        raise AssertionError("the optimizer must not start")

    monkeypatch.setattr(upperiso, "optimize_distortion", boom)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"bmbounds {argv[0]}: error: argument ")
    assert "Traceback" not in err


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

"""Command-line interface: outputs, exit codes, cache and parallelism."""

import json

import pytest

from e8jacobi.cli import main
from e8jacobi.construct import certify, clear_cache
from e8jacobi.grading import Poly, ab
from e8jacobi.serialize import poly_to_json

from helpers import m26_7_generator


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, argv, message):
    """argparse's usage line, then one error line ending in `message`."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(message)


def _poly_doc(alphabet, terms):
    """A polynomial document from [(exponents, coefficient), ...]."""
    return json.dumps({"alphabet": alphabet,
                       "terms": [{"exponents": e, "coefficient": c}
                                 for e, c in terms]})


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out), err


class TestTextOutput:
    def test_dim(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "-16", "5")
        assert code == 0
        assert out.strip() == "2"

    def test_dim_zero(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "3", "7")
        assert code == 0
        assert out.strip() == "0"

    def test_profile(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "2")
        assert code == 0
        assert out.strip() == "x^-4 + x^-2 + 1"

    def test_basis(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "-16", "5")
        assert code == 0
        assert "dim J_{-16,5} = 2" in out
        assert "form 1:" in out and "form 2:" in out

    def test_lb(self, capsys):
        code, out, _ = run_cli(capsys, "lb", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("m ")
        assert len(lines) == 5

    def test_module_gens(self, capsys):
        code, out, _ = run_cli(capsys, "module-gens", "1")
        assert code == 0
        assert out.startswith("weight 4:")

    def test_tables(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--max-index", "2")
        assert code == 0
        assert "P^w_1 = x^4" in out
        assert "P^w_2 = x^-4 + x^-2 + 1" in out


class TestJsonOutput:
    def test_dim(self, capsys):
        code, doc, _ = run_json(capsys, "dim", "-16", "5")
        assert code == 0
        assert doc["command"] == "dim"
        assert doc["target"] == {"weight": -16, "index": 5}
        assert doc["dimension"] == 2
        assert "schema_version" in doc and "elapsed_seconds" in doc

    def test_basis_round_trips(self, capsys):
        from e8jacobi.construct import jacobi_basis
        from e8jacobi.serialize import poly_from_json
        code, doc, _ = run_json(capsys, "basis", "-26", "7")
        assert code == 0
        forms = [poly_from_json(f) for f in doc["forms"]]
        assert forms == jacobi_basis(-26, 7).forms

    def test_profile(self, capsys):
        code, doc, _ = run_json(capsys, "profile", "2")
        assert code == 0
        assert doc["generator_counts"] == {"-4": 1, "-2": 1, "0": 1}
        assert doc["rank"] == 3
        assert doc["polynomial"] == "x^-4 + x^-2 + 1"


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["dim", "4"])
        assert exc.value.code == 2

    def test_consistency_error_is_1(self, capsys):
        code, out, err = run_cli(capsys, "--window=-4:-4", "profile", "2")
        assert code == 1
        assert "inconsistency" in err

    def test_bad_window_syntax_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--window", "abc", "profile", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["dim", "4", "-1"], "must be >= 0, got -1"),
        (["profile", "0"], "must be >= 1, got 0"),
        (["lb", "0"], "must be >= 1, got 0"),
        (["--precision", "-5", "verify", "4", "1"], "must be >= 1, got -5"),
        (["verify", "4", "1", "--samples", "0"], "must be >= 1, got 0"),
        (["verify", "4", "1", "--samples", "-2"], "must be >= 1, got -2"),
        (["tables", "--max-index", "0"], "must be >= 1, got 0"),
        (["tables", "--max-index", "-3"], "must be >= 1, got -3"),
        (["--window", "4:-8", "profile", "2"],
         "window must have LO <= HI, got 4:-8"),
    ])
    def test_out_of_range_index_is_2(self, capsys, argv, message):
        assert_usage_error(capsys, argv, message)

    def test_bad_precision_environment_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("E8JACOBI_PRECISION", "abc")
        assert_usage_error(capsys, ["dim", "4", "1"], "'abc' is not an integer")

    @pytest.mark.parametrize("value, message", [
        ("nan", "must be a finite number > 0, got nan"),
        ("inf", "must be a finite number > 0, got inf"),
        ("0", "must be a finite number > 0, got 0"),
        ("-1e-30", "must be a finite number > 0, got -1e-30"),
        ("abc", "'abc' is not a number"),
    ])
    def test_bad_tolerance_is_2(self, capsys, value, message):
        # "--tol=VALUE": argparse reads a bare "-1e-30" as an option
        assert_usage_error(capsys, ["--tol=" + value, "verify", "4", "1"],
                           message)

    @pytest.mark.parametrize("content", [
        None, "{ not json", '{"alphabet": "zz", "terms": []}',
        '{"alphabet": "ab"}', "[1]",
        pytest.param(_poly_doc("ab", [({"b1": -1}, "1/1")]),
                     id="negative-exponent"),
        pytest.param(_poly_doc("ab", [({"b1": 1.5}, "1/1")]),
                     id="fractional-exponent"),
        pytest.param(_poly_doc("ab", [({"b1": 1}, "1/0")]),
                     id="zero-denominator"),
    ])
    def test_unreadable_certify_file_is_2(self, capsys, tmp_path, content):
        path = tmp_path / "form.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli(capsys, "certify", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("e8jacobi: error: cannot read a polynomial")

    @pytest.mark.parametrize("content", [
        pytest.param(_poly_doc("AB", [({"A1": 1}, "1/1")]), id="over-AB"),
        pytest.param(_poly_doc("S", [({"A1": 1}, "1/1")]), id="over-S"),
        pytest.param(_poly_doc("ab", [({"b1": 1}, "1/1"),
                                      ({"a2": 1}, "1/1")]),
                     id="inhomogeneous"),
    ])
    def test_uncertifiable_polynomial_is_2(self, capsys, tmp_path, content):
        """Polynomials over AB or S, or inhomogeneous ones, are no input
        for the ab-side membership construction."""
        path = tmp_path / "form.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, "certify", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("e8jacobi: error: cannot certify")


class TestCertify:
    def test_certified(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(poly_to_json(m26_7_generator())))
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == 0
        assert out.startswith("certified: Delta power 5")

    def test_rejected(self, capsys, tmp_path):
        path = tmp_path / "a3.json"
        path.write_text(json.dumps(poly_to_json(Poly.gen(ab, "a3"))))
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == 0
        assert out.startswith("rejected")

    def test_json_payload(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(poly_to_json(m26_7_generator())))
        code, doc, _ = run_json(capsys, "certify", str(path))
        assert code == 0
        assert doc["certified"] is True
        assert doc["certificate"]["n"] == 5


class TestVerify:
    def test_small_basis(self, capsys):
        code, out, _ = run_cli(capsys, "--precision", "30", "--tol", "1e-15",
                               "verify", "4", "1", "--samples", "1")
        assert code == 0
        assert "form 1:" in out and "-> ok" in out

    def test_empty_basis(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "3", "7")
        assert code == 0
        assert "empty basis" in out


class TestCacheAndJobs:
    def test_cache_dir_transparent(self, capsys, tmp_path):
        import os
        cache = str(tmp_path / "cache")
        code1, out1, _ = run_cli(capsys, "--cache-dir", cache,
                                 "basis", "-16", "5")
        assert code1 == 0
        assert os.listdir(cache)          # something was stored
        clear_cache()
        code2, out2, _ = run_cli(capsys, "--cache-dir", cache,
                                 "basis", "-16", "5")
        clear_cache()
        code3, out3, _ = run_cli(capsys, "basis", "-16", "5")
        assert code2 == code3 == 0
        assert out1 == out2 == out3

    def test_jobs_output_identical(self, capsys):
        code1, doc1, _ = run_json(capsys, "--jobs", "1", "profile", "4")
        clear_cache()
        code2, doc2, _ = run_json(capsys, "--jobs", "2", "profile", "4")
        assert code1 == code2 == 0
        doc1.pop("elapsed_seconds")
        doc2.pop("elapsed_seconds")
        assert doc1 == doc2

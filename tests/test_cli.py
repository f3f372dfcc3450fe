"""Command-line interface: outputs, exit codes, cache and `--jobs`."""

import json

import pytest

from e8jacobi import cli, construct, oracle
from e8jacobi.cli import main
from e8jacobi.construct import certify, clear_cache, profile_weights
from e8jacobi.grading import Poly, ab
from e8jacobi.oracle import AxiomReport
from e8jacobi.serialize import poly_to_json

from helpers import m26_7_generator, second_power_form


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


class TestOneOutput:
    """Each format builds only its own output: text runs write no JSON
    document, and JSON runs render no polynomial as text."""

    @pytest.mark.parametrize("argv, text", [
        (["basis", "-16", "5"],
         "dim J_{-16,5} = 2\n"
         "form 1: 2*E4^2*b5 + 12*E4*a3*b2 + -48*E4*a4*b1 + -1*E6*a2*a3 "
         "+ 72*a2^2*b1\n"
         "form 2: 36*E4*a2*b3 + -108*E4*a3*b2 + 360*E4*a4*b1 + 5*E6*a2*a3 "
         "+ -360*a2^2*b1\n"),
        (["certify", "form.json"], "certified: Delta power 5, 1 E4-part(s)\n"),
        (["module-gens", "2"],
         "weight -4: E4*a2\n"
         "weight -2: 36*E4*b2 + 5*E6*a2\n"
         "weight 0: E6*b2 + -90*b1^2\n"),
    ], ids=["basis", "certify", "module-gens"])
    def test_text_builds_no_document(self, capsys, tmp_path, monkeypatch,
                                     argv, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "form.json").write_text(
            json.dumps(poly_to_json(m26_7_generator())))

        def refuse(*args, **kwargs):
            raise AssertionError("a text run built a JSON document")

        for name in ("basis_to_json", "certificate_to_json", "poly_to_json"):
            monkeypatch.setattr(cli, name, refuse)
        assert run_cli(capsys, *argv) == (0, text, "")

    @pytest.mark.parametrize("argv", [["basis", "-16", "5"],
                                      ["module-gens", "2"]],
                             ids=["basis", "module-gens"])
    def test_json_renders_no_text(self, capsys, monkeypatch, argv):
        code, want, err = run_json(capsys, *argv)

        def refuse(self):
            raise AssertionError("a JSON run rendered a polynomial as text")

        monkeypatch.setattr(Poly, "__repr__", refuse)
        got_code, got, got_err = run_json(capsys, *argv)
        del want["elapsed_seconds"], got["elapsed_seconds"]
        assert (got_code, got, got_err) == (code, want, err) == (0, want, "")


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["dim", "4"])
        assert exc.value.code == 2

    def test_consistency_error_is_1(self, capsys, monkeypatch):
        # counts that miss the module rank are a mathematical inconsistency
        monkeypatch.setattr(construct, "rank_series", lambda m: 4)
        for command in ("profile", "module-gens"):
            code, out, err = run_cli(capsys, command, "2")
            assert (code, out) == (1, "")
            assert err == ("inconsistency: generator count 3 does not match "
                           "module rank 4 at index 2\n")

    def test_bad_window_syntax_is_2(self, capsys):
        # there is no --window: a profile covers the range its index fixes
        for argv, extra in [
                (["--window=-8:0", "profile", "3"], "--window=-8:0"),
                (["--window", "-8:0", "profile", "3"], "--window -8:0"),
                (["profile", "3", "--window=-8:0"], "--window=-8:0")]:
            assert_usage_error(capsys, argv, "unrecognized arguments: "
                               + extra)

    @pytest.mark.parametrize("argv, message", [
        (["dim", "4", "-1"], "must be >= 0, got -1"),
        (["profile", "0"], "must be >= 1, got 0"),
        (["lb", "0"], "must be >= 1, got 0"),
        (["--precision", "-5", "verify", "4", "1"], "must be >= 1, got -5"),
        (["verify", "4", "1", "--samples", "0"], "must be >= 1, got 0"),
        (["verify", "4", "1", "--samples", "-2"], "must be >= 1, got -2"),
        (["tables", "--max-index", "0"], "must be >= 1, got 0"),
        (["tables", "--max-index", "-3"], "must be >= 1, got -3"),
        (["module-gens", "0"], "must be >= 1, got 0"),
        (["--jobs", "0", "dim", "4", "1"],
         "invalid choice: 0 (choose from 1)"),
        (["--jobs", "2", "dim", "4", "1"],
         "invalid choice: 2 (choose from 1)"),
    ])
    def test_out_of_range_index_is_2(self, capsys, argv, message):
        assert_usage_error(capsys, argv, message)

    @pytest.mark.parametrize("child", [None, "sub"])
    def test_cache_dir_that_is_a_file_is_2(self, capsys, tmp_path, child):
        path = tmp_path / "file"
        path.write_text("")
        if child:
            path = path / child
        code, out, err = run_cli(capsys, "--cache-dir", str(path),
                                 "dim", "4", "1")
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("e8jacobi: error: cannot use --cache-dir %s: "
                               % path)

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
        pytest.param(_poly_doc("ab", [({"b1": 1}, "1/x")]),
                     id="non-integer-coefficient"),
        pytest.param(_poly_doc("ab", [({"E4": 1, "b1": 1}, "1"),
                                      ({"E4": 1, "b1": 1}, "1")]),
                     id="repeated-monomial"),
        pytest.param("[" * 100000, id="nested-too-deep"),
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

    def test_second_power_part(self, capsys, tmp_path):
        # the one S part is S_2; the certificate has no S_1 row
        path = tmp_path / "form.json"
        path.write_text(json.dumps(poly_to_json(second_power_form())))
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert (code, out) == (0, "certified: Delta power 0, 1 E4-part(s)\n")

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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nothing_printed_after_an_inconsistency(self, capsys,
                                                    monkeypatch, fmt):
        """The first form passes and the second fails: the run exits 1
        with nothing on stdout, not the first form's line."""
        reports = iter([AxiomReport(-16, 5, 1e-50, 1e-50, 1e-50, 0.0, True),
                        AxiomReport(-16, 5, 1e-3, 1e-50, 1e-50, 0.0, True)])
        monkeypatch.setattr(oracle, "check_axioms",
                            lambda *args, **kwargs: next(reports))
        assert run_cli(capsys, "--format", fmt, "verify", "-16", "5",
                       "--samples", "1") == \
            (1, "", "inconsistency: oracle residuals exceed tolerance\n")
        assert next(reports, None) is None


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

    def test_unreadable_entry(self, capsys, tmp_path):
        """An entry nested too deeply to parse is a miss and is rewritten;
        a directory in the entry's place is a miss whose save fails, and
        the run ends with one error line and exit 2."""
        cache = tmp_path / "cache"
        assert run_cli(capsys, "--cache-dir", str(cache), "dim", "4", "1") \
            == (0, "1\n", "")
        (entry,) = cache.iterdir()
        entry.write_text("[" * 100000)
        clear_cache()
        assert run_cli(capsys, "--cache-dir", str(cache), "dim", "4", "1") \
            == (0, "1\n", "")
        assert json.loads(entry.read_text())["forms"] == [[[0], [1]]]
        entry.unlink()
        entry.mkdir()
        clear_cache()
        code, out, err = run_cli(capsys, "--cache-dir", str(cache),
                                 "dim", "4", "1")
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("e8jacobi: error: cannot write cache entry %s"
                               % entry)

    def test_module_gens_stores_only_its_range(self, capsys, tmp_path):
        """`module-gens m` stores one entry per weight of
        `profile_weights(m)`, none for the empty weights below it."""
        cache = tmp_path / "cache"
        for m in range(1, 5):
            assert run_cli(capsys, "--cache-dir", str(cache),
                           "module-gens", str(m))[0] == 0
        assert len(list(cache.iterdir())) == \
            sum(len(profile_weights(m)) for m in range(1, 5)) == 30

    def test_jobs_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--cache-dir" in out and "--jobs" not in out

    def test_jobs_1_output_identical(self, capsys):
        """--jobs is accepted as 1 only, for old callers, and changes
        nothing."""
        with_jobs = run_cli(capsys, "--jobs", "1", "profile", "4")
        clear_cache()
        assert run_cli(capsys, "profile", "4") == with_jobs
        assert with_jobs[0] == 0

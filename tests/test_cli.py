import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chainfft
from chainfft.cli import main
from chainfft.combinat import ChainKind
from chainfft.transform import element_to_json, random_element


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bratteli_dot_counts(capsys):
    code, out, _ = run(capsys, "bratteli", "--chain", "brauer", "-n", "3", "--format", "dot")
    assert code == 0
    assert out.count("->") == 11
    nodes = [l for l in out.splitlines() if l.endswith('";') and "->" not in l]
    assert len(nodes) == 9


def test_bratteli_json(capsys):
    code, out, _ = run(capsys, "bratteli", "--chain", "tl", "-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["kind"] == "tl"


def test_dims_csv(capsys):
    code, out, _ = run(capsys, "dims", "--chain", "brauer", "-n", "4", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "level,sum_of_squares,algebra_dim"
    assert rows[-1] == "4,105,105"


def test_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "plan", "--chain", "tl", "-n", "5")
    code2, out2, _ = run(capsys, "plan", "--chain", "tl", "-n", "5")
    assert code1 == code2 == 0 and out1 == out2


def test_fft_sov_within_bound(tmp_path, capsys):
    f = random_element(ChainKind.TEMPERLEY_LIEB, 4, 3)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(element_to_json(f, Fraction(10, 3))))
    code, out, _ = run(
        capsys, "fft", "--chain", "tl", "-n", "4", "--q", "10/3",
        "--algo", "sov", "--coeffs", str(path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ops"]["mul"] <= 532
    assert payload["bound"]["paper"] == "532"


def test_fft_naive_matches_sov(tmp_path, capsys):
    f = random_element(ChainKind.BRAUER, 3, 1)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(element_to_json(f, Fraction(10, 3))))
    _, out_n, _ = run(capsys, "fft", "--chain", "brauer", "-n", "3",
                      "--algo", "naive", "--coeffs", str(path))
    _, out_s, _ = run(capsys, "fft", "--chain", "brauer", "-n", "3",
                      "--algo", "sov", "--coeffs", str(path))
    blocks_n = json.loads(out_n)["blocks"]
    blocks_s = json.loads(out_s)["blocks"]
    assert blocks_n == blocks_s


def test_invert_roundtrip(tmp_path, capsys):
    f = random_element(ChainKind.TEMPERLEY_LIEB, 3, 9)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(element_to_json(f, Fraction(10, 3))))
    code, out, _ = run(capsys, "invert", "--chain", "tl", "-n", "3", "--coeffs", str(path))
    assert code == 0 and json.loads(out)["roundtrip"] == "pass"


def test_verify_all_brauer3(capsys):
    code, out, _ = run(capsys, "verify", "--chain", "brauer", "-n", "3", "--suite", "all")
    assert code == 0
    for suite in ("relations", "factor-set", "hom-counts", "roundtrip", "bounds"):
        assert f"{suite}: pass" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "fft", "--chain", "bmw", "-n", "3", "--coeffs", "x.json")
    assert code == 2 and "structural" in err
    code, _, err = run(capsys, "bratteli", "--chain", "sn", "-n", "3", "--q", "2")
    assert code == 2
    code, _, _ = run(capsys, "bratteli", "--chain", "nope", "-n", "3")
    assert code == 2


def test_bmw_structural_commands(capsys):
    code, out, _ = run(capsys, "bratteli", "--chain", "bmw", "-n", "4")
    assert code == 0
    code, out, _ = run(capsys, "plan", "--chain", "bmw", "-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["paper_total"] is not None


def test_bench_columns(capsys):
    code, out, _ = run(
        capsys, "bench", "--chain", "tl", "-n", "2", "--n-max", "4", "--trials", "1",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,dim,naive_mul,sov_mul,sov_add,predicted,paper_bound,reduced_t"
    for row in rows[1:]:
        n, dim, naive_mul, sov_mul, sov_add, predicted, paper, reduced = row.split(",")
        assert int(sov_mul) <= int(paper)
        assert int(sov_add) <= int(sov_mul)
        assert Fraction(int(sov_mul), int(dim)) == Fraction(reduced)


def _write_coeffs(tmp_path, kind, n, seed):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(element_to_json(random_element(kind, n, seed), Fraction(10, 3))))
    return str(path)


@pytest.mark.parametrize("command", ["fft", "invert"])
def test_coeff_file_errors(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, command, "--chain", "tl", "-n", "3", "--coeffs", missing)
    assert code == 2 and out == "" and err.startswith("error: ")
    code, _, err = run(capsys, command, "--chain", "tl", "-n", "3", "--coeffs", str(tmp_path))
    assert code == 2 and err.startswith("error: ")
    bad = tmp_path / "bad.json"
    head = '{"chain": "tl", "n": 3, "q": '
    for text in (
        "{not json",
        "[]",
        head + '"10/3"}',
        head + '"x", "coeffs": []}',
        head + '"1", "coeffs": [{"diagram": "1-x", "value": "1"}]}',
        head + '"1", "coeffs": [{"diagram": "1-x", "value": "0"}]}',
        head + '"1", "coeffs": [{"diagram": 5, "value": "1"}]}',
    ):
        bad.write_text(text)
        code, out, err = run(capsys, command, "--chain", "tl", "-n", "3", "--coeffs", str(bad))
        assert code == 2 and out == "" and err.startswith("error: "), text
    path = _write_coeffs(tmp_path, ChainKind.TEMPERLEY_LIEB, 3, 1)
    code, _, err = run(capsys, command, "--chain", "tl", "-n", "4", "--coeffs", path)
    assert code == 2 and "does not match" in err
    code, _, err = run(capsys, command, "--chain", "tl", "-n", "3", "--q", "1/0", "--coeffs", path)
    assert code == 2 and "--q" in err


@pytest.mark.parametrize("chain", ["sn", "tl", "brauer"])
def test_verify_n0(tmp_path, capsys, chain):
    code, out, _ = run(capsys, "verify", "--chain", chain, "-n", "0")
    assert code == 0 and "FAIL" not in out
    code, out, _ = run(capsys, "plan", "--chain", chain, "-n", "0")
    assert code == 0
    plan = json.loads(out)
    assert plan["stages"] == plan["levels"] == [] and plan["predicted_total"] == "0"
    path = _write_coeffs(tmp_path, ChainKind.parse(chain), 0, 1)
    for algo in ("naive", "sov"):
        code, out, _ = run(capsys, "fft", "--chain", chain, "-n", "0",
                           "--algo", algo, "--coeffs", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == {"predicted": "0", "paper": None}
        assert payload["blocks"] == [{"vertex": [], "matrix": [["-5"]]}]


def _write_rows(tmp_path, chain, n, rows):
    path = tmp_path / "rows.json"
    coeffs = [{"diagram": key, "value": value} for key, value in rows]
    path.write_text(json.dumps({"chain": chain, "n": n, "q": "10/3", "coeffs": coeffs}))
    return str(path)


def test_coeff_file_repeated_diagrams(tmp_path, capsys):
    # two spellings of r1, or one row given twice, sum to 2 r1
    for rows in (
        [("1-4,2-3", "1"), ("2-3,1-4", "1"), ("1-2,3-4", "1")],
        [("1-4,2-3", "1"), ("1-4,2-3", "1"), ("1-2,3-4", "1")],
    ):
        path = _write_rows(tmp_path, "brauer", 2, rows)
        for algo in ("naive", "sov"):
            code, out, _ = run(capsys, "fft", "--chain", "brauer", "-n", "2",
                               "--algo", algo, "--coeffs", path)
            assert code == 0
            blocks = [b["matrix"] for b in json.loads(out)["blocks"]]
            assert blocks == [[["2"]], [["-2"]], [["16/3"]]], (rows, algo)
    path = _write_rows(tmp_path, "brauer", 2, [("2-3,1-4", "1")])
    code, out, _ = run(capsys, "invert", "--chain", "brauer", "-n", "2", "--coeffs", path)
    assert code == 0 and json.loads(out)["roundtrip"] == "pass"


def test_brauer_singular_q_is_an_error(tmp_path, capsys):
    path = _write_coeffs(tmp_path, ChainKind.BRAUER, 3, 1)
    code, out, err = run(capsys, "fft", "--chain", "brauer", "-n", "3", "--q", "0",
                         "--coeffs", path)
    assert code == 2 and out == "" and err.startswith("error: ") and "singular" in err
    code, out, _ = run(capsys, "verify", "--chain", "brauer", "-n", "3", "--q", "0",
                       "--suite", "roundtrip")
    assert code == 1 and out.startswith("roundtrip: FAIL (") and "singular" in out


def test_brauer_non_semisimple_q_is_an_error(tmp_path, capsys):
    path = _write_coeffs(tmp_path, ChainKind.BRAUER, 3, 1)
    for command in ("fft", "invert"):
        code, out, err = run(capsys, command, "--chain", "brauer", "-n", "3", "--q", "1",
                             "--coeffs", path)
        assert code == 2 and out == "" and "not semisimple" in err, command


def test_verify_failure_detail(capsys):
    code, out, _ = run(capsys, "verify", "--chain", "tl", "-n", "3", "--q", "1",
                       "--suite", "roundtrip")
    assert code == 1
    assert out.startswith("roundtrip: FAIL (") and out.endswith(")\n")


def test_cli_import_without_numpy():
    code = 'import sys, chainfft.cli; sys.exit("numpy" in sys.modules)'
    env = dict(os.environ, PYTHONPATH=str(Path(chainfft.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

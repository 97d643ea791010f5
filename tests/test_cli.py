import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainfft
from chainfft.cli import main
from chainfft.combinat import ChainKind
from chainfft.diagrams import all_diagrams
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


def test_factor_set_suite_reads_the_route_table(capsys, monkeypatch):
    """The suite checks the routing the engine reads, evaluating each factor-set
    word once: a route whose stream is another word or none, or whose sub position
    is another diagram, makes it FAIL on that diagram."""
    import chainfft.cli as cli
    from chainfft.diagrams import _routing, _schedule, factor_set

    kind = ChainKind.TEMPERLEY_LIEB
    evaluated = []
    evaluate = cli.evaluate
    monkeypatch.setattr(cli, "evaluate", lambda *a: evaluated.append(a) or evaluate(*a))
    code, out, _ = run(capsys, "verify", "--chain", "tl", "-n", "4", "--suite", "factor-set")
    assert (code, out) == (0, "factor-set: pass (14 diagrams)\n")
    assert len(evaluated) == len(factor_set(kind, 4))
    routing, count = _routing(kind, 4), len(_schedule(kind, 4).streams)
    j, (s, sub) = next((j, route) for j, route in enumerate(routing.routes) if route[0])
    key = list(routing.index)[j]
    for route in ((s - 1, sub), (count, sub), (s, (sub + 1) % len(_routing(kind, 3).index))):
        bad = routing._replace(routes=(*routing.routes[:j], route, *routing.routes[j + 1 :]))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_routing", lambda k, level: bad if level == 4 else _routing(k, level))
            code, out, _ = run(capsys, "verify", "--chain", "tl", "-n", "4",
                               "--suite", "factor-set")
        assert (code, out) == (1, f"factor-set: FAIL (diagram {key})\n"), route


def test_usage_errors(capsys):
    code, _, err = run(capsys, "fft", "--chain", "bmw", "-n", "3", "--coeffs", "x.json")
    assert code == 2 and "structural" in err
    code, _, err = run(capsys, "bratteli", "--chain", "sn", "-n", "3", "--q", "2")
    assert code == 2
    code, _, _ = run(capsys, "bratteli", "--chain", "nope", "-n", "3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["plan", "--q", "abc"], ["plan", "--seed", "1"], ["plan", "--format", "json"],
    ["bratteli", "--q", "2"], ["bratteli", "--seed", "1"], ["bratteli", "--format", "csv"],
    ["dims", "--q", "2"], ["dims", "--seed", "1"], ["dims", "--format", "dot"],
    ["fft", "--seed", "1", "--coeffs", "@"], ["fft", "--format", "json", "--coeffs", "@"],
    ["invert", "--seed", "1", "--coeffs", "@"], ["verify", "--format", "json"],
    ["bench", "--format", "csv"],
])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv):
    path = _write_coeffs(tmp_path, ChainKind.TEMPERLEY_LIEB, 3, 1)
    argv = [path if a == "@" else a for a in argv]
    code, out, err = run(capsys, *argv, "--chain", "tl", "-n", "3")
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err or "invalid choice" in err


def test_scoped_flags_keep_their_output(capsys):
    """A command that reads a flag still takes it; its default prints what omitting it prints."""
    assert run(capsys, "bratteli", "--chain", "tl", "-n", "3", "--format", "json")[1] == \
        run(capsys, "bratteli", "--chain", "tl", "-n", "3")[1]
    assert run(capsys, "dims", "--chain", "tl", "-n", "3", "--format", "json")[1] == \
        run(capsys, "dims", "--chain", "tl", "-n", "3")[1]
    assert run(capsys, "bench", "--chain", "tl", "-n", "3", "--seed", "0", "--q", "10/3")[1] == \
        run(capsys, "bench", "--chain", "tl", "-n", "3")[1]
    code, out, _ = run(capsys, "verify", "--chain", "tl", "-n", "3", "--q", "2",
                       "--seed", "1", "--suite", "roundtrip")
    assert code == 0 and out == "roundtrip: pass\n"


def test_verify_roundtrip_reaches_s6(capsys):
    """S_6 inverts by the Fourier inversion formula: no size-limit skip note."""
    code, out, _ = run(capsys, "verify", "--chain", "sn", "-n", "6", "--suite", "roundtrip")
    assert code == 0 and out == "roundtrip: pass\n"


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


def test_bench_prints_the_exact_median(capsys):
    """An even --trials prints the mean of the two middle counts, an int or "p/2"; an
    odd one prints the middle count.  At TL 4 the sov_add counts of seeds 0 and 1 are
    24 and 29, so two trials print 53/2."""
    from chainfft.reps import adapted_rep
    from chainfft.transform import fft_sov

    rep = adapted_rep(ChainKind.TEMPERLEY_LIEB, 4)
    counts = [fft_sov(random_element(ChainKind.TEMPERLEY_LIEB, 4, seed), rep)[1].add
              for seed in range(3)]
    for trials in (2, 3):
        code, out, _ = run(capsys, "bench", "--chain", "tl", "-n", "4", "--trials", str(trials))
        middle = sorted(counts[:trials])
        median = Fraction(middle[trials // 2] + middle[(trials - 1) // 2], 2)
        assert code == 0 and out.splitlines()[1].split(",")[4] == str(median)
    assert counts[:2] == [24, 29]


def test_bench_n_max_below_n_is_a_usage_error(capsys):
    code, out, err = run(capsys, "bench", "--chain", "tl", "-n", "3", "--n-max", "2")
    assert code == 2 and out == "" and "--n-max" in err


def test_bench_error_past_the_first_row_prints_no_table(capsys):
    """q = 1 is fine at TL 1 and 2 but not at 3: the run fails with stdout empty."""
    code, out, err = run(capsys, "bench", "--chain", "tl", "-n", "1", "--n-max", "3", "--q", "1")
    assert code == 2 and out == "" and err.startswith("error: ")


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


@pytest.mark.parametrize("command", ["fft", "invert"])
@pytest.mark.parametrize("n,payload", [
    ("3", {"n": 3.7}),
    ("1", {"n": True}),
    ("3", {"n": 3.0}),
    ("3", {"n": "3"}),
    ("3", {"q": 0.1}),
    ("3", {"q": True}),
    ("3", {"q": None}),
    ("3", {"value": 0.5}),
    ("3", {"value": False}),
    ("3", {"value": [1]}),
], ids=["n-3.7", "n-true", "n-3.0", "n-string", "q-0.1", "q-true", "q-null",
        "value-0.5", "value-false", "value-list"])
def test_malformed_numbers_are_refused(tmp_path, capsys, command, n, payload):
    """n must be a JSON integer, q and each value a string or an integer."""
    size = int(n)
    key = all_diagrams(ChainKind.TEMPERLEY_LIEB, size)[0].key()
    data = {"chain": "tl", "n": payload.get("n", size), "q": payload.get("q", "10/3"),
            "coeffs": [{"diagram": key, "value": payload.get("value", "1")}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--chain", "tl", "-n", n, "--coeffs", str(path))
    assert code == 2 and out == "" and err.startswith("error: malformed"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fft", "invert"])
@pytest.mark.parametrize("text,field", [
    ("[1, 2]", "the payload is not a JSON object"),
    ('"tl"', "the payload is not a JSON object"),
    ('{"chain": "tl", "n": 3, "q": "1", "coeffs": {"1-2": "1"}}', "coeffs is not a list"),
    ('{"chain": "tl", "n": 3, "q": "1", "coeffs": [["1-2", "1"]]}', "coeffs[0] is not an object"),
    ('{"chain": "tl", "n": 3, "q": "1", "coeffs": [{"diagram": ["1-2"], "value": "1"}]}',
     "coeffs[0].diagram is not a string"),
    ('{"chain": "tl", "n": 3, "q": "1", "coeffs": [{"diagram": "1-2", "value": "1/0"}]}',
     "coeffs[0].value='1/0' is not a rational number"),
    ('{"chain": "tl", "n": 3, "q": "1", "coeffs": [{"diagram": "1-2", "value": "1"}, '
     '{"diagram": "1-2", "value": "abc"}]}', "coeffs[1].value='abc' is not a rational number"),
    ('{"chain": "tl", "n": 3, "q": "abc", "coeffs": []}', "q='abc' is not a rational number"),
    ('{"chain": "tl", "n": 3, "q": "1", "coeffs": [{"diagram": "1-2", "value": 0.5}]}',
     "coeffs[0].value=0.5 is not a string or an integer"),
], ids=["list", "string", "coeffs-object", "coeffs-of-lists", "diagram-list", "value-1/0",
        "value-abc", "q-abc", "value-float"])
def test_malformed_payload_structure_names_the_field(tmp_path, capsys, command, text, field):
    """A payload of the wrong shape is refused with the wrong field named, not with
    Python's own message about indices or hashing."""
    path = tmp_path / "f.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--chain", "tl", "-n", "3", "--coeffs", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: malformed coefficient payload: {field}\n"


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


def test_cli_import_loads_only_the_program():
    """Importing the CLI loads the engines and their builds, and no module that only
    the tests read: the Brauer cell build is loaded on first use."""
    code = ('import sys, chainfft.cli; '
            'print(" ".join(sorted(m for m in sys.modules if m.startswith("chainfft"))))')
    env = dict(os.environ, PYTHONPATH=str(Path(chainfft.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == [
        "chainfft", "chainfft.cli", "chainfft.combinat", "chainfft.diagrams",
        "chainfft.errors", "chainfft.ratlinalg", "chainfft.reps", "chainfft.reps.core",
        "chainfft.reps.seminormal", "chainfft.transform",
    ]


def test_cli_import_loads_no_dataclasses_inspect_or_statistics():
    """The records of the package are NamedTuples and slots classes, and only `bench`
    reads `statistics`, so importing the CLI loads none of these modules beyond what
    the interpreter loaded at start-up."""
    code = ('import sys; heavy = ("dataclasses", "inspect", "statistics"); '
            'before = {m for m in heavy if m in sys.modules}; import chainfft.cli; '
            'print(" ".join(m for m in heavy if m in sys.modules and m not in before))')
    env = dict(os.environ, PYTHONPATH=str(Path(chainfft.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []


# Runs `main` in a fresh interpreter, where every cache is empty, counting the
# `Diagram`s made, then counts those that `all_diagrams(TL, 3)` makes.
COLD_MAIN = """
import sys
import chainfft.cli as cli
import chainfft.diagrams as D
from chainfft.combinat import ChainKind
made = []
new = D.Diagram.__new__
D.Diagram.__new__ = lambda cls, *args: made.append(args) or new(cls, *args)
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(code, len(made), file=sys.stderr)
D.all_diagrams(ChainKind.TEMPERLEY_LIEB, 3)
print(len(made), file=sys.stderr)
"""


@pytest.mark.parametrize("algo", ["sov", "naive"])
def test_cold_fft_constructs_no_diagram(tmp_path, algo):
    """A cold `fft` reads route tables, which are built from pairs: it constructs no
    `Diagram`, while `all_diagrams` constructs one per basis element."""
    tl = ChainKind.TEMPERLEY_LIEB
    coeffs = tmp_path / "tl6.json"
    coeffs.write_text(json.dumps(element_to_json(random_element(tl, 6, 0), Fraction(10, 3))))
    env = dict(os.environ, PYTHONPATH=str(Path(chainfft.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_MAIN, "fft", "--chain", "tl", "-n", "6", "--algo", algo,
         "--coeffs", str(coeffs)],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout)["level"] == 6
    assert proc.stderr.split() == ["0", "0", "5"]


@pytest.mark.parametrize("args", [
    ("plan", "--chain", "bmw", "-n", "4"),
    ("bratteli", "--chain", "tl", "-n", "10"),
    ("verify", "--chain", "tl", "-n", "3", "--suite", "hom-counts"),
], ids=lambda a: a[0])
def test_closed_stdout_ends_quietly(args):
    """A reader that is gone before the output is written (`chainfft plan ... | head`)
    ends the run with exit status 141 and nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(chainfft.__file__).parents[1]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "chainfft.cli", *args], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract

# Hypothesis favours the first choice and small integers, so the well-formed
# choices come first and each mangling step is drawn as a nonzero number.
CHAINS = ["tl", "sn", "brauer", "bmw", "x", ""]
SIZES = ["2", "3", "1", "0", "-1", "x", ""]
COMMANDS = ["fft", "invert", "bench", "verify", "plan", "dims", "bratteli", "nope"]
FLAG_VALUES = {
    "--chain": CHAINS,
    "-n": SIZES,
    "--q": ["10/3", "1/0", "0", "1", "-2", "x"],
    "--seed": ["0", "-1", "3", "x"],
    "--format": ["json", "dot", "csv", "x"],
    "--algo": ["naive", "sov", "x"],
    "--coeffs": ["@file", "@missing", "@dir"],
    "--suite": ["all", "relations", "factor-set", "hom-counts", "roundtrip", "bounds", "x"],
    "--n-max": ["-1", "0", "3", "x"],
    "--trials": ["-1", "0", "1", "3", "x"],
    "--": [], "-h": [],
}
COMMON = ["--chain", "-n"]
ACCEPTS = {
    "fft": ["--algo", "--q", *COMMON], "invert": ["--q", *COMMON],
    "verify": ["--suite", "--q", "--seed", *COMMON],
    "bench": ["--trials", "--n-max", "--q", "--seed", *COMMON],
    "bratteli": ["--format", *COMMON], "dims": ["--format", *COMMON],
}
# no decimal digits, so no drawn size exceeds the ones listed above
GARBAGE = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
TOKENS = st.one_of(
    st.sampled_from(
        COMMANDS + sorted(FLAG_VALUES) + sorted({v for vs in FLAG_VALUES.values() for v in vs})
    ),
    GARBAGE,
)
DIAGRAM_KEYS = {
    (kind.value, size): [d.key() for d in all_diagrams(kind, size)]
    for kind in (ChainKind.SYMMETRIC_GROUP, ChainKind.TEMPERLEY_LIEB, ChainKind.BRAUER)
    for size in range(4)
}
JSON_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=6)
)
# json reads and writes Infinity and NaN
SCALARS = st.one_of(
    st.sampled_from(["1/2", "-3", "10/3", "1/0", "x", "", "2.5"]),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300]),
    JSON_ATOMS,
)


def _rows(keys):
    """Coefficient rows: mostly basis keys of the flags' algebra, some malformed."""
    diagram = st.one_of(
        st.sampled_from(keys or [""]), st.sampled_from(["4-1,3-2", "1-x", "1-2-3", ","]), JSON_ATOMS
    )
    row = st.fixed_dictionaries({"diagram": diagram, "value": SCALARS})
    no_value = st.fixed_dictionaries({}, optional={"diagram": diagram})
    return st.lists(st.one_of(row, no_value), max_size=4)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=600)
@given(data=st.data())
def test_cli_exit_codes_under_fuzz(data, fuzz_dir):
    """Malformed argv and coefficient files end in exit code 0, 1 or 2, never a traceback."""
    draw = data.draw
    chain, n = draw(st.sampled_from(CHAINS)), draw(st.sampled_from(SIZES))
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--chain", chain, "-n", n]
    if command in ("fft", "invert") and draw(st.integers(0, 3)) < 3:
        argv += ["--coeffs", "@file"]
    flags = st.one_of(
        st.sampled_from(ACCEPTS.get(command, COMMON)), st.sampled_from(sorted(FLAG_VALUES))
    )
    for flag in draw(st.lists(flags, max_size=3)):
        values = st.sampled_from(FLAG_VALUES[flag] or ["x"])
        argv += [flag, draw(TOKENS if draw(st.integers(0, 3)) == 3 else values)]
    if draw(st.integers(0, 3)) == 3:
        argv = draw(st.permutations(argv))
    if draw(st.integers(0, 3)) == 3:
        argv += draw(st.lists(TOKENS, min_size=1, max_size=2))
    size = int(n) if n.lstrip("-").isdigit() else n
    payload = {"chain": chain, "n": size, "q": draw(SCALARS),
               "coeffs": draw(_rows(DIAGRAM_KEYS.get((chain, size))))}
    mangle = draw(st.integers(0, 5))
    if mangle == 4:
        payload = draw(st.one_of(JSON_ATOMS, st.lists(JSON_ATOMS, max_size=3)))
    elif mangle == 1:
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif mangle == 2:
        payload[draw(st.sampled_from(sorted(payload)))] = draw(JSON_ATOMS)
    text = draw(st.text(max_size=12)) if mangle == 3 else json.dumps(payload)
    (fuzz_dir / "f.json").write_text(text, errors="surrogatepass")
    paths = {"@file": fuzz_dir / "f.json", "@missing": fuzz_dir / "none.json", "@dir": fuzz_dir}
    argv = [str(paths.get(token, token)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv

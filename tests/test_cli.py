import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from althecke.cli import main
from althecke.scalars import canonical_json


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("n", ["3", "4"])
def test_table_json_matches_golden(goldens, n):
    code, out = run_cli(["table", "-n", n])
    assert code == 0
    assert out == (goldens / f"table_n{n}.json").read_text()


def test_table_csv_matches_golden(goldens):
    code, out = run_cli(["table", "-n", "3", "--format", "csv"])
    assert code == 0
    assert out == (goldens / "table_n3.csv").read_text()


def test_table_output_is_byte_stable():
    code1, out1 = run_cli(["table", "-n", "4"])
    code2, out2 = run_cli(["table", "-n", "4"])
    assert code1 == code2 == 0
    assert out1 == out2


# SHA-256 of the table bytes above the goldens (n <= 5) and the benchmark
# refs (n <= 7), recorded before split cells were formed from Ram's rule and
# the closed form alone; n = 13 and 14, above the resource guard, recorded
# before Ram's rule ran forward
TABLE_SHA256 = {
    ("6", "json"): "c7fe803069cbddc7fbecc743eaf944b746ab1ebc8d881416e5f1526ba67e5738",
    ("7", "json"): "80a964f322f81fbf7f9717be97efd940b3cb02712e3263217c888cfdcc227131",
    ("8", "json"): "e81ea22ff1d646c05f98110ee55ef2be5179a52504271744d6b54861d8a7d188",
    ("9", "json"): "1457474419672509b01f26dab47681c6b530b3659540cdbff72d962523d30307",
    ("10", "json"): "43634bb839ba1f153234e59551e0f9958059cb3e4f3e48ebe3a3fd9435e0f8f0",
    ("11", "json"): "986f4256a86199f0b5cdba51159a7ac9f96c25c8d459436ae1808af15f21de3a",
    ("12", "json"): "78b29e696a3b476a40f90e82b534a5f0bb179c3aa637e8b893ae62478b4a0a04",
    ("12", "csv"): "6f6161f9f6a878a2f8db436695180a32827d84a76f926424743a5d557308a5c1",
    ("13", "json"): "75928f4eb08249b9537973b77f2b593da22001953e878f475c70fec1569d97aa",
    ("14", "json"): "ff3eaba857d43ec08ce64a343bcee3728746ac1f53a2c8ab7ff2b4ceed0c33d8",
}


@pytest.mark.parametrize("n, fmt", list(TABLE_SHA256))
def test_table_bytes_are_pinned(n, fmt):
    code, out = run_cli(["table", "-n", n, "--format", fmt, "--force"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[n, fmt]


@pytest.mark.parametrize("n", range(2, 15))
def test_table_json_is_the_canonical_table_document(n):
    from althecke.chars import char_table

    code, out = run_cli(["table", "-n", str(n), "--force"])
    assert code == 0
    assert out == canonical_json(char_table(n).to_obj()) + "\n"


def test_table_json_forms_no_tower_element(monkeypatch):
    # the JSON cells are rendered from Ram's packed values: no cell is read
    # into a tower element and no table document is built
    from althecke import chars, cli, symgroup
    from althecke.scalars import TowerElem

    def forbidden(*args, **kwargs):
        raise AssertionError("table JSON went through the tower-element table")

    for mod, name in ((chars, "_read"), (chars, "char_table"), (cli, "char_table"),
                      (chars, "_closed_value"), (chars, "alt_classes"),
                      (symgroup, "alt_classes")):
        monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(chars.CharTable, "to_obj", forbidden)
    # nor is a column a class object, or a radical a scaled tower element
    monkeypatch.setattr(TowerElem, "scale", forbidden)
    code, out = run_cli(["table", "-n", "9"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256["9", "json"]


def test_tau_char_pretty_value():
    code, out = run_cli(["tau-char", "--shape", "2,1", "--word", "1,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pretty"] == "√-1·q^(-3/2)·√[3]"
    assert doc["convention"] == "oracle"
    assert doc["sigma"] == 1
    assert doc["a_poly_pretty"] == "1"


def test_tau_char_golden_n9(goldens):
    code, out = run_cli(["tau-char", "--shape", "3,3,3",
                         "--word", "8,5,1,2,3,4,6,7"])
    assert code == 0
    assert out == (goldens / "tau_char_n9_first.json").read_text()
    doc = json.loads(out)
    assert doc["a_poly_pretty"] == "q^-2 - 2 + q^2"
    assert doc["recursion_steps"]


def test_tau_char_paper_convention_flips_sign():
    _, oracle = run_cli(["tau-char", "--shape", "2,1", "--word", "1,2"])
    _, paper = run_cli(["tau-char", "--shape", "2,1", "--word", "1,2",
                        "--convention", "paper"])
    v1 = json.loads(oracle)["value"]["terms"][0]["num"]
    v2 = json.loads(paper)["value"]["terms"][0]["num"]
    assert v1 != v2  # the two conventions differ by a global sign here


def test_char_command():
    code, out = run_cli(["char", "--shape", "2,1", "--word", "1,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["hecke_char_pretty"] == "-1"
    assert set(doc["split"]) == {"plus", "minus"}


@pytest.mark.parametrize("shape", ["1", ""])
def test_char_does_not_split_below_degree_two(shape):
    # the involution is trivial there: a split would pair 1 with the zero module
    code, out = run_cli(["char", "--shape", shape, "--word", ""])
    assert code == 0
    doc = json.loads(out)
    assert "split" not in doc
    assert doc["hecke_char_pretty"] == "1"


def test_classpoly_command():
    code, out = run_cli(["classpoly", "-n", "3", "--word", "1,2,1"])
    assert code == 0
    doc = json.loads(out)
    table = {tuple(entry["class"]): entry["pretty"] for entry in doc["f"]}
    assert table == {(2, 1): "1", (3,): "-q^-1 + q"}
    assert "g" not in doc  # odd word has no alternating table

    code, out = run_cli(["classpoly", "-n", "4", "--word", "2,1,3,2"])
    doc = json.loads(out)
    assert "g" in doc and doc["g"]


def test_classpoly_golden_n7_n8(goldens):
    # even and odd words of length 2n..2n+2 at n = 7, 8, above the degrees
    # the acceptance criteria reach
    cases = json.loads((goldens / "classpoly_n7_n8.json").read_text(encoding="utf-8"))
    assert {case["argv"][2] for case in cases} == {"7", "8"}
    for case in cases:
        code, out = run_cli(case["argv"])
        assert code == 0
        assert out == case["stdout"]


def test_char_golden_self_conjugate(goldens):
    # self-conjugate shapes of degree 6..9, even and odd words, every --sign
    cases = json.loads((goldens / "char_selfconj.json").read_text(encoding="utf-8"))
    assert {sum(map(int, case["argv"][2].split(","))) for case in cases} == {6, 7, 8, 9}
    for case in cases:
        code, out = run_cli(case["argv"])
        assert code == 0
        assert out == case["stdout"]


def _split_and_twisted(shape, word, convention):
    from althecke.scalars import tower_from_obj

    query = ["--shape", shape, "--word", word, "--convention", convention]
    _, out = run_cli(["char", *query])
    doc = json.loads(out)
    _, out = run_cli(["tau-char", *query])
    tau = json.loads(out)
    return (tower_from_obj(doc["hecke_char"]), tower_from_obj(tau["value"]),
            tower_from_obj(doc["split"]["plus"]["value"]),
            tower_from_obj(doc["split"]["minus"]["value"]))


@pytest.mark.parametrize("shape, word, swapped", [
    ("3,3,3", "8,5,1,2,3,4,6,7", True),  # (n - d)/2 = 3
    ("3,1,1", "1,2,3,4", False),  # (n - d)/2 = 2
])
def test_char_split_follows_the_convention(shape, word, swapped):
    from althecke.scalars import R_HALF

    plain, tw, plus, minus = _split_and_twisted(shape, word, "paper")
    assert not tw.is_zero()
    assert plus == (plain + tw).scale(R_HALF)
    assert minus == (plain - tw).scale(R_HALF)
    _, _, oracle_plus, oracle_minus = _split_and_twisted(shape, word, "oracle")
    if swapped:
        assert (plus, minus) == (oracle_minus, oracle_plus)
    else:
        assert (plus, minus) == (oracle_plus, oracle_minus)


def test_bench_refs_digests(monkeypatch):
    # every query of the benchmark pools reproduces its recorded output
    import hashlib

    monkeypatch.delenv("ALTHECKE_CACHE_DIR", raising=False)
    refs = Path(__file__).resolve().parent.parent / "bench" / "refs"
    for workload in ("table", "twisted", "classpoly"):
        pool = json.loads((refs / f"{workload}.json").read_text(encoding="utf-8"))
        assert pool["queries"]
        for query in pool["queries"]:
            code, out = run_cli(query["argv"])
            assert code == 0, query["argv"]
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:32]
            assert digest == query["sha256"], query["argv"]


def test_basis_command():
    code, out = run_cli(["basis", "-n", "3", "--which", "B"])
    assert code == 0
    doc = json.loads(out)
    assert doc["which"] == "B"
    assert len(doc["rows"]) == 6
    assert run_cli(["basis", "-n", "3", "--which", "b"]) == (code, out)


def test_basis_rejects_an_unknown_which(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["basis", "-n", "3", "--which", "C"])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "usage: " in err_text and "--which" in err_text


def test_verify_suites_pass(goldens):
    code, out = run_cli(["verify", "--suite", "all", "--cases", "25"])
    assert code == 0
    assert out == (goldens / "verify_all_n4_cases25.json").read_text()


def test_verify_reports_a_broken_route(monkeypatch):
    import althecke.verify
    from althecke.scalars import TowerElem

    monkeypatch.setattr(althecke.verify, "twisted_char_closed",
                        lambda lam, kappa: TowerElem.zero())
    code, out = run_cli(["verify", "--suite", "oracle"])
    assert code == 1
    doc = json.loads(out)
    assert doc["results"][0]["failures"] > 0
    assert doc["passed"] is False


def test_verify_rejects_negative_cases(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--suite", "greene", "--cases", "-3"])
    assert err.value.code == 2
    assert "--cases" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["greene", "all"])
def test_verify_rejects_zero_cases(suite, capsys):
    # zero cases would run no Greene check and still report "passed"
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--suite", suite, "--cases", "0"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "error: verify needs at least one case, got --cases 0"
    assert len(lines) == 2 and lines[1].startswith("usage: ")


def test_char_rejects_a_shape_that_is_not_a_partition(capsys):
    for shape in ("2,3", "0", "3,0,0", "a", "3,x"):
        with pytest.raises(SystemExit) as err:
            run_cli(["char", "--shape", shape, "--word", "1"])
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("error: shape ") and lines[1].startswith("usage: ")


def test_char_rejects_a_word_that_is_not_integers(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["char", "--shape", "3", "--word", "1,,2"])
    assert err.value.code == 2
    text = capsys.readouterr().err
    assert text.splitlines()[0] == "error: word '1,,2': '' is not an integer"
    assert "invalid literal" not in text


@pytest.mark.parametrize("argv, n", [(["classpoly", "-n", "0"], 0), (["char", "--shape", "1"], 1)])
def test_a_word_at_a_degree_without_generators_names_the_degree(argv, n, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--word", "1"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == f"error: degree {n} has no generators"
    assert [line for line in lines if line.startswith("error:")] == lines[:1]


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_verify_rejects_a_degree_below_two(n, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "-n", n, "--suite", "classpoly"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == f"error: verify needs a degree n >= 2, got {n}"
    assert lines[1].startswith("usage: ")


def test_tau_char_rejects_a_shape_that_is_not_self_conjugate(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["tau-char", "--shape", "3", "--word", "1"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "error: shape (3,) is not self-conjugate"
    assert lines[1].startswith("usage: ")


def test_resource_guard(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["table", "-n", "13"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("error: degree 13 exceeds the resource guard")
    assert lines[1].startswith("usage: ")


def test_basis_guard_refuses_degree_7_before_building_the_basis(monkeypatch, capsys):
    # basis writes all n! elements, so its guard stops at 6; --force passes it
    import althecke.cli as cli

    def enumerated(n):
        raise AssertionError(f"the basis of degree {n} was built")

    monkeypatch.setattr(cli, "all_permutations", enumerated)
    with pytest.raises(SystemExit) as err:
        run_cli(["basis", "-n", "7"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "error: degree 7 exceeds the resource guard 6; pass --force to override"
    assert lines[1].startswith("usage: ")
    monkeypatch.setattr(cli, "all_permutations", lambda n: iter(()))
    code, out = run_cli(["basis", "-n", "7", "--force"])
    assert code == 0 and json.loads(out)["rows"] == []


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        run_cli(["table"])
    assert err.value.code != 0


def test_resource_guard_force_table_n13():
    code, out = run_cli(["table", "-n", "13", "--force"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 55


def test_table_ignores_a_cache_dir(tmp_path, monkeypatch, goldens):
    # a canonical table_n5.json with the cells of [5] and [4,1] swapped is
    # neither served nor replaced: table keeps no on-disk state
    golden = (goldens / "table_n5.json").read_text()
    doc = json.loads(golden)
    rows = doc["rows"]
    assert [row["label"] for row in rows[:2]] == ["[5]", "[4,1]"]
    rows[0]["cells"], rows[1]["cells"] = rows[1]["cells"], rows[0]["cells"]
    stale = tmp_path / "table_n5.json"
    stale.write_text(canonical_json(doc))
    before = stale.read_bytes()
    monkeypatch.setenv("ALTHECKE_CACHE_DIR", str(tmp_path))
    code, out = run_cli(["table", "-n", "5"])
    assert code == 0 and out == golden
    assert list(tmp_path.iterdir()) == [stale] and stale.read_bytes() == before


@pytest.mark.parametrize("n", ["-1", "-3"])
@pytest.mark.parametrize("command", ["classpoly", "basis"])
def test_negative_degree_is_a_usage_error(command, n, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli([command, "-n", n])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage: ") and "argument -n: must not be negative" in err_text


def test_shared_parser_keeps_no_state_between_calls():
    from althecke.cli import build_parser

    assert build_parser() is build_parser()
    query = ["tau-char", "--shape", "2,1", "--word", "1,2"]
    _, explicit = run_cli(query + ["--convention", "oracle"])
    _, paper = run_cli(query + ["--convention", "paper"])
    _, default = run_cli(query)
    assert json.loads(paper)["convention"] == "paper"
    assert default == explicit
    assert json.loads(default)["convention"] == "oracle"


def test_tau_char_reduces_the_query_once(monkeypatch, goldens):
    import althecke.chars
    from althecke.symgroup import from_word, reduce_to_composition

    calls = []

    def counted(w):
        calls.append(w)
        return reduce_to_composition(w)

    for name, mod in list(sys.modules.items()):
        if name.startswith("althecke") and \
                getattr(mod, "reduce_to_composition", None) is reduce_to_composition:
            monkeypatch.setattr(mod, "reduce_to_composition", counted)
    althecke.chars._twisted_value.cache_clear()  # a cached value would hide a second walk
    word = [8, 5, 1, 2, 3, 4, 6, 7]
    code, out = run_cli(["tau-char", "--shape", "3,3,3",
                         "--word", ",".join(map(str, word))])
    assert code == 0
    assert calls.count(from_word(word, 9)) == 1
    assert out.encode("utf-8") == (goldens / "tau_char_n9_first.json").read_bytes()


@pytest.mark.parametrize("shape, word, calls", [
    ("3,3,3", "8,5,1,2,3,4,6,7", 1),  # self-conjugate: the split values sum to it
    ("3,2", "1,2,3,4", 2),  # the shape and its conjugate
])
def test_char_computes_each_distinct_shape_once(monkeypatch, shape, word, calls):
    import althecke.chars
    import althecke.cli

    seen = []
    plain = althecke.chars.char_via_class_polys

    def counted(lam, w):
        seen.append(tuple(lam))
        return plain(lam, w)

    for mod in (althecke.chars, althecke.cli):
        monkeypatch.setattr(mod, "char_via_class_polys", counted)
    code, _ = run_cli(["char", "--shape", shape, "--word", word])
    assert code == 0
    assert len(seen) == len(set(seen)) == calls


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # both cost set-up time on every start; a fresh interpreter shows them
    import althecke

    src = str(Path(althecke.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import althecke.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["table", "-n", "9"],
                                  ["tau-char", "--shape", "2,1", "--word", "1,2"]])
def test_a_closed_pipe_ends_a_command_without_a_traceback(argv):
    # the reader is gone before the command writes, as with `| head -c 0`
    import althecke

    src = str(Path(althecke.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "althecke.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode != 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.parametrize("argv", [
    ["char", "--shape", "2,1", "--word", "1,2", "--format", "csv"],
    ["tau-char", "--shape", "2,1", "--word", "1,2", "--format", "csv"],
    ["classpoly", "-n", "3", "--word", "1,2", "--format", "csv"],
    ["basis", "-n", "3", "--format", "csv"],
    ["verify", "--suite", "cute", "--format", "csv"],
    ["table", "-n", "3", "--convention", "paper"],
    ["classpoly", "-n", "3", "--word", "1,2", "--convention", "paper"],
    ["basis", "-n", "3", "--convention", "paper"],
    ["verify", "--suite", "cute", "--convention", "paper"],
])
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage: ") and "unrecognized arguments" in err_text


def test_production_queries_build_no_module_and_take_no_gcd():
    # a fresh interpreter, so process set-up is counted and no cache is warm
    import althecke

    src = str(Path(althecke.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("ALTHECKE_CACHE_DIR", None)
    code = """
import contextlib, io
import althecke.scalars, althecke.specht
calls = []
for mod, name in ((althecke.specht, "build_rep"), (althecke.scalars, "_poly_gcd")):
    def counted(*args, _fn=getattr(mod, name), _name=name):
        calls.append(_name)
        return _fn(*args)
    setattr(mod, name, counted)
from althecke.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["table", "-n", "6"]) == 0
    assert main(["tau-char", "--shape", "3,3,3", "--word", "8,5,1,2,3,4,6,7"]) == 0
    assert main(["classpoly", "-n", "5", "--word", "2,1,3,2,4,3"]) == 0
print(calls)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_classpoly_builds_no_averaged_element(monkeypatch):
    # the odd cycle type (4, 1) in the f-vector of s_2 s_3 s_4 s_3 is
    # settled by the subword formula, not by expanding T in the A basis
    from althecke import chars, hecke
    from althecke.symgroup import from_word

    calls = []
    for name in ("a_elem", "_hash_of_t"):
        def spy(w, _orig=getattr(hecke, name), _name=name):
            calls.append(_name)
            return _orig(w)
        monkeypatch.setattr(hecke, name, spy)
    for cache in (chars._f_vector, chars._g_vector, chars._min_rep_vector):
        cache.cache_clear()
    assert (4, 1) in dict(chars._f_vector(from_word([2, 3, 4, 3], 5)))
    code, out = run_cli(["classpoly", "-n", "5", "--word", "2,3,4,3"])
    assert code == 0 and json.loads(out)["g"]
    assert calls == []


@pytest.mark.parametrize("command", ["table", "classpoly", "basis"])
def test_a_degree_that_is_not_an_integer_is_a_plain_usage_error(command, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli([command, "-n", "x"])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"usage: althecke {command} ")
    assert err_text.endswith(f"althecke {command}: error: argument -n: 'x' is not an integer\n")
    assert "_nonnegative" not in err_text


def _outcome(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _full_parser_main(argv):
    # every call through the full parser, as main ran before each command
    # had a parser of its own
    from althecke.cli import COMMANDS, build_parser

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except (ValueError, KeyError) as err:
        parser.exit(2, f"error: {err}\n{parser.format_usage()}")


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--he"], ["-x"], ["bogus"], ["bogus", "-n", "3"], ["-h", "table"],
    ["--", "table", "-n", "3"],
    ["table"], ["table", "-h"], ["table", "--he"], ["table", "-n", "3"], ["table", "-n3"],
    ["table", "-n=3", "--format", "csv"], ["table", "-n", "x"], ["table", "-n", "-1"],
    ["table", "-n", "13"], ["table", "-n", "3", "--bogus"], ["table", "-n", "3", "extra"],
    ["table", "--format", "xml", "-n", "3"], ["table", "--", "-n", "3"],
    ["table", "-n", "3", "--", "x"], ["table", "--fo", "csv", "-n", "3"],
    ["table", "-n", "3", "-h"], ["table", "--bogus", "-n", "x"], ["table", "-n"],
    ["char", "-h"], ["char"], ["char", "--shape", "2,1", "--word", "1,2"],
    ["char", "--shape", "3,3,3", "--word", "8,5,1,2,3,4,6,7", "--sign", "+"],
    ["char", "--shape", "2,2", "--word", "1,3", "--convention", "paper"],
    ["char", "--shape", "a"], ["char", "--shape", "2,1", "--sign", "x"],
    ["char", "--shape", "2,1", "extra"], ["char", "--shape", "2,1", "--format", "csv"],
    ["tau-char", "-h"], ["tau-char"], ["tau-char", "--shape"],
    ["tau-char", "--shape", "2,1", "--word", "1,2", "--convention", "paper"],
    ["tau-char", "--shape", "3", "--word", "1"], ["tau-char", "--shape", "2,1", "-n", "3"],
    ["classpoly", "-h"], ["classpoly"], ["classpoly", "-n", "4", "--word", "2,1,3,2"],
    ["classpoly", "-n", "x"], ["classpoly", "-n", "-1"], ["classpoly", "-n", "3", "--word", "5"],
    ["classpoly", "-n", "3", "--word", "1,2", "--convention", "paper"],
    ["basis", "-h"], ["basis", "-n", "3", "--which", "a"], ["basis", "-n", "3", "--which", "C"],
    ["basis", "-n", "x"], ["basis", "-n", "13"], ["basis", "-n", "3", "--format", "csv"],
    ["verify", "-h"], ["verify", "--suite", "cute", "-n", "3"], ["verify", "-n", "1"],
    ["verify", "--cases", "-1"], ["verify", "--cases", "x"], ["verify", "-n", "x"],
    ["verify", "--suite", "nope"], ["verify", "--suite", "cute", "--format", "csv"],
])
def test_command_parser_route_matches_the_full_parser(argv):
    # stdout, stderr and exit code are those of the full parser's route
    assert _outcome(main, argv) == _outcome(_full_parser_main, argv)


def test_a_query_builds_only_the_parser_of_its_command(monkeypatch):
    import argparse

    from althecke import cli

    for obj in vars(cli).values():  # cold, as in a fresh process
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == cli.__name__:
            obj.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out = run_cli(["table", "-n", "5"])
    assert code == 0 and json.loads(out)["n"] == 5
    assert built == ["althecke table"]


_USAGE = json.loads((Path(__file__).parent / "golden" / "cli_usage.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _USAGE["cases"], ids=lambda c: " ".join(c["argv"]) or "no-arguments")
@pytest.mark.parametrize("call", [main, _full_parser_main], ids=["main", "full-parser"])
def test_usage_and_help_match_the_recorded_bytes(call, case, monkeypatch):
    # both routes against the bytes of the one full parser every call used before
    if "%d.%d" % sys.version_info[:2] != _USAGE["python"]:
        pytest.skip(f"recorded under CPython {_USAGE['python']}; argparse's wording varies")
    monkeypatch.setenv("COLUMNS", str(_USAGE["columns"]))
    assert _outcome(call, case["argv"]) == (case["code"], case["stdout"], case["stderr"])

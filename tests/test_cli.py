import json

import pytest

from hylotab.cli import main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def first_line(capsys):
    return capsys.readouterr().out.splitlines()[0]


def test_solve_sat(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: <r> p;")
    assert main(["solve", f]) == 0
    assert first_line(capsys) == "RESULT: SAT"


def test_solve_unsat(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "trans r; r <= s; s <= r; formula: <s> <s> p & [s] !p;")
    assert main(["solve", f, "--trace"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "RESULT: UNSAT"
    assert "Link" in out and "Trans" in out


def test_solve_fragment_rejection(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: [r] down x . [r] x;")
    for command in ("solve", "preprocess", "validate"):
        assert main([command, f]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "RESULT: OUTSIDE-FRAGMENT",
            "witness: box-down-box at [0]",
        ]


def test_solve_limit(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: [A] <r> true;")
    assert main(["solve", f, "--max-nodes", "3"]) == 2
    assert first_line(capsys) == "RESULT: LIMIT"


def test_solve_stats(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: (p | q) & (r | s) & !r & !s;")
    assert main(["solve", f, "--stats", "--trace"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "RESULT: UNSAT"
    stats = json.loads(lines[1])
    assert stats.pop("seconds") >= 0
    assert stats == {"branches": 1, "steps": 6, "pruned": 1, "limit": None}
    assert lines[2].startswith("(0) ")
    f = write(tmp_path, "p.hl", "formula: [A] <r> true;")
    assert main(["solve", f, "--stats", "--max-nodes", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "RESULT: LIMIT" and json.loads(lines[1])["limit"] == "nodes"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-nodes", "0"], "max_nodes must be at least 1, not 0"),
        (["--max-branches", "-3"], "max_branches must be at least 1, not -3"),
        (["--timeout", "nan"], "timeout must be a number, not nan"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_bad_limits_are_input_errors(tmp_path, capsys, command, flags, message):
    f = write(tmp_path, "p.hl", "formula: p;")
    assert main([command, f] + flags) == 4
    assert capsys.readouterr().out.splitlines() == ["RESULT: INPUT-ERROR", message]


def test_solve_model_output(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: <r> p & [r] q;")
    assert main(["solve", f, "--model"]) == 0
    out = capsys.readouterr().out
    assert "model validated: yes" in out
    assert "states " in out


def test_input_error(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: (p;")
    assert main(["solve", f]) == 4
    assert first_line(capsys) == "RESULT: INPUT-ERROR"


@pytest.mark.parametrize(
    "formula",
    [" & ".join(["p"] * 3000), "<r> " * 1200 + "p"],
    ids=["wide-conjunction", "deep-diamonds"],
)
def test_deep_input_error(tmp_path, capsys, formula):
    f = write(tmp_path, "p.hl", "formula: %s;" % formula)
    assert main(["solve", f]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "RESULT: INPUT-ERROR",
        "input nested too deeply",
    ]


def test_missing_file(capsys):
    assert main(["solve", "/nonexistent/p.hl"]) == 4
    assert first_line(capsys) == "RESULT: INPUT-ERROR"


def test_check_fragment(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: down x . [r] x;")
    assert main(["check-fragment", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "RESULT: PREPROCESSABLE"
    assert "binder-over-universal: yes" in out
    # witness paths print as in the fragment rejection of `solve`
    f = write(tmp_path, "q.hl", "formula: [r] down x . [r] x;")
    assert main(["check-fragment", f]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "RESULT: OUTSIDE-FRAGMENT",
        "binder-over-universal: yes",
        "universal-binder-universal: yes",
        "graded-restrictions-met: yes",
        "witness: box-down-box at [0]",
        "witness: down-box at [0]",
    ]


def test_preprocess_output(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: <r>^1 p;")
    assert main(["preprocess", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "RESULT: OK"
    assert "^" not in out.split("\n", 1)[1]


def test_model_check(tmp_path, capsys):
    model = write(tmp_path, "m.txt", "states 2\nlabel 1 p\nedge r 0 1\n")
    good = write(tmp_path, "good.hl", "formula: <r> p;")
    bad = write(tmp_path, "bad.hl", "formula: [A] p;")
    assert main(["model-check", model, good]) == 0
    assert first_line(capsys) == "RESULT: VALID"
    assert main(["model-check", model, bad]) == 1
    assert first_line(capsys) == "RESULT: INVALID"


def test_oracle(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: p & !p;")
    assert main(["oracle", f]) == 1
    assert first_line(capsys) == "RESULT: UNSAT"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_oracle_rejects_an_empty_bound(tmp_path, capsys, bound):
    f = write(tmp_path, "p.hl", "formula: p;")
    assert main(["oracle", "--max-states", bound, f]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out == ["RESULT: INPUT-ERROR", "max_states must be at least 1, not %s" % bound]


def test_gen_random_round_trips(tmp_path, capsys):
    assert main(["gen", "random", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    body = out.split("\n", 1)[1]
    f = write(tmp_path, "g.hl", body)
    assert main(["solve", f]) in (0, 1)


def test_validate(tmp_path, capsys):
    f = write(tmp_path, "p.hl", "formula: <r> p & [r] q;")
    assert main(["validate", f]) == 0
    assert first_line(capsys) == "RESULT: VALIDATED"


@pytest.mark.parametrize(
    "problem",
    ["formula: <r>^1 p & [r] (q | p) & <r>^2 q;",
     "trans r; r <= s; r- <= s;\nformula: <r> <r> p & [r] !q & <s-> q;"],
    ids=["graded", "trans-incl-converse"],
)
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_printed_model_passes_model_check(tmp_path, capsys, problem, command):
    f = write(tmp_path, "p.hl", problem)
    argv = ["solve", "--model", f] if command == "solve" else ["validate", f]
    assert main(argv) == 0
    out = capsys.readouterr().out
    model = write(tmp_path, "m.txt", out[out.index("states "):])
    assert main(["model-check", model, f]) == 0
    assert first_line(capsys) == "RESULT: VALID"


@pytest.mark.parametrize(
    "model",
    ["nominal a", "edge r 0", "label 0", "states", "states 1\nnominal a 5",
     "states 2\nedge r 0 2", "states 1\nlabel 1 p"],
    ids=["nominal", "edge", "label", "states", "nominal-state", "edge-state", "label-state"],
)
def test_model_check_malformed_model(tmp_path, capsys, model):
    m = write(tmp_path, "m.txt", model + "\n")
    f = write(tmp_path, "p.hl", "formula: p;")
    assert main(["model-check", m, f]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "RESULT: INPUT-ERROR"
    assert out[1].startswith(("bad model line", "model state"))


BIG_GRADE = "formula: <r>^99999999999999999999 p;"


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["solve", "p.hl"], {"p.hl": BIG_GRADE},
         "grade must be between 0 and 10000, not 99999999999999999999"),
        (["preprocess", "p.hl"], {"p.hl": BIG_GRADE},
         "grade must be between 0 and 10000, not 99999999999999999999"),
        (["model-check", "m.txt", "p.hl"], {"m.txt": "states 100000000000\n", "p.hl": "formula: p;"},
         "model state count must be at most 10000000, not 100000000000"),
        (["gen", "frame", "--property", "at_most_n", "--n", "100000000000"], {},
         "frame property count must be at least 1 and at most 10000, not 100000000000"),
        (["gen", "random", "--depth", "60"], {},
         "depth must be nonnegative and at most 16, not 60"),
    ],
    ids=["solve-grade", "preprocess-grade", "model-states", "gen-at-most-n", "gen-random-depth"],
)
def test_oversized_counts_are_refused_before_allocation(tmp_path, capsys, argv, files, message):
    """Each count is checked before the names or states it asks for are built."""
    paths = {name: write(tmp_path, name, text) for name, text in files.items()}
    assert main([paths.get(arg, arg) for arg in argv]) == 4
    assert capsys.readouterr().out.splitlines() == ["RESULT: INPUT-ERROR", message]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frame", "--property", "at_most_n", "--n", "0"], "count must be at least 1"),
        (["frame", "--property", "at_least_n_successors", "--n", "0"], "count must be at least 1"),
        (["random", "--depth", "-1"], "depth must be nonnegative"),
    ],
    ids=["at-most-0", "at-least-0", "negative-depth"],
)
def test_gen_rejects_bad_counts(capsys, argv, message):
    assert main(["gen"] + argv) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "RESULT: INPUT-ERROR"
    assert message in out[1]


def test_gen_smallest_counts_round_trip(tmp_path, capsys):
    for argv in (["frame", "--property", "at_most_n", "--n", "1"],
                 ["frame", "--property", "at_least_n_successors", "--n", "1"],
                 ["random", "--depth", "0"]):
        assert main(["gen"] + argv) == 0
        f = write(tmp_path, "g.hl", capsys.readouterr().out.split("\n", 1)[1])
        assert main(["solve", f]) in (0, 1)
        assert first_line(capsys) in ("RESULT: SAT", "RESULT: UNSAT")

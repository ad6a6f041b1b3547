import json
import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import pytest

from cellnet.cli import run
from conftest import build_three_cell_net, wide_doc

RUNNING = "nets/three_cells.net"
RUNNING_DELTA = "nets/three_cells.delta"
CONFUSION = "nets/confusion.net"
CONFUSION_DELTA = "nets/confusion.delta"


def test_validate_ok(capsys):
    assert run(["validate", RUNNING]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text(
        '{"places": ["p", "q", "r"], "transitions": ['
        '{"id": "t", "pre": ["q"], "post": ["p"]}, '
        '{"id": "u", "pre": ["r"], "post": ["p"]}]}'
    )
    assert run(["validate", str(bad)]) == 1
    assert "backward-conflict" in capsys.readouterr().out


def test_validate_long_chain(tmp_path, capsys):
    n = 1000
    doc = {
        "places": [f"p{i}" for i in range(n + 1)],
        "transitions": [
            {"id": f"t{i}", "pre": [f"p{i}"], "post": [f"p{i + 1}"]} for i in range(n)
        ],
        "marking": ["p0"],
    }
    chain = tmp_path / "chain.net"
    chain.write_text(json.dumps(doc))
    assert run(["validate", str(chain)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_json_nested_too_deeply(tmp_path, capsys):
    deep = tmp_path / "deep.net"
    deep.write_text("[" * 5000 + "]" * 5000)
    assert run(["validate", str(deep)]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err == "cellnet validate: the input nests too deeply for this command (Python recursion limit reached)\n"


def test_compile_refuses_an_identifier_a_term_cannot_carry(tmp_path, capsys):
    net = tmp_path / "comma.net"
    net.write_text('{"places": ["p", "q"], "transitions": [{"id": "a,b", "pre": ["p"], "post": ["q"]}], '
                   '"marking": ["p"]}')
    assert run(["compile", str(net)]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert len(err.splitlines()) == 1 and "'a,b'" in err


def test_validate_reports_the_same_under_every_hash_seed():
    # set iteration orders vary with PYTHONHASHSEED, so each command runs
    # in a fresh interpreter; with three empty pre-sets the least is named
    root = Path(__file__).resolve().parent.parent
    expected = {
        "cycle.net": "".join(f"cycle at {x}: node lies on a flow cycle\n" for x in "pqtu"),
        "conflicts.net": "backward-conflict at c: multiple producers ['t3', 't4']\n"
                         "self-conflict at t3: conflicting causes t1 #0 t2\n",
        "empty_presets.net": "cellnet validate: transition 'a' has an empty pre-set\n",
        "null_post.net": "cellnet validate: 'post' of transition 't' must be a list of non-empty strings\n",
    }
    for name, printed in expected.items():
        for seed in range(4):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(root / "src")}
            proc = subprocess.run([sys.executable, "-m", "cellnet", "validate", f"tests/invalid_nets/{name}"],
                                  cwd=root, env=env, capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stdout + proc.stderr) == (1, printed), (name, seed)


def test_validate_missing_file(capsys):
    assert run(["validate", "nets/nope.net"]) == 1
    assert "nope.net" in capsys.readouterr().err


def test_cells_listing(capsys):
    assert run(["cells", RUNNING]) == 0
    out = capsys.readouterr().out
    assert "C1: members {1,a,b}" in out
    assert "C3: members {3,4,6,e,f,g,h}" in out
    assert "C1 < C3" in out and "C2 < C3" in out


def test_canon(capsys):
    assert run(["canon", RUNNING]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "((cell{1,a,b} + cell{2,c,d | m=2}) ; (cell{3,4,6,e,f,g,h | m=3} + I{5}))"


def test_canon_dot(capsys):
    assert run(["canon", RUNNING, "--dot"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_compile_emits_parseable_term(capsys, tmp_path):
    assert run(["compile", RUNNING]) == 0
    text = capsys.readouterr().out.strip()
    from cellnet import compile_net, parse_term

    assert parse_term(text) == compile_net(build_three_cell_net())
    term_file = tmp_path / "running.term"
    term_file.write_text(text)
    assert run(["check-term", str(term_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_check_term_rejects_ill_typed(tmp_path, capsys):
    bad = tmp_path / "bad.term"
    bad.write_text("(I{a} ; I{b})")
    assert run(["check-term", str(bad)]) == 1
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "sum{a}[{}: Bot{x}, {a}: Bot{x}, {}: Bot{x}]",  # a branch subset twice
        "cell[{a}>{b,c}: {t}:{a}>{b}; {t}:{a}>{c}]",  # a transition set twice
    ],
)
def test_check_term_refuses_repeats(tmp_path, capsys, text):
    bad = tmp_path / "bad.term"
    bad.write_text(text)
    assert run(["check-term", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert len(err.splitlines()) == 1 and err.startswith("cellnet check-term: ")


def test_constants_listing(capsys):
    assert run(["constants", RUNNING]) == 0
    lines = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert lines == ["a|b", "c|d", "e", "e,g|e,h|f", "g|h"]


def test_matrix_keep_wire7(capsys):
    assert run(["matrix", RUNNING, RUNNING_DELTA, "--keep", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0] == pytest.approx([0.0, 1.0])
    assert doc["rows"][1] == pytest.approx([0.09, 0.91])


def test_matrix_text_and_csv(capsys):
    assert run(["matrix", RUNNING, RUNNING_DELTA, "--keep", "7"]) == 0
    text = capsys.readouterr().out
    assert "{7}" in text and "0.91" in text
    assert run(["matrix", RUNNING, RUNNING_DELTA, "--keep", "7", "--format", "csv"]) == 0
    csv_lines = capsys.readouterr().out.splitlines()
    assert csv_lines[0] == '"","{}","{7}"'
    row1 = csv_lines[2].split(",")
    assert float(row1[2]) == pytest.approx(0.91, abs=1e-12)


def test_matrix_wiring_overrides(capsys):
    assert run([
        "matrix", RUNNING, RUNNING_DELTA,
        "--in-order", "1", "--out-order", "7,5,8,9,10", "--keep", "7",
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][1] == pytest.approx([0.09, 0.91])


def test_matrix_missing_delta_strict(tmp_path, capsys):
    empty = tmp_path / "empty.delta"
    empty.write_text("[]")
    assert run(["matrix", RUNNING, str(empty)]) == 1
    assert "missing" in capsys.readouterr().err


def test_matrix_missing_delta_lax(tmp_path, capsys):
    empty = tmp_path / "empty.delta"
    empty.write_text("[]")
    assert run(["matrix", RUNNING, str(empty), "--allow-missing-delta", "--keep", "7"]) == 0
    assert "uniform" in capsys.readouterr().err


def test_infer_marginal(capsys):
    assert run(["infer", RUNNING, RUNNING_DELTA, "--marginal", "7"]) == 0
    assert "0.91" in capsys.readouterr().out


def test_infer_forward(tmp_path, capsys):
    state = tmp_path / "prior.state"
    state.write_text('{"places": ["1"], "probabilities": {"": 0.5, "1": 0.5}}')
    assert run(["infer", RUNNING, RUNNING_DELTA, "--forward", str(state), "--marginal", "7"]) == 0
    assert "0.91" in capsys.readouterr().out


def test_infer_posterior(tmp_path, capsys):
    state = tmp_path / "prior.state"
    state.write_text('{"places": ["1"], "probabilities": {"": 0.5, "1": 0.5}}')
    assert run([
        "infer", RUNNING, RUNNING_DELTA,
        "--posterior", "--prior", str(state), "--evidence", "7=1",
    ]) == 0
    out = capsys.readouterr().out
    expected = (1 - 0.09) / (2 - 0.09)
    line = next(l for l in out.splitlines() if l.startswith("{1}"))
    assert float(line.split(":")[1]) == pytest.approx(expected, abs=1e-12)


def test_infer_requires_an_action(capsys):
    assert run(["infer", RUNNING, RUNNING_DELTA]) == 1
    assert "nothing to do" in capsys.readouterr().err


def test_infer_bad_evidence(capsys):
    assert run([
        "infer", RUNNING, RUNNING_DELTA, "--posterior",
        "--prior", "nets/prior.state", "--evidence", "7~1",
    ]) == 1
    assert capsys.readouterr().err == "cellnet infer: evidence must look like place=0 or place=1, got '7~1'\n"


def test_infer_posterior_needs_a_prior(capsys):
    assert run(["infer", RUNNING, RUNNING_DELTA, "--posterior", "--evidence", "8=1"]) == 1
    assert capsys.readouterr().err == "cellnet infer: --posterior needs both --prior and --evidence\n"


def test_infer_refuses_a_place_named_twice_in_the_evidence(capsys):
    # the last value used to win: 8=1,8=0 printed the posterior for 8=0
    assert run([
        "infer", RUNNING, RUNNING_DELTA, "--posterior",
        "--prior", "nets/prior.state", "--evidence", "8=1,8=0",
    ]) == 1
    assert capsys.readouterr().err == "cellnet infer: evidence names place 8 twice\n"


@pytest.mark.parametrize("evidence, message", [
    ("7=2", "evidence value must be 0 or 1, got '7=2'"),
    (",", "empty evidence"),
])
def test_infer_refuses_a_bad_value_or_no_evidence(evidence, message, capsys):
    assert run([
        "infer", RUNNING, RUNNING_DELTA, "--posterior",
        "--prior", "nets/prior.state", "--evidence", evidence,
    ]) == 1
    assert capsys.readouterr().err == f"cellnet infer: {message}\n"


def test_infer_skips_an_empty_evidence_chunk(capsys):
    args = ["infer", RUNNING, RUNNING_DELTA, "--posterior", "--prior", "nets/prior.state", "--evidence"]
    assert run(args + ["8=1"]) == 0
    expected = capsys.readouterr().out
    assert run(args + ["8=1, ,"]) == 0
    assert capsys.readouterr().out == expected


def test_matrix_refuses_a_delta_that_leaves_the_transactions(tmp_path, capsys):
    doc = json.loads(Path(RUNNING_DELTA).read_text())
    next(entry for entry in doc if entry["signature"] == "a|b")["probabilities"] = {"a": 0.3, "x": 0.7}
    delta = tmp_path / "stray.delta"
    delta.write_text(json.dumps(doc))
    assert run(["matrix", RUNNING, str(delta)]) == 1
    assert capsys.readouterr().err == (
        "cellnet matrix: δ table rejected:\nsupport [a|b]: unknown transactions ['x']\n"
    )


def test_configs(capsys):
    assert run(["configs", RUNNING]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "{c,e,g}" in lines and "{d,e}" in lines  # place 1 unmarked
    assert len(lines) == 3


def test_configs_wide_net(tmp_path, capsys):
    # 300 independent cells have 2^300 r-stopped configurations and one
    # maximal one; completing every enabled cell at once finds it in a step
    wide = tmp_path / "wide.net"
    wide.write_text(json.dumps(wide_doc(300)))
    assert run(["configs", str(wide)]) == 0
    out, err = capsys.readouterr()
    assert not err and len(out.splitlines()) == 1


def test_oracle_check(capsys):
    assert run(["oracle-check", RUNNING, RUNNING_DELTA]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "MISMATCH" not in out


def test_oracle_check_confusion(capsys):
    assert run(["oracle-check", CONFUSION, CONFUSION_DELTA]) == 0


def test_diagram(capsys):
    assert run(["diagram", CONFUSION]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 3


def test_matrix_rejects_bad_wiring_override(capsys):
    assert run(["matrix", RUNNING, RUNNING_DELTA, "--in-order", "7"]) == 1
    assert "wire" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["matrix"])                      # missing arguments
    assert exc.value.code == 2


def test_outputs_are_byte_stable(capsys):
    outputs = []
    for _ in range(2):
        assert run(["compile", RUNNING]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_version(capsys):
    try:
        version = metadata.version("cellnet")
    except metadata.PackageNotFoundError:
        version = "0.0.0+unpackaged"
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (f"cellnet {version}\n", "")


def _write_net(path, places, transitions, marking):
    path.write_text(json.dumps({"places": places, "transitions": transitions, "marking": marking}))
    return str(path)


def _long_chain(tmp_path, n=1000):
    """A chain p0 -> t0 -> p1 -> ... -> p<n>, p0 marked, and a δ file
    giving each one-transition cell probability 1."""
    chain = _write_net(
        tmp_path / "chain.net",
        [f"p{i}" for i in range(n + 1)],
        [{"id": f"t{i}", "pre": [f"p{i}"], "post": [f"p{i + 1}"]} for i in range(n)],
        ["p0"],
    )
    delta = tmp_path / "chain.delta"
    delta.write_text(json.dumps(
        [{"signature": f"t{i}", "probabilities": {f"t{i}": 1.0}} for i in range(n)]
    ))
    return chain, str(delta)


def test_compile_long_chain_prints_term(tmp_path, capsys):
    chain, _ = _long_chain(tmp_path)
    assert run(["compile", chain]) == 0
    out, err = capsys.readouterr()
    assert not err
    assert out.startswith("(" * 999 + "cell[{p0}>{p1}: {t0}:{p0}>{p1}] ; sum{p1}[")
    assert out.count(" ; ") == 999 and out.endswith("{p999}>{p1000}]])\n")


def test_matrix_long_chain(tmp_path, capsys):
    chain, delta = _long_chain(tmp_path)
    assert run(["matrix", chain, delta]) == 0
    out, err = capsys.readouterr()
    assert not err
    assert [line.split() for line in out.splitlines()] == [["{}", "{p1000}"], ["{}", "0", "1"]]


def test_constants_wide_net(tmp_path, capsys):
    n = 600
    wide = _write_net(
        tmp_path / "wide.net",
        [p for i in range(n) for p in (f"a{i}", f"b{i}")],
        [{"id": f"t{i}", "pre": [f"a{i}"], "post": [f"b{i}"]} for i in range(n)],
        [f"a{i}" for i in range(0, n, 2)],
    )
    assert run(["constants", wide]) == 0
    assert len(capsys.readouterr().out.splitlines()) == n


# ------------------------------------------------------------------ #
# Malformed δ and state values end in one error line, not a traceback
# ------------------------------------------------------------------ #

def _delta_with_ab(tmp_path, probabilities: str) -> str:
    """The three-cell δ file with the a|b entry's probabilities replaced
    by raw JSON text (so NaN can be written as the JSON parser reads it)."""
    doc = json.loads(open(RUNNING_DELTA).read())
    for entry in doc:
        if entry["signature"] == "a|b":
            entry["probabilities"] = "AB"
    path = tmp_path / "bad.delta"
    path.write_text(json.dumps(doc).replace('"AB"', probabilities))
    return str(path)


def _state_file(tmp_path, probabilities: str) -> str:
    path = tmp_path / "bad.state"
    path.write_text('{"places": ["1"], "probabilities": ' + probabilities + "}")
    return str(path)


def _assert_one_error_line(capsys, command: str, mentions: str) -> None:
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"cellnet {command}:")
    assert mentions in err


COMMANDS_READING_DELTA = [["matrix"], ["infer", "--marginal", "7"], ["oracle-check"]]


@pytest.mark.parametrize("extra", COMMANDS_READING_DELTA, ids=lambda a: a[0])
def test_delta_probability_given_as_a_list(tmp_path, capsys, extra):
    delta = _delta_with_ab(tmp_path, '{"a": [0.5], "b": 0.5}')
    assert run([extra[0], RUNNING, delta, *extra[1:]]) == 1
    _assert_one_error_line(capsys, extra[0], "'a|b'")


@pytest.mark.parametrize("extra", COMMANDS_READING_DELTA, ids=lambda a: a[0])
def test_delta_probability_given_as_null(tmp_path, capsys, extra):
    delta = _delta_with_ab(tmp_path, '{"a": null, "b": 0.5}')
    assert run([extra[0], RUNNING, delta, *extra[1:]]) == 1
    _assert_one_error_line(capsys, extra[0], "'a|b'")


def test_state_probability_given_as_a_list(tmp_path, capsys):
    state = _state_file(tmp_path, '{"": [0.5], "1": 0.5}')
    assert run(["infer", RUNNING, RUNNING_DELTA, "--forward", state]) == 1
    _assert_one_error_line(capsys, "infer", "of {}")


def test_state_probability_given_as_a_word(tmp_path, capsys):
    state = _state_file(tmp_path, '{"": "zz", "1": 0.5}')
    assert run(["infer", RUNNING, RUNNING_DELTA, "--forward", state]) == 1
    _assert_one_error_line(capsys, "infer", "of {}")


def test_nan_delta_probability_is_refused(tmp_path, capsys):
    # a NaN weight used to count as 0, so a never fired and this exited 0
    delta = _delta_with_ab(tmp_path, '{"a": NaN, "b": 1.0}')
    assert run(["infer", RUNNING, delta, "--marginal", "7"]) == 1
    _assert_one_error_line(capsys, "infer", "'a|b'")


def test_nan_state_probability_is_refused(tmp_path, capsys):
    # this used to print an empty line and exit 0
    state = _state_file(tmp_path, '{"": NaN, "1": 0.5}')
    assert run(["infer", RUNNING, RUNNING_DELTA, "--forward", state]) == 1
    _assert_one_error_line(capsys, "infer", "of {}")


@pytest.mark.parametrize("extra", COMMANDS_READING_DELTA, ids=lambda a: a[0])
def test_delta_probability_given_as_a_boolean_or_a_string(tmp_path, capsys, extra):
    # float() read true as 1 and "0" as 0, so this ran with a certain
    delta = _delta_with_ab(tmp_path, '{"a": true, "b": "0"}')
    assert run([extra[0], RUNNING, delta, *extra[1:]]) == 1
    _assert_one_error_line(capsys, extra[0], "'a|b'")


def test_state_probability_given_as_a_numeric_string(tmp_path, capsys):
    state = _state_file(tmp_path, '{"": "0.5", "1": 0.5}')
    assert run(["infer", RUNNING, RUNNING_DELTA, "--forward", state]) == 1
    _assert_one_error_line(capsys, "infer", "of {}")


def test_delta_probability_too_large_for_a_float(tmp_path, capsys):
    delta = _delta_with_ab(tmp_path, '{"a": 1' + "0" * 400 + ', "b": 0.5}')
    assert run(["matrix", RUNNING, delta]) == 1
    _assert_one_error_line(capsys, "matrix", "'a|b'")


@pytest.mark.parametrize("extra", COMMANDS_READING_DELTA, ids=lambda a: a[0])
@pytest.mark.parametrize("probabilities, first, second", [
    ('{"a": 0.3, "b": 0.5, "a,a": 0.5}', "a", "a,a"),
    ('{"a": 0.3, "b": 0.7, "a,b": 0.2, "b,a": 0.0}', "a,b", "b,a"),
], ids=["repeated", "reordered"])
def test_delta_labels_naming_one_transition_set_twice(tmp_path, capsys, extra, probabilities, first, second):
    # both labels used to read as one outcome, the later value silently winning
    delta = _delta_with_ab(tmp_path, probabilities)
    assert run([extra[0], RUNNING, delta, *extra[1:]]) == 1
    _assert_one_error_line(
        capsys, extra[0], f"'a|b': labels {first!r} and {second!r} name the same transition set"
    )

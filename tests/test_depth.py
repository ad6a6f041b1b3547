"""No command or walk is limited by how deeply a net or term nests.

deep(1000) is one chain of 1000 transitions, so its canonical form and
its term nest 1000 sequential layers.  wide(1000) is 1000 independent
one-transition cells in one layer, which ``compile`` composes as a
balanced + tree about log2(1000) deep; a hand-written + chain of 1000
cells, nested to the left, keeps a deep + under test.  Each test runs a
term or tree walk, comparison or hash down one of those nestings, far
past Python's recursion limit.  lad(n) is one cell whose sums nest n
deep, which the compiler walks without recursing once per sum."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cellnet import (
    DeltaTable,
    Par,
    canonical_form,
    cell_order,
    compile_net,
    conf_of_term,
    constants_of,
    enumerate_outcome_distribution,
    export_diagram,
    fold_tree,
    interpret,
    maximal_r_stopped,
    normalize,
    parse_net,
    parse_term,
    pes_of_net,
    render_term,
    render_tree,
    sample_outcome_distribution,
    scells,
    typecheck,
)
from cellnet.cli import run
from cellnet.compiler import _compile
from conftest import deep_doc, lad_doc, wide_doc

N = 1000


SHAPES = {"deep": deep_doc, "wide": wide_doc}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    return request.param


@pytest.fixture(scope="module")
def docs():
    return {name: make(N) for name, make in SHAPES.items()}


@pytest.fixture(scope="module")
def files(docs, tmp_path_factory):
    root = tmp_path_factory.mktemp("depth")
    paths = {}
    for name, doc in docs.items():
        paths[name] = root / f"{name}.net"
        paths[name].write_text(json.dumps(doc))
    return paths


@pytest.fixture(scope="module")
def nets(docs):
    return {name: parse_net(json.dumps(doc)) for name, doc in docs.items()}


@pytest.fixture(scope="module")
def trees(nets):
    return {name: canonical_form(marked) for name, marked in nets.items()}


@pytest.fixture(scope="module")
def terms(nets):
    return {name: compile_net(marked) for name, marked in nets.items()}


UNIFORM = DeltaTable({}, strict=False)


@pytest.mark.parametrize("args", [["canon"], ["canon", "--dot"], ["diagram"]])
def test_tree_commands_on_the_deep_net(files, args, capsys):
    assert run([args[0], str(files["deep"])] + args[1:]) == 0
    out, err = capsys.readouterr()
    assert out and not err


def test_cells_of_the_deep_net(files, capsys):
    # every cell of the chain lies below every later one, and is covered
    # by the next one alone
    assert run(["cells", str(files["deep"])]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert not err and len(lines) == N + N - 1
    assert lines[N] == "C1 < C2" and lines[-1] == f"C{N - 1} < C{N}"


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cell_order_stores_its_covers_only(nets, shape):
    # the covers of the chain are its 999 arcs; all its pairs took 43 MiB
    marked = nets[shape]
    cells = scells(marked.net, marked.marking)
    assert _traced_peak(lambda: cell_order(marked.net, cells)) < 5 * 2**20


def test_constants_of_a_fresh_term_does_not_type_it(nets, shape):
    # typing the chain's term stores every node below each node: 43 MiB
    marked = nets[shape]
    assert _traced_peak(lambda: constants_of(compile_net(marked))) < 5 * 2**20


def test_check_term_reads_what_compile_prints(files, shape, tmp_path, capsys):
    assert run(["compile", str(files[shape])]) == 0
    term_file = tmp_path / "term.txt"
    term_file.write_text(capsys.readouterr().out)
    assert run(["check-term", str(term_file)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("OK: {} -> {") and not err


def test_render_term_round_trips_through_parse_term(terms, shape):
    text = render_term(terms[shape])
    assert render_term(parse_term(text)) == text


def test_wide_terms_compare_with_eq(nets, terms):
    # compiled twice, once past the memo: equal, distinct objects
    first = terms["wide"]
    second = _compile(nets["wide"])
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert parse_term(render_term(first)) == first


def test_deep_terms_compare_and_hash(terms):
    # Seq nests 1000 deep, and the first cell is the innermost node
    term = terms["deep"]
    text = render_term(term)
    again = parse_term(text)
    assert again is not term
    assert again == term and hash(again) == hash(term)
    assert parse_term(text.replace("t0000", "u0000")) != term


def _stored_types(term):
    """The type typecheck stored on each node of the term."""
    pending, types = [term], []
    while pending:
        t = pending.pop()
        types.append(t.__dict__["_type"])
        if isinstance(t, Par):
            pending += (t.left, t.right)
    return types


def test_compile_balances_the_wide_layer(terms):
    term = terms["wide"]
    whole = typecheck(term)
    depth, level = 0, [term]
    while any(isinstance(t, Par) for t in level):
        depth += 1
        level = [c for t in level if isinstance(t, Par) for c in (t.left, t.right)]
    log_n = math.ceil(math.log2(N))
    assert depth <= log_n + 2
    # each level of + stores the wide net's nodes about once
    assert sum(len(ty.nodes) for ty in _stored_types(term)) <= 3 * len(whole.nodes) * log_n


def test_a_left_nested_plus_chain_of_1000_cells():
    # cell 0 chooses whether q0 gets a token; the others consume their
    # place and deliver nothing, so the interface stays one place wide
    cells = ["cell[{p0}>{q0}: {a0}:{p0}>{q0}; {b0}:{p0}>{}]"]
    cells += [f"cell[{{p{i}}}>{{}}: {{t{i}}}:{{p{i}}}>{{}}]" for i in range(1, N)]
    text = "(" * (N - 1) + cells[0] + "".join(f" + {c})" for c in cells[1:])
    term = parse_term(text)
    assert render_term(term) == text
    again = parse_term(text)
    assert again == term and hash(again) == hash(term)
    assert parse_term(text.replace("a0", "z0")) != term
    ty = typecheck(term)
    assert ty.inputs == frozenset() and ty.outputs == {"q0"} and len(ty.nodes) == 2 * N + 2
    assert typecheck(normalize(term)) == ty
    assert interpret(term, UNIFORM).matrix.tolist() == [[0.5, 0.5]]


def test_normalize_keeps_the_type(terms, shape):
    assert typecheck(normalize(terms[shape])) == typecheck(terms[shape])


def test_conf_of_term_fires_every_transition(nets, terms, shape):
    assert conf_of_term(terms[shape], frozenset()) == {nets[shape].net.transitions}


def test_outcome_enumeration_and_sampling(nets, shape):
    marked = nets[shape]
    outcome = enumerate_outcome_distribution(marked, UNIFORM)
    assert dict(outcome.markings) == {marked.outputs: 1.0}
    sampled = sample_outcome_distribution(marked, UNIFORM, samples=2)
    assert dict(sampled.marking_counts) == {marked.outputs: 2}


def test_render_tree_of_the_deep_net(trees):
    assert render_tree(trees["deep"]).startswith("(" * (N - 1) + "cell{")


def test_diagram_of_the_deep_net(trees):
    assert export_diagram(trees["deep"]).count("->") == N


def test_fold_tree_of_the_wide_net(nets, trees):
    assert fold_tree(trees["wide"]) == nets["wide"]


def test_fold_tree_of_the_deep_net(nets, trees):
    assert fold_tree(trees["deep"]) == nets["deep"]


def test_maximal_r_stopped_of_the_wide_net(nets):
    marked = nets["wide"]
    assert maximal_r_stopped(pes_of_net(marked)) == {marked.net.transitions}


def test_configs_of_a_deep_net(docs, files, capsys):
    # one future per step, each a mask of the one index
    assert run(["configs", str(files["deep"])]) == 0
    transitions = sorted(t["id"] for t in docs["deep"]["transitions"])
    assert capsys.readouterr().out == "{" + ",".join(transitions) + "}\n"


def test_configs_of_a_net_3000_deep(tmp_path, capsys):
    # the event structure is read off the net's bit index, with no
    # frozenset table per event, and each step of the search carries its
    # future's minimal events: once a quadratic 1.5 GB, now a few MB
    doc = deep_doc(3000)
    path = tmp_path / "deep.net"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        assert run(["configs", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    transitions = sorted(t["id"] for t in doc["transitions"])
    assert capsys.readouterr().out == "{" + ",".join(transitions) + "}\n"
    assert peak < 50 * 2**20


@pytest.mark.parametrize("args", [["compile"], ["constants"], ["matrix", "--allow-missing-delta"],
                                  ["oracle-check", "--allow-missing-delta"]], ids=lambda args: args[0])
def test_commands_on_sums_nested_64_deep(args, tmp_path, capsys):
    net = tmp_path / "lad.net"
    net.write_text(json.dumps(lad_doc(64)))
    delta = tmp_path / "empty.delta"
    delta.write_text("[]")
    files = [str(net)] if args[0] in ("compile", "constants") else [str(net), str(delta)]
    assert run(args[:1] + files + args[1:]) == 0
    assert capsys.readouterr().out


def test_missing_delta_is_noted_once(tmp_path, capsys):
    # one note for the 191 constants of lad(64), not one per signature
    net, delta = tmp_path / "lad.net", tmp_path / "empty.delta"
    net.write_text(json.dumps(lad_doc(64)))
    delta.write_text("[]")
    assert run(["matrix", str(net), str(delta), "--allow-missing-delta"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == ["note: δ missing for 191 constant(s); using uniform"]


# Compiles the net named first into the term file named second, then
# checks that file, through cli.run with Python's recursion limit at 200;
# prints both exit codes and what check-term printed as JSON.
LOW_RECURSION_LIMIT = """
import contextlib, io, json, sys
sys.setrecursionlimit(200)
from cellnet.cli import run
net, term = sys.argv[1:]
compiled, checked = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(compiled):
    compile_code = run(["compile", net])
with open(term, "w", encoding="utf-8") as handle:
    handle.write(compiled.getvalue())
with contextlib.redirect_stdout(checked):
    check_code = run(["check-term", term])
print(json.dumps([compile_code, check_code, checked.getvalue()]))
"""


def test_sums_nested_70_deep_compile_under_a_recursion_limit_of_200(tmp_path):
    # a compiler that recursed once per nested sum would need about
    # five frames per level
    net, term = tmp_path / "lad.net", tmp_path / "lad.term"
    net.write_text(json.dumps(lad_doc(70)))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", LOW_RECURSION_LIMIT, str(net), str(term)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [0, 0, "OK: {p00} -> {p70,s70} over 421 node(s)\n"]
    text = term.read_text()
    assert render_term(parse_term(text)) + "\n" == text

import json
import random
import weakref
from pathlib import Path

import pytest

import cellnet.cells
import cellnet.compiler
from cellnet import (
    CellLeaf,
    CompileError,
    Constant,
    Dead,
    Identity,
    MarkedNet,
    Net,
    Par,
    Seq,
    Sum,
    canonical_form,
    compile_cell,
    compile_net,
    constants_of,
    identity_net,
    load_net,
    parse_net,
    render_term,
    scells,
    typecheck,
)

from conftest import (
    build_confusion_net,
    build_three_cell_net,
    confusion_chain,
    deep_doc,
    disjoint_copies,
    random_occurrence_net,
    wide_doc,
)
from references import compile_by_subnets

fs = frozenset
NETS = Path(__file__).resolve().parent.parent / "nets"


def cell_subnet(marked, member):
    for cell in scells(marked.net, marked.marking):
        if member in cell.members:
            return cell.subnet
    raise AssertionError(f"no cell containing {member}")


def test_compile_identity_net():
    assert compile_net(identity_net({"x", "y"})) == Identity(fs({"x", "y"}))


def test_compile_cell_c1(three_cells):
    term = compile_cell(cell_subnet(three_cells, "a"))
    assert isinstance(term, Sum)
    assert term.inputs == fs({"1"})
    assert term.branch(fs()) == Dead(fs({"4", "5"}))
    full = term.branch(fs({"1"}))
    assert isinstance(full, Constant)
    assert full.key.signature == "a|b"
    assert full.key.outputs == fs({"4", "5"})


def test_compile_cell_c2_is_constant(three_cells):
    term = compile_cell(cell_subnet(three_cells, "c"))
    assert isinstance(term, Constant)
    assert term.key.signature == "c|d"
    assert term.key.marked == fs({"2"})
    assert term.key.outputs == fs({"6"})


def test_compile_cell_c3_branches(three_cells):
    term = compile_cell(cell_subnet(three_cells, "f"))
    assert isinstance(term, Sum)
    assert term.inputs == fs({"4", "6"})

    empty = term.branch(fs())
    assert isinstance(empty, Par)
    assert empty.left == Dead(fs({"8", "9", "10"}))
    assert isinstance(empty.right, Constant) and empty.right.key.signature == "e"

    assert term.branch(fs({"4"})) == empty  # place 4 alone is useless

    six = term.branch(fs({"6"}))
    rendered = render_term(six)
    assert rendered.startswith("(Bot{8}")
    assert "g" in rendered and "h" in rendered

    both = term.branch(fs({"4", "6"}))
    assert isinstance(both, Constant)
    assert both.key.signature == "e,g|e,h|f"


def test_compile_running_net_shape(three_cells):
    term = compile_net(three_cells)
    assert isinstance(term, Seq)
    assert isinstance(term.first, Par)
    assert isinstance(term.second, Par)
    assert term.second.right == Identity(fs({"5"}))
    ty = typecheck(term)
    assert ty.inputs == three_cells.inputs
    assert ty.outputs == three_cells.outputs


def test_compile_confusion_two_stages(confusion):
    term = compile_net(confusion)
    assert isinstance(term, Seq)
    assert isinstance(term.first, Constant)           # a/b cell, fully marked
    assert term.first.key.outputs == fs({"4"})
    assert isinstance(term.second, Sum)               # c/d cell over input 4
    assert term.second.inputs == fs({"4"})
    ty = typecheck(term)
    assert ty.inputs == fs() and ty.outputs == fs({"5", "6"})


def test_compile_output_is_stable(three_cells):
    first = render_term(compile_net(three_cells))
    for _ in range(3):
        assert render_term(compile_net(three_cells)) == first


def test_compile_nested_restriction():
    # A chain of two cells below an unmarked input: the inner branch
    # compilation must recurse through another sum.
    net = Net(
        fs({"i", "p", "q", "r"}),
        fs({"t", "u", "v"}),
        fs([("i", "t"), ("t", "p"), ("p", "u"), ("u", "q"), ("p", "v"), ("v", "r")]),
    )
    term = compile_net(MarkedNet(net, fs()))
    ty = typecheck(term)
    assert ty.inputs == fs({"i"})
    assert ty.outputs == fs({"q", "r"})
    rendered = render_term(term)
    assert rendered.count("sum") == 2


def stranded_token_net(marking):
    # One cell in which p is internal (t1 produces it, t4 consumes it)
    # but the run {t1, t5} strands a token on p forever.
    return MarkedNet(
        Net(
            fs({"x0", "x1", "p", "q", "r", "s"}),
            fs({"t0", "t1", "t4", "t5"}),
            fs([
                ("x0", "t0"), ("x1", "t0"), ("t0", "r"),
                ("x0", "t1"), ("t1", "p"),
                ("x1", "t4"), ("p", "t4"), ("t4", "q"),
                ("x1", "t5"), ("t5", "s"),
            ]),
        ),
        fs(marking),
    )


def test_stranded_internal_token_is_clipped():
    marked = stranded_token_net({"x0", "x1"})
    term = compile_net(marked)
    assert isinstance(term, Constant)
    key = term.key
    assert key.outputs == fs({"q", "r", "s"})       # p never escapes the cell
    finals = {p.transitions: p.final_places for p in key.transactions}
    assert finals[fs({"t1", "t5"})] == fs({"s"})    # token on p dropped
    assert finals[fs({"t1", "t4"})] == fs({"q"})
    assert finals[fs({"t0"})] == fs({"r"})
    # the stranded place still counts among the transaction's nodes
    stranded = next(p for p in key.transactions if p.transitions == fs({"t1", "t5"}))
    assert "p" in stranded.nodes


def test_stranded_internal_place_in_restriction():
    # With x1 as an unfed input, the empty branch loses t4, so p is cut
    # away while its producer t1 survives with an empty post-set.
    marked = stranded_token_net({"x0"})
    term = compile_net(marked)
    assert isinstance(term, Sum)
    assert term.inputs == fs({"x1"})
    ty = typecheck(term)
    assert ty.outputs == fs({"q", "r", "s"})
    empty = term.branch(fs())
    assert isinstance(empty, Par)
    assert empty.left == Dead(fs({"q", "r", "s"}))
    inner = empty.right
    assert isinstance(inner, Constant)
    assert inner.key.outputs == fs()                # t1 fires into nothing
    assert {p.transitions for p in inner.key.transactions} == {fs({"t1"})}


def test_compile_cell_rejects_non_cell(three_cells):
    with pytest.raises(CompileError):
        compile_cell(three_cells)


def test_compile_cell_rejects_two_disjoint_cells():
    net = Net(fs({"p", "q", "r", "s"}), fs({"t", "u"}),
              fs([("p", "t"), ("t", "q"), ("r", "u"), ("u", "s")]))
    with pytest.raises(CompileError, match=r"not a single s-cell: the net decomposes into 2 cell\(s\)"):
        compile_cell(MarkedNet(net, fs({"p"})))


def test_compile_cell_rejects_extra_isolated_place():
    net = Net(fs({"p", "q", "z"}), fs({"t"}), fs([("p", "t"), ("t", "q")]))
    with pytest.raises(CompileError, match=r"not a single s-cell: the net decomposes into 1 cell\(s\)"):
        compile_cell(MarkedNet(net, fs({"p"})))
    alone = Net(net.places - {"z"}, net.transitions, net.flow)   # the same cell without z
    assert isinstance(compile_cell(MarkedNet(alone, fs({"p"}))), Constant)


def test_compile_long_chain():
    # canonical forms nest their layers to the left; the fold must not
    # recurse once per layer
    n = 1000
    places = fs(f"p{i}" for i in range(n + 1))
    flow = fs((f"p{i}", f"t{i}") for i in range(n)) | fs((f"t{i}", f"p{i + 1}") for i in range(n))
    marked = MarkedNet(Net(places, fs(f"t{i}" for i in range(n)), flow), fs({"p0"}))
    term = compile_net(marked)
    ty = typecheck(term)
    assert ty.inputs == fs() and ty.outputs == fs({f"p{n}"})
    assert sorted(key.signature for key in constants_of(term)) == sorted(f"t{i}" for i in range(n))


def test_compiling_builds_no_composition_tree(monkeypatch, three_cells, confusion):
    # compile_net layers the compiled cells itself, restrictions included:
    # with CellLeaf refusing to be built and the memo emptied, it still compiles
    def refuse(self, cell):
        raise AssertionError("a composition tree node was built")

    expected = [compile_net(three_cells), compile_net(confusion)]
    monkeypatch.setattr(cellnet.compiler, "_compiled", weakref.WeakKeyDictionary())
    monkeypatch.setattr(CellLeaf, "__init__", refuse)
    with pytest.raises(AssertionError, match="tree node was built"):
        canonical_form(three_cells)
    again = [compile_net(three_cells), compile_net(confusion)]
    assert again == expected and again[0] is not expected[0]


def test_compile_net_is_remembered_per_net(three_cells):
    assert compile_net(three_cells) is compile_net(three_cells)
    rebuilt = MarkedNet(three_cells.net, three_cells.marking)
    assert compile_net(rebuilt) is compile_net(three_cells)   # equal nets share it


def test_compile_memo_keeps_no_net_alive():
    import gc
    import weakref

    def build():  # names used by no other test, so no equal net is remembered
        flow = fs([("memo_p", "memo_t"), ("memo_t", "memo_q")])
        return MarkedNet(Net(fs({"memo_p", "memo_q"}), fs({"memo_t"}), flow), fs({"memo_p"}))

    marked = build()
    term = compile_net(marked)
    ref = weakref.ref(marked)
    del marked
    gc.collect()
    assert ref() is None
    assert compile_net(build()) == term


def test_compile_net_matches_compiling_every_cell_from_its_subnet():
    rng = random.Random(20221)
    nets = [random_occurrence_net(rng, 12, 9) for _ in range(1000)]
    nets += [load_net(str(path)) for path in sorted(NETS.glob("*.net"))]
    nets += [disjoint_copies(base, k) for base in (build_three_cell_net(), build_confusion_net()) for k in (1, 3)]
    nets += [confusion_chain(n) for n in (1, 2, 9)]
    nets += [parse_net(json.dumps(family(n))) for family in (wide_doc, deep_doc) for n in (1, 2, 40)]
    for marked in nets:
        term, expected = compile_net(marked), compile_by_subnets(marked)
        assert term == expected
        assert render_term(term) == render_term(expected)


def test_compile_net_builds_no_subnet(monkeypatch):
    # every cell is read, restricted and run on the masks of the net's
    # index: no subnet and no marked net is built
    assert not hasattr(cellnet.compiler, "subnet_of")
    rng = random.Random(22)
    wide, deep = (parse_net(json.dumps(doc)) for doc in (wide_doc(50), deep_doc(20)))
    nets = [wide, deep] + [random_occurrence_net(rng, 12, 9) for _ in range(300)]
    built = []

    def counting(parent, places, transitions, real=cellnet.cells.subnet_of):
        built.append(parent)
        return real(parent, places, transitions)

    def marking(self, net, marking=fs(), real=MarkedNet.__init__):
        built.append(net)
        real(self, net, marking)

    monkeypatch.setattr(cellnet.cells, "subnet_of", counting)
    monkeypatch.setattr(MarkedNet, "__init__", marking)
    monkeypatch.setattr(cellnet.compiler, "_compiled", weakref.WeakKeyDictionary())
    for marked in nets:
        compile_net(marked)
    assert built == []


def test_subsets_that_leave_one_survivor_share_its_branch():
    # equal branches of a sum come from one survivor, so they are one
    # term object, compiled and typed once
    rng = random.Random(25)
    shared = 0
    for _ in range(300):
        pending = [compile_net(random_occurrence_net(rng, 12, 9))]
        while pending:
            term = pending.pop()
            if isinstance(term, Sum):
                branches = [branch for _, branch in term.branches]
                for i, a in enumerate(branches):
                    for b in branches[:i]:
                        assert (a == b) == (a is b)
                        shared += a is b
            pending.extend(term._parts()[1])
    assert shared > 50

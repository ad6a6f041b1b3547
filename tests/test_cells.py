import json
import random
from pathlib import Path

import pytest

import cellnet.cells
from cellnet import (
    CellLeaf,
    CompositionError,
    IdentityLeaf,
    MarkedNet,
    Net,
    NetError,
    ParNode,
    SeqNode,
    canonical_form,
    cell_order,
    export_diagram,
    fold_tree,
    identity_net,
    parallel_compose,
    render_tree,
    scells,
    sequential_compose,
)
from cellnet.cells import _fold_nodes, cell_leaves, stratify
from cellnet.cli import run
from cellnet.netfile import load_net, parse_net
from conftest import deep_doc, random_dataflow_net, random_occurrence_net, wide_doc
from references import (
    at_marking,
    count_boxes,
    flow_components,
    is_seq_split,
    remove_places,
    scell_preorder,
    seq_splits,
)

NETS = Path(__file__).resolve().parent.parent / "nets"

fs = frozenset


def cell_by_place(cells, place):
    for cell in cells:
        if place in cell.members:
            return cell
    raise AssertionError(f"no cell containing {place}")


def test_preorder_merges_choice(three_cells):
    reach = scell_preorder(three_cells.net)
    assert "a" in reach["1"] and "1" in reach["a"]   # 1 ⊑ a and a ⊑ 1
    assert "b" in reach["a"] and "a" in reach["b"]   # a ↔ b through place 1
    assert "f" in reach["a"]                          # a ⊑ 4 ⊑ f
    assert "a" not in reach["f"]


def test_preorder_single_place():
    net = Net(fs({"p"}), fs(), fs())
    # an isolated place is only related to itself
    assert scell_preorder(net) == {"p": fs({"p"})}


def test_scells_running_example(three_cells):
    cells = scells(three_cells.net, three_cells.marking)
    members = sorted(sorted(c.members) for c in cells)
    assert members == [
        ["1", "a", "b"],
        ["2", "c", "d"],
        ["3", "4", "6", "e", "f", "g", "h"],
    ]
    order = cell_order(three_cells.net, cells)
    c1 = next(i for i, c in enumerate(cells) if "a" in c.members)
    c2 = next(i for i, c in enumerate(cells) if "c" in c.members)
    c3 = next(i for i, c in enumerate(cells) if "f" in c.members)
    assert order == fs({(c1, c3), (c2, c3)})
    # inherited markings
    assert cell_by_place(cells, "2").subnet.marking == fs({"2"})
    assert cell_by_place(cells, "3").subnet.marking == fs({"3"})
    # cell interfaces
    c3_cell = cell_by_place(cells, "3")
    assert c3_cell.min_places == fs({"3", "4", "6"})
    assert c3_cell.max_places == fs({"7", "8", "9", "10"})
    c1_cell = cell_by_place(cells, "1")
    assert c1_cell.min_places == fs({"1"})
    assert c1_cell.max_places == fs({"4", "5"})


def test_scells_confusion(confusion):
    cells = scells(confusion.net, confusion.marking)
    members = sorted(sorted(c.members) for c in cells)
    assert members == [["1", "a", "b"], ["3", "4", "c", "d"]]
    assert cell_order(confusion.net, cells)  # C1 below C2


def test_scells_independent_transitions():
    net = Net(fs({"p", "q", "r", "s"}), fs({"t", "u"}),
              fs([("p", "t"), ("t", "r"), ("q", "u"), ("u", "s")]))
    cells = scells(net)
    assert len(cells) == 2
    assert cell_order(net, cells) == fs()


def test_parallel_compose(three_cells):
    cells = scells(three_cells.net, three_cells.marking)
    nc1 = cell_by_place(cells, "1").subnet
    nc2 = cell_by_place(cells, "2").subnet
    nc3 = cell_by_place(cells, "3").subnet
    both = parallel_compose(nc1, nc2)
    assert both.inputs == fs({"1"})
    assert both.outputs == fs({"4", "5", "6"})
    with pytest.raises(CompositionError) as err:
        parallel_compose(nc1, nc3)
    assert "4" in str(err.value)
    # fold_tree composes all children of a ParNode at once
    leaves = [CellLeaf(cell_by_place(cells, p)) for p in ("1", "2", "3")]
    assert fold_tree(ParNode(tuple(leaves[:2]) + (IdentityLeaf(fs({"x"})),))) == (
        parallel_compose(both, identity_net({"x"}))
    )
    with pytest.raises(CompositionError) as err:
        fold_tree(ParNode(tuple(leaves)))
    assert "4" in str(err.value)


def test_parallel_unit(three_cells):
    empty = MarkedNet(Net(fs(), fs(), fs()), fs())
    assert parallel_compose(three_cells, empty) == three_cells


def test_sequential_compose(three_cells):
    cells = scells(three_cells.net, three_cells.marking)
    nc1 = cell_by_place(cells, "1").subnet
    nc2 = cell_by_place(cells, "2").subnet
    nc3 = cell_by_place(cells, "3").subnet
    first = parallel_compose(nc1, nc2)
    second = parallel_compose(nc3, identity_net({"5"}))
    whole = sequential_compose(first, second)
    assert whole == three_cells
    # place 5 uncovered without the identity padding
    with pytest.raises(CompositionError) as err:
        sequential_compose(first, nc3)
    assert "5" in str(err.value)


def test_sequential_compose_refuses_nodes_shared_beyond_the_interface():
    # the interface is {q}; p is also a marked initial place of the second net
    first = MarkedNet(Net(fs({"p", "q"}), fs({"t"}), fs([("p", "t"), ("t", "q")])), fs({"p"}))
    second = MarkedNet(Net(fs({"p", "q", "r"}), fs({"u"}), fs([("q", "u"), ("p", "u"), ("u", "r")])), fs({"p"}))
    with pytest.raises(CompositionError, match=r"^nets share nodes beyond the interface: \['p'\]$"):
        sequential_compose(first, second)


def test_sequential_identity_law(three_cells):
    ident = identity_net(three_cells.outputs)
    assert sequential_compose(three_cells, ident) == three_cells


def test_canonical_form_running(three_cells):
    tree = canonical_form(three_cells)
    assert render_tree(tree) == (
        "((cell{1,a,b} + cell{2,c,d | m=2}) ; (cell{3,4,6,e,f,g,h | m=3} + I{5}))"
    )
    assert fold_tree(tree) == three_cells


def test_canonical_form_single_cell():
    net = Net(fs({"p", "q", "r"}), fs({"t", "u"}),
              fs([("p", "t"), ("p", "u"), ("t", "q"), ("u", "r")]))
    tree = canonical_form(MarkedNet(net, fs()))
    assert isinstance(tree, CellLeaf)


def test_canonical_form_trivial_net():
    tree = canonical_form(identity_net({"x", "y"}))
    assert tree == IdentityLeaf(fs({"x", "y"}))


def test_canonical_form_confusion(confusion):
    tree = canonical_form(confusion)
    assert isinstance(tree, SeqNode)
    assert isinstance(tree.first, CellLeaf)
    assert isinstance(tree.second, CellLeaf)
    assert fold_tree(tree) == confusion


def test_remove_places_kills_dependents(three_cells):
    cells = scells(three_cells.net, fs())
    nc3 = cell_by_place(cells, "3").subnet
    survivor = remove_places(nc3, fs({"6"}))
    assert survivor.net.transitions == fs({"e"})
    assert survivor.net.places == fs({"3", "7"})  # 4 goes: isolated once f is gone


def test_remove_places_other_input(three_cells):
    cells = scells(three_cells.net, fs())
    nc3 = cell_by_place(cells, "3").subnet
    survivor = remove_places(nc3, fs({"4"}))
    assert survivor.net.transitions == fs({"e", "g", "h"})
    assert "8" not in survivor.net.places
    assert survivor.net.places == fs({"3", "6", "7", "9", "10"})


def test_remove_places_empty_set_is_identity(three_cells):
    cells = scells(three_cells.net, fs())
    nc3 = cell_by_place(cells, "3").subnet
    assert remove_places(nc3, fs()) == nc3


def test_remove_places_requires_unmarked_inputs(three_cells):
    cells = scells(three_cells.net, three_cells.marking)
    nc3 = cell_by_place(cells, "3").subnet      # 3 is marked
    with pytest.raises(NetError):
        remove_places(nc3, fs({"3"}))
    with pytest.raises(NetError):
        remove_places(nc3, fs({"7"}))


def test_remove_places_monotone(three_cells):
    cells = scells(three_cells.net, fs())
    nc3 = cell_by_place(cells, "3").subnet
    for first, second in [(fs({"4"}), fs({"6"})), (fs({"6"}), fs({"4"})), (fs({"3"}), fs({"4", "6"}))]:
        once = remove_places(nc3, first)
        rest = second & once.inputs
        stepwise = remove_places(once, rest)
        direct = remove_places(nc3, first | second)
        assert stepwise == direct


def test_at_marking_views(three_cells):
    cells = scells(three_cells.net, three_cells.marking)
    nc3 = cell_by_place(cells, "3").subnet       # marked {3}, inputs {4,6}
    only3 = at_marking(nc3, fs())
    assert only3.marked.net.transitions == fs({"e"})
    assert only3.marked.marking == fs({"3"})
    assert only3.dead_finals == fs({"8", "9", "10"})

    both = at_marking(nc3, fs({"4", "6"}))
    assert both.marked.net == nc3.net
    assert both.marked.marking == fs({"3", "4", "6"})
    assert both.dead_finals == fs()

    just4 = at_marking(nc3, fs({"4"}))           # 4 ends up isolated: dropped
    assert just4.marked.net.places == fs({"3", "7"})
    assert nc3.marking - just4.marked.net.places == fs()   # no token lost: 4 was not marked here

    just6 = at_marking(nc3, fs({"6"}))
    assert just6.marked.net.transitions == fs({"e", "g", "h"})
    assert just6.dead_finals == fs({"8"})
    # the restriction splits into two side-by-side cells
    split = canonical_form(just6.marked)
    assert isinstance(split, ParNode)
    assert all(isinstance(child, CellLeaf) for child in split.children)
    assert sorted(sorted(c.cell.members) for c in split.children) == [
        ["3", "e"], ["6", "g", "h"],
    ]


def test_at_marking_empty_cell(three_cells):
    cells = scells(three_cells.net, fs())
    nc1 = cell_by_place(cells, "1").subnet
    view = at_marking(nc1, fs())
    assert view.marked.net.places == fs()
    assert view.dead_finals == fs({"4", "5"})


def test_at_marking_drops_marked_isolated_token():
    # t needs {m, u}; u stays empty, so m's token is silently dropped
    net = Net(fs({"m", "u", "r"}), fs({"t"}),
              fs([("m", "t"), ("u", "t"), ("t", "r")]))
    cell = MarkedNet(net, fs({"m"}))
    view = at_marking(cell, fs())
    assert view.marked.net.places == fs()
    assert cell.marking - view.marked.net.places == fs({"m"})
    assert view.dead_finals == fs({"r"})


def _layered(blocks, inputs, names="abcdef"):
    """stratify with plain constructors: block i is names[i], a pad its
    place set, a layer a list and a sequence a pair."""
    return stratify(blocks, inputs, names, lambda pad: pad, list, lambda a, b: (a, b))


def test_stratify_layers_and_pads():
    blocks = [(fs({"i"}), fs({"x"})), (fs({"x"}), fs({"o"})), (fs(), fs({"z"}))]
    inputs = fs({"i", "w"})
    assert _layered(blocks, inputs) == (["a", "c", fs({"w"})], ["b", fs({"w", "z"})])
    # a layer keeps the given block order
    assert _layered(blocks[::-1], inputs, "cba") == (["c", "a", fs({"w"})], ["b", fs({"w", "z"})])


def test_stratify_composes_layer_by_layer():
    chain = [(fs({"q"}), fs({"r"})), (fs({"p"}), fs({"q"})), (fs({"r"}), fs({"s"}))]
    # a lone part is its layer, and the layers nest to the left
    assert stratify(chain, fs({"p"}), [0, 1, 2], lambda pad: pad, list, lambda a, b: (a, b)) == ((1, 0), 2)
    # no blocks give the identity on the inputs
    assert _layered([], fs({"p", "q"})) == fs({"p", "q"})


def test_canonical_layer_is_one_past_the_deepest_producer():
    # tD's cell is fed by tC (layer 1) and tB (layer 2, after tA), so it
    # lands in layer 3 whichever producer the layering visits last
    net = Net(
        fs({"p1", "p2", "p3", "p4", "p5", "p6"}),
        fs({"tA", "tB", "tC", "tD"}),
        fs([
            ("p2", "tA"), ("tA", "p3"), ("p3", "tB"), ("tB", "p5"), ("p1", "tC"),
            ("tC", "p4"), ("p4", "tD"), ("p5", "tD"), ("tD", "p6"),
        ]),
    )
    tree = canonical_form(MarkedNet(net, fs({"p1", "p2"})))
    assert render_tree(tree) == (
        "(((cell{p1,tC | m=p1} + cell{p2,tA | m=p2}) ; (cell{p3,tB} + I{p4})) ; cell{p4,p5,tD})"
    )


def _checked_net(tree):
    """The net of a composition tree, each node's net the union of its
    children's, with each split the tree makes checked on the way by
    the searches of references.py, which read the flow alone: a ⊕
    splits its net along whole components, a ; at a set of transitions
    that the search accepts, and a cell splits neither way."""

    def cell(leaf):
        net = leaf.cell.subnet.net
        assert len(flow_components(net)) == 1 and next(seq_splits(net), None) is None, render_tree(tree)
        return net

    def par(parts):
        net = _union(parts)
        assert flow_components(net) == fs().union(*map(flow_components, parts)), render_tree(tree)
        return net

    def seq(first, second):
        net = _union((first, second))
        assert is_seq_split(net, first.transitions), render_tree(tree)
        return net

    return _fold_nodes(tree, cell, lambda leaf: Net(leaf.places, fs(), fs()), par, seq)


def _union(nets):
    return Net(fs().union(*(n.places for n in nets)), fs().union(*(n.transitions for n in nets)),
               fs().union(*(n.flow for n in nets)))


def test_canonical_form_splits_where_the_flow_allows():
    # the layering that builds the tree checks none of its splits, so
    # they are checked here, against searches that never layer anything
    nets = [load_net(str(path)) for path in sorted(NETS.glob("*.net"))]
    nets += [parse_net(json.dumps(make(n))) for make, n in ((wide_doc, 300), (deep_doc, 1000))]
    rng = random.Random(41)
    nets += [random_occurrence_net(rng, 12, 9) for _ in range(300)]
    # cells of one transition each, fed by producers at unequal depths
    nets += [random_dataflow_net(rng, 12) for _ in range(100)]
    for marked in nets:
        tree = canonical_form(marked)
        assert _checked_net(tree) == fold_tree(tree).net


def test_cells_build_no_subnet_until_one_is_read(tmp_path, capsys, monkeypatch):
    # the canonical form, its rendering, its diagram and the cells
    # command read each cell's own fields; only reading .subnet builds one
    built = []

    def counting(parent, places, transitions, real=cellnet.cells.subnet_of):
        built.append(parent)
        return real(parent, places, transitions)

    monkeypatch.setattr(cellnet.cells, "subnet_of", counting)
    path = tmp_path / "wide.net"
    path.write_text(json.dumps(wide_doc(300)))
    tree = canonical_form(parse_net(path.read_text()))
    assert render_tree(tree).count("cell{") == 300 and count_boxes(export_diagram(tree)) == 300
    assert run(["cells", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 300  # independent cells: no order pairs
    assert built == []
    cell = cell_leaves(tree)[0].cell
    assert cell.subnet.net.transitions == cell.transitions and len(built) == 1
    assert cell.subnet is cell.subnet and len(built) == 1  # built once, then kept

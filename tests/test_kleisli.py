import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from cellnet import (
    DeltaError,
    DeltaTable,
    Dist,
    FileFormatError,
    Identity,
    Wiring,
    WiringError,
    arrow_to_csv,
    arrow_to_json,
    compile_cell,
    compile_net,
    constants_of,
    dump_delta,
    interpret,
    load_delta,
    permutation_arrow,
    scells,
    uniform_dist,
    validate_delta,
)
from conftest import disjoint_copies, three_cell_delta
from references import compose_arrows, constant_arrow, copair, dead_arrow, identity_arrow, tensor

fs = frozenset


def cell_term(marked, member):
    for cell in scells(marked.net, marked.marking):
        if member in cell.members:
            return compile_cell(cell.subnet)
    raise AssertionError(member)


# ------------------------------------------------------------------ #
# Wirings and subset indexing
# ------------------------------------------------------------------ #

def test_subset_index_convention():
    w = Wiring(("4", "5"))
    assert [sorted(s) for s in w.subsets()] == [[], ["4"], ["5"], ["4", "5"]]
    assert w.index({"4"}) == 1
    assert w.index({"5"}) == 2
    assert w.index(fs()) == 0
    w46 = Wiring(("4", "6"))
    assert w46.index({"4", "6"}) == 3


def test_subset_index_errors():
    w = Wiring(("a",))
    with pytest.raises(WiringError):
        w.index({"zz"})
    with pytest.raises(WiringError):
        w.subset_at(2)
    with pytest.raises(WiringError):
        Wiring(("a", "a"))


def test_permutation_arrow_roundtrip():
    rng = random.Random(7)
    places = ["p1", "p2", "p3", "p4"]
    for _ in range(10):
        first = places[:]
        second = places[:]
        rng.shuffle(first)
        rng.shuffle(second)
        third = places[:]
        rng.shuffle(third)
        ab = permutation_arrow(Wiring(tuple(first)), Wiring(tuple(second)))
        bc = permutation_arrow(Wiring(tuple(second)), Wiring(tuple(third)))
        ac = permutation_arrow(Wiring(tuple(first)), Wiring(tuple(third)))
        np.testing.assert_array_equal(compose_arrows(ab, bc).matrix, ac.matrix)


def test_permutation_identity():
    w = Wiring(("x", "y"))
    np.testing.assert_array_equal(permutation_arrow(w, w).matrix, np.eye(4))


def test_permutation_swap_moves_singleton():
    swap = permutation_arrow(Wiring(("4", "5")), Wiring(("5", "4")))
    assert swap.matrix[1, 2] == 1.0      # {4}: index 1 -> index 2
    assert swap.matrix[2, 1] == 1.0
    assert swap.matrix[0, 0] == 1.0
    assert swap.matrix[3, 3] == 1.0


# ------------------------------------------------------------------ #
# Arrow constructors
# ------------------------------------------------------------------ #

def test_dead_arrow_rows():
    w = Wiring(("4", "5"))
    np.testing.assert_array_equal(dead_arrow({"4", "5"}, w).matrix, [[1, 0, 0, 0]])
    np.testing.assert_array_equal(dead_arrow(fs(), Wiring(())).matrix, [[1.0]])
    np.testing.assert_array_equal(dead_arrow({"8"}, Wiring(("8",))).matrix, [[1, 0]])


def test_constant_arrow_rows(three_cells):
    delta = three_cell_delta(pa=0.3)
    ab = cell_term(three_cells, "a").branch(fs({"1"}))
    row = constant_arrow(ab.key, delta, Wiring(("4", "5")))
    np.testing.assert_allclose(row.matrix, [[0, 0.3, 0.7, 0]])

    e = cell_term(three_cells, "f").branch(fs()).right
    row_e = constant_arrow(e.key, delta, Wiring(("7",)))
    np.testing.assert_array_equal(row_e.matrix, [[0, 1]])


def test_constant_arrow_c3_row(three_cells):
    delta = three_cell_delta(pf=0.5, pgp=0.2)
    term = cell_term(three_cells, "f").branch(fs({"4", "6"}))
    w = Wiring(("7", "8", "9", "10"))
    row = constant_arrow(term.key, delta, w)
    assert row.matrix[0, w.index({"8"})] == pytest.approx(0.5)
    assert row.matrix[0, w.index({"7", "9"})] == pytest.approx(0.2)
    assert row.matrix[0, w.index({"7", "10"})] == pytest.approx(0.3)
    assert row.matrix.sum() == pytest.approx(1.0)


def test_tensor_and_copair():
    left = dead_arrow({"x"}, Wiring(("x",)))
    point = constant_arrow(
        _single_key("t", "p", "q"), DeltaTable({"t": Dist({fs({"t"}): 1.0})}), Wiring(("q",))
    )
    both = tensor(left, point)
    assert both.out_wiring.places == ("x", "q")
    assert both.matrix[0, both.out_wiring.index({"q"})] == 1.0

    rows = [dead_arrow({"z"}, Wiring(("z",))), point_row("z")]
    stacked = copair(rows, Wiring(("i",)))
    np.testing.assert_array_equal(stacked.matrix, [[1, 0], [0, 1]])
    with pytest.raises(WiringError):
        copair(rows[:1], Wiring(("i",)))


def _single_key(t, pre, post):
    from cellnet import ConstantKey, Process

    return ConstantKey(fs({pre}), fs({post}), fs({Process(fs({t}), fs({pre}), fs({post}))}))


def point_row(place):
    from cellnet import KleisliArrow

    return KleisliArrow(Wiring(()), Wiring((place,)), np.array([[0.0, 1.0]]))


def test_compose_with_identity(three_cells, three_cell_table):
    arrow = interpret(compile_net(three_cells), three_cell_table)
    ident = identity_arrow(arrow.out_wiring)
    np.testing.assert_allclose(compose_arrows(arrow, ident).matrix, arrow.matrix)


def test_row_stochastic_enforced():
    from cellnet import KleisliArrow

    with pytest.raises(WiringError):
        KleisliArrow(Wiring(()), Wiring(("p",)), np.array([[0.4, 0.4]]))


def test_arrow_refuses_a_matrix_of_another_shape():
    from cellnet import KleisliArrow

    with pytest.raises(WiringError, match=r"^matrix shape \(2, 2\) does not match interfaces \(2, 1\)$"):
        KleisliArrow(Wiring(("q",)), Wiring(()), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_entry_refused(bad):
    from cellnet import KleisliArrow

    with pytest.raises(WiringError, match=r"entry \(1, 0\)"):
        KleisliArrow(Wiring(("q",)), Wiring(("p",)), np.array([[0.5, 0.5], [bad, 1.0]]))


# Each case holds one fault of the three a matrix is refused for, or
# two: a non-finite entry is named before a negative one, and a negative
# one before a row sum.
_BAD_ROWS = [
    ([1.2, -0.2], r"negative entry: -0\.2"),
    ([0.5, 0.5 + 1e-6], r"not row-stochastic \(worst row error 1\.000e-06\)"),
    ([-0.5, np.nan], r"entry \(0, \d\) is nan, not finite"),
]


@pytest.mark.parametrize("row, message", _BAD_ROWS)
def test_arrow_names_the_first_fault(row, message):
    from cellnet import KleisliArrow

    with pytest.raises(WiringError, match=message):
        KleisliArrow(Wiring(()), Wiring(("p",)), np.array([row]))


class _Unchecked:
    """A δ distribution that skips ``Dist``'s checks: what a faulty
    producer of δ tables could hand to ``interpret``."""

    def __init__(self, table):
        self.table = table
        self.support = frozenset(table)

    def prob(self, outcome):
        return self.table.get(outcome, 0.0)


@pytest.mark.parametrize("row, message", _BAD_ROWS)
@pytest.mark.parametrize("fed", [False, True], ids=["first-factor", "contracted"])
def test_interpret_names_the_first_fault_of_a_constant(row, message, fed):
    # the constant's row is [0, p(t), p(u), 0] over {}, {x}, {y}, {x, y};
    # alone it is the first factor pushed into the unit, and beside a
    # dead wire, which widens the cut less and is pushed first, it is
    # contracted into that wire's cut
    from cellnet import Constant, ConstantKey, Dead, Par, Process

    key = ConstantKey(
        fs({"p"}), fs({"x", "y"}), fs({Process(fs({"t"}), fs({"p"}), fs({"x"})),
                                      Process(fs({"u"}), fs({"p"}), fs({"y"}))})
    )
    delta = DeltaTable({key.signature: _Unchecked({fs({"t"}): row[0], fs({"u"}): row[1]})})
    term = Par(Dead(fs({"z"})), Constant(key)) if fed else Constant(key)
    with pytest.raises(WiringError, match=message):
        interpret(term, delta)


# ------------------------------------------------------------------ #
# interpret: the golden matrices
# ------------------------------------------------------------------ #

def test_interpret_c1(three_cells):
    delta = three_cell_delta(pa=0.3)
    arrow = interpret(cell_term(three_cells, "a"), delta, Wiring(("1",)), Wiring(("4", "5")))
    np.testing.assert_allclose(arrow.matrix, [[1, 0, 0, 0], [0, 0.3, 0.7, 0]], atol=1e-15)


def test_interpret_c2(three_cells):
    delta = three_cell_delta(pc=0.6)
    arrow = interpret(cell_term(three_cells, "c"), delta, Wiring(()), Wiring(("6",)))
    np.testing.assert_allclose(arrow.matrix, [[0.4, 0.6]], atol=1e-15)


def test_interpret_c3(three_cells):
    delta = three_cell_delta(pg=0.7, pf=0.5, pgp=0.2)
    w_in = Wiring(("4", "6"))
    w_out = Wiring(("7", "8", "9", "10"))
    arrow = interpret(cell_term(three_cells, "f"), delta, w_in, w_out)
    expected = np.zeros((4, 16))
    expected[0, w_out.index({"7"})] = 1.0
    expected[1, w_out.index({"7"})] = 1.0
    expected[2, w_out.index({"7", "9"})] = 0.7
    expected[2, w_out.index({"7", "10"})] = 0.3
    expected[3, w_out.index({"8"})] = 0.5
    expected[3, w_out.index({"7", "9"})] = 0.2
    expected[3, w_out.index({"7", "10"})] = 0.3
    np.testing.assert_allclose(arrow.matrix, expected, atol=1e-15)


def test_interpret_full_pipeline_entry(three_cells):
    delta = three_cell_delta(pa=0.3, pc=0.6, pf=0.5)
    arrow = interpret(compile_net(three_cells), delta, Wiring(("1",)))
    from cellnet import marginalize

    reduced = marginalize(arrow, {"7"})
    assert reduced.entry({"1"}, fs()) == pytest.approx(0.09, abs=1e-12)


def test_interpret_respects_explicit_wirings(three_cells, three_cell_table):
    term = compile_net(three_cells)
    default = interpret(term, three_cell_table)
    rho = Wiring(("7", "5", "8", "10", "9"))
    permuted = interpret(term, three_cell_table, None, rho)
    chi = permutation_arrow(rho, default.out_wiring)
    np.testing.assert_allclose(compose_arrows(permuted, chi).matrix, default.matrix, atol=1e-12)


def test_interpret_three_disjoint_copies(three_cells):
    # 15 output places: a dense permutation matrix over them would take
    # 8 GiB, and building the second layer whole (512x32768) peaked at
    # 386 MB; pushing the 8 input rows through it needs a few 2 MB copies
    pa, pc, pf = 0.3, 0.6, 0.5
    base = three_cell_delta(pa=pa, pc=pc, pf=pf)
    marked = disjoint_copies(three_cells, 3)
    term = compile_net(marked)
    plain = lambda transitions: fs(t.rsplit("_", 1)[0] for t in transitions)
    entries = {}
    for key in constants_of(term):
        signature = "|".join(
            sorted(",".join(sorted(plain(p.transitions))) for p in key.transactions)
        )
        dist = base.entries[signature]
        entries[key.signature] = Dist(
            {p.transitions: dist.prob(plain(p.transitions)) for p in key.transactions}
        )
    tracemalloc.start()
    try:
        arrow = interpret(term, DeltaTable(entries))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert arrow.matrix.shape == (8, 32768)
    columns = np.arange(arrow.out_wiring.size)
    for i in range(3):
        bit = arrow.out_wiring.position(f"7_{i}") - 1
        marginal = arrow.matrix[:, (columns >> bit & 1) == 1].sum(axis=1)
        for k in range(arrow.in_wiring.size):
            fed = f"1_{i}" in arrow.in_wiring.subset_at(k)
            expected = 1 - pa * pc * pf if fed else 1.0
            assert marginal[k] == pytest.approx(expected, abs=1e-12)


def test_interpret_width_cap():
    from cellnet import InterfaceWidthError

    with pytest.raises(InterfaceWidthError):
        interpret(Identity(fs({f"p{i}" for i in range(25)})), DeltaTable({}))


# ------------------------------------------------------------------ #
# δ tables
# ------------------------------------------------------------------ #

def test_dist_validation():
    with pytest.raises(DeltaError):
        Dist({fs({"a"}): 0.5, fs({"b"}): 0.4})
    with pytest.raises(DeltaError):
        Dist({fs({"a"}): 1.5, fs({"b"}): -0.5})
    assert uniform_dist(["x", "y"]).prob("x") == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_dist_refuses_non_finite_probabilities(bad):
    with pytest.raises(DeltaError, match="'a'.*not finite"):
        Dist({"a": bad, "b": 1.0})


def test_validate_delta_ok(three_cells, three_cell_table):
    needed = constants_of(compile_net(three_cells))
    report = validate_delta(three_cell_table, needed)
    assert report.ok and not report.filled_uniform


def test_validate_delta_missing_strict(three_cells):
    needed = constants_of(compile_net(three_cells))
    report = validate_delta(DeltaTable({}), needed)
    assert not report.ok
    assert len(report.problems) == len(needed)


def test_validate_delta_nonstrict_fills_uniform(three_cells):
    needed = constants_of(compile_net(three_cells))
    report = validate_delta(DeltaTable({}, strict=False), needed)
    assert report.ok
    assert len(report.filled_uniform) == len(needed)
    arrow = interpret(compile_net(three_cells), DeltaTable({}, strict=False))
    assert np.all(arrow.matrix >= 0)


def test_delta_support_outside_transactions(three_cells):
    bad = DeltaTable({"c|d": Dist({fs({"zz"}): 1.0})})
    term = cell_term(three_cells, "c")
    with pytest.raises(DeltaError):
        interpret(term, bad, Wiring(()), Wiring(("6",)))


def test_delta_missing_strict_raises(three_cells):
    with pytest.raises(DeltaError):
        interpret(cell_term(three_cells, "c"), DeltaTable({}), Wiring(()), Wiring(("6",)))


def test_delta_file_round_trip(three_cell_table):
    text = dump_delta(three_cell_table)
    back = load_delta(text)
    assert set(back.entries) == set(three_cell_table.entries)
    for sig, dist in three_cell_table.entries.items():
        for outcome, p in dist.items():
            assert back.entries[sig].prob(outcome) == pytest.approx(p)


def test_delta_file_rejects_bad_documents():
    from cellnet import FileFormatError

    for bad in ("{}", "[1]", '[{"signature": "x"}]',
                '[{"signature": "x", "probabilities": {"a": 0.5}}]'):
        with pytest.raises(FileFormatError):
            load_delta(bad)


@pytest.mark.parametrize("text, message", [
    ('[{"signature": 1, "probabilities": {}}]', "malformed δ entry for 1"),
    ('[{"signature": "x", "probabilities": []}]', "malformed δ entry for 'x'"),
    ('[{"signature": "x", "probabilities": {"a": 1.0}}, {"signature": "x", "probabilities": {"a": 1.0}}]',
     "duplicate δ entry for 'x'"),
])
def test_delta_file_names_a_malformed_or_repeated_entry(text, message):
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        load_delta(text)


# ------------------------------------------------------------------ #
# Export
# ------------------------------------------------------------------ #

def test_arrow_exports(three_cells, three_cell_table):
    arrow = interpret(compile_net(three_cells), three_cell_table, Wiring(("1",)))
    doc = json.loads(arrow_to_json(arrow))
    assert doc["inputs"] == [[], ["1"]]
    assert len(doc["outputs"]) == 32
    assert len(doc["rows"]) == 2
    assert doc["rows"][0] == pytest.approx(list(arrow.matrix[0]))
    csv = arrow_to_csv(arrow)
    assert csv.splitlines()[0].startswith('"","{}"')

"""Value semantics of every public value class in README's API list,
and of the restriction view that the test references keep:
construction by position and by keyword, the defaults, immutability,
field-wise equality and hashing (identity for the classes that hold a
matrix or a vector), repr, copies, pickles and weak references."""

from __future__ import annotations

import copy
import pickle
import weakref

import numpy as np
import pytest

from cellnet import (
    CellLeaf,
    Constant,
    ConstantKey,
    CorrespondenceCase,
    CorrespondenceReport,
    Dead,
    DeltaProblem,
    DeltaReport,
    DeltaTable,
    Dist,
    Identity,
    IdentityLeaf,
    KleisliArrow,
    MarkedNet,
    Net,
    OutcomeDistribution,
    Par,
    ParNode,
    PES,
    Predicate,
    Process,
    RStopped,
    SampleSummary,
    SCell,
    Seq,
    SeqNode,
    State,
    Sum,
    TermType,
    ValidationReport,
    Violation,
    Wiring,
    uniform_dist,
)
from references import MarkedView

fs = frozenset
P, Q, T = fs({"p"}), fs({"q"}), fs({"t"})
NET = Net(P, T, fs({("p", "t")}))
CELL = SCell(NET, fs({"p", "t"}), P, fs(), fs())
KEY = ConstantKey(P, Q, fs({Process(T, P, Q)}))
PROBLEM = DeltaProblem("t", "missing", "no entry")
CASE = CorrespondenceCase(P, fs({T}), fs({T}))

# class, its fields in constructor order, and values for them
SAMPLES = [
    (Net, ("places", "transitions", "flow"), lambda: (P, T, fs({("p", "t")}))),
    (MarkedNet, ("net", "marking"), lambda: (NET, P)),
    (Violation, ("kind", "node", "detail"), lambda: ("cycle", "p", "node lies on a flow cycle")),
    (ValidationReport, ("violations",), lambda: ((Violation("cycle", "p", "x"),),)),
    (Process, ("transitions", "initial_places", "final_places", "internal_places"), lambda: (T, P, Q, fs())),
    (SCell, ("net", "members", "min_places", "max_places", "marking"), lambda: (NET, fs({"p", "t"}), P, fs(), P)),
    (CellLeaf, ("cell",), lambda: (CELL,)),
    (IdentityLeaf, ("places",), lambda: (P,)),
    (ParNode, ("children",), lambda: ((CellLeaf(CELL), IdentityLeaf(Q)),)),
    (SeqNode, ("first", "second"), lambda: (CellLeaf(CELL), IdentityLeaf(fs()))),
    (MarkedView, ("marked", "dead_finals"), lambda: (MarkedNet(NET, P), Q)),
    (Identity, ("places",), lambda: (P,)),
    (Dead, ("places",), lambda: (P,)),
    (Par, ("left", "right"), lambda: (Identity(P), Dead(Q))),
    (Seq, ("first", "second"), lambda: (Identity(P), Identity(P))),
    (Constant, ("key",), lambda: (KEY,)),
    (ConstantKey, ("marked", "outputs", "transactions"), lambda: (P, Q, fs({Process(T, P, Q)}))),
    (Sum, ("inputs", "branches"), lambda: (P, ((fs(), Dead(Q)), (P, Constant(KEY))))),
    (TermType, ("inputs", "nodes", "outputs"), lambda: (P, P | Q, Q)),
    (Wiring, ("places",), lambda: (("p", "q"),)),
    (KleisliArrow, ("in_wiring", "out_wiring", "matrix"),
     lambda: (Wiring(("p",)), Wiring(()), np.ones((2, 1)))),
    (DeltaTable, ("entries", "strict"), lambda: ({"t": uniform_dist([T])}, False)),
    (DeltaReport, ("problems", "filled_uniform"), lambda: ((PROBLEM,), ("u",))),
    (DeltaProblem, ("signature", "kind", "detail"), lambda: ("t", "missing", "no entry")),
    (State, ("wiring", "probs"), lambda: (Wiring(("p",)), np.array([0.25, 0.75]))),
    (Predicate, ("wiring", "values"), lambda: (Wiring(("p",)), np.array([0.0, 1.0]))),
    (PES, ("events", "causes", "rivals"), lambda: (T, {"t": T}, {"t": fs()})),
    (RStopped, ("configuration", "chain", "maximal"), lambda: (T, (T,), True)),
    (CorrespondenceReport, ("cases",), lambda: ((CASE,),)),
    (CorrespondenceCase, ("arriving", "from_event_structure", "from_term"), lambda: (P, fs({T}), fs({T}))),
    (OutcomeDistribution, ("joint", "markings", "configurations"),
     lambda: (Dist({(T, Q): 1.0}), Dist({Q: 1.0}), Dist({T: 1.0}))),
    (SampleSummary, ("samples", "seed", "marking_counts"), lambda: (10, 0, {Q: 10})),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
BY_IDENTITY = {KleisliArrow, State, Predicate}  # they hold an array, which has no single truth value
UNHASHABLE = {DeltaTable, PES, OutcomeDistribution, SampleSummary}  # a field is a dict or a Dist


def _expected_repr(value, fields) -> str:
    return f"{type(value).__name__}({', '.join(f'{name}={getattr(value, name)!r}' for name in fields)})"


@pytest.mark.parametrize("cls, fields, values", SAMPLES, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, fields, values):
    by_position, by_keyword = cls(*values()), cls(**dict(zip(fields, values())))
    for value in by_position, by_keyword:
        assert type(value) is cls
        for name, given in zip(fields, values()):
            got = getattr(value, name)
            assert np.array_equal(got, given) if isinstance(got, np.ndarray) else got == given
    assert repr(by_position) == repr(by_keyword)


@pytest.mark.parametrize("cls, fields, values", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values):
    value = cls(*values())
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("cls, fields, values", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields, values):
    a, b = cls(*values()), cls(*values())
    assert a == a
    if cls in BY_IDENTITY:
        assert a != b and hash(a) == hash(a)
        return
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_values_of_different_classes_are_never_equal():
    values = [cls(*make()) for cls, _, make in SAMPLES]
    values += [IdentityLeaf(Q), Dead(Q), Seq(Identity(P), Dead(Q)), DeltaProblem("cycle", "p", "x")]
    for a in values:
        for b in values:
            if type(a) is not type(b):
                assert a != b and not a == b, (a, b)


def test_a_tree_nodes_interface_stays_out_of_equality_and_repr():
    leaf, other = IdentityLeaf(P), IdentityLeaf(P)
    object.__setattr__(other, "inputs", fs())
    assert (leaf.inputs, other.inputs) == (P, fs())
    assert leaf == other and hash(leaf) == hash(other)
    assert repr(leaf) == repr(other) == "IdentityLeaf(places=frozenset({'p'}))"
    node = ParNode((CellLeaf(CELL), IdentityLeaf(Q)))
    assert (node.inputs, node.outputs) == (P | Q, Q)
    assert "inputs" not in repr(node) and "outputs" not in repr(node)


def test_a_cells_subnet_is_kept_out_of_its_fields():
    # the subnet is built on first read and kept on the cell, but equality,
    # hashing, repr and pickling see only the fields
    cell, fresh = SCell(NET, fs({"p", "t"}), P, fs(), P), SCell(NET, fs({"p", "t"}), P, fs(), P)
    assert cell.subnet == MarkedNet(NET, P) and cell.subnet is cell.subnet
    assert cell == fresh and hash(cell) == hash(fresh) and repr(cell) == repr(fresh)
    assert pickle.loads(pickle.dumps(cell)) == fresh


@pytest.mark.parametrize("cls, fields, values", SAMPLES, ids=IDS)
def test_repr_names_each_field(cls, fields, values):
    value = cls(*values())
    assert repr(value) == _expected_repr(value, fields)


def test_repr_text():
    assert repr(Violation("cycle", "p", "x")) == "Violation(kind='cycle', node='p', detail='x')"
    assert repr(Net(P, T, fs({("p", "t")}))) == (
        "Net(places=frozenset({'p'}), transitions=frozenset({'t'}), flow=frozenset({('p', 't')}))"
    )
    assert repr(Par(Identity(P), Dead(fs()))) == (
        "Par(left=Identity(places=frozenset({'p'})), right=Dead(places=frozenset()))"
    )
    assert repr(Wiring(("p", "q"))) == "Wiring(places=('p', 'q'))"
    assert repr(DeltaTable()) == "DeltaTable(entries=mappingproxy({}), strict=True)"


def test_defaults():
    assert Process(T, P, Q).internal_places == fs()
    assert MarkedNet(NET).marking == fs()
    table = DeltaTable()
    assert (table.entries, table.strict) == ({}, True)
    assert DeltaTable().entries is not table.entries


def test_delta_entries_are_a_read_only_copy():
    entries = {"t": uniform_dist([T])}
    table = DeltaTable(entries)
    with pytest.raises(TypeError):
        table.entries["u"] = uniform_dist([T])
    with pytest.raises(TypeError):
        del table.entries["t"]
    entries["u"] = uniform_dist([T])              # the caller's dict is copied
    assert set(table.entries) == {"t"} and table == DeltaTable({"t": uniform_dist([T])})
    assert type(table.__reduce__()[1][0]) is dict


@pytest.mark.parametrize("cls, fields, values", SAMPLES, ids=IDS)
def test_copies_and_pickles_round_trip(cls, fields, values):
    value = cls(*values())
    for twin in copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)):
        assert type(twin) is cls
        # field by field, not by repr: a copied frozenset may list its members in another order
        for name in fields:
            got, want = getattr(twin, name), getattr(value, name)
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
        if cls not in BY_IDENTITY:
            assert twin == value


def test_a_marked_net_is_weakly_referenceable():
    marked = MarkedNet(NET, P)
    ref = weakref.ref(marked)
    assert ref() is marked
    del marked
    assert ref() is None

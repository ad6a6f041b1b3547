"""Translation from marked occurrence nets to terms.

The net's cells are layered by the same :func:`cells.stratify` that
builds its canonical form, with terms in place of tree nodes: identity
pads become identity terms, layers and their sequence + and ;, and each
cell is encoded either as a single constant (when every initial place of
the cell is already marked) or as a sum over all subsets of its unmarked
initial places, where each branch restricts the cell to the arriving
tokens, recursively compiles the restriction, and pads the final places
that die with a dead-wire term.

Termination is structural (every restriction strictly shrinks the cell)
but a depth guard turns any accidental non-termination into an error.
"""

from __future__ import annotations

import weakref

from .cells import at_marking, cell_classes, scells, stratify
from .errors import CompileError
from .nets import MarkedNet, Process, enumerate_transactions, isolated_places, min_places
from .terms import Constant, ConstantKey, Dead, Identity, Par, Seq, Term, make_sum, par_all, subsets_lex

DEFAULT_DEPTH_GUARD = 64

# Terms already compiled, per marked net.  The memo holds its nets
# weakly, so an entry dies with its net.
_compiled: weakref.WeakKeyDictionary[MarkedNet, Term] = weakref.WeakKeyDictionary()


def compile_net(marked: MarkedNet) -> Term:
    """Compile a validated marked occurrence net into a well-typed term
    whose inputs are the net's unmarked initial places and whose outputs
    are its final places.

    A marked net is immutable and the term a pure function of it, so
    the term is remembered in a weak memo: calling again with the same
    (or an equal) live net returns the same term object.  The memo
    keeps no net alive, and a failed compile is not remembered.
    """
    term = _compiled.get(marked)
    if term is None:
        term = _compiled[marked] = _compile(marked, DEFAULT_DEPTH_GUARD)
    return term


def _compile(marked: MarkedNet, fuel: int) -> Term:
    # Fuel only falls inside cells, where compile_cell compiles each
    # restriction with one less, not along ; or +.
    if fuel <= 0:
        raise CompileError("recursion depth guard exceeded while compiling")
    cells = scells(marked.net, marked.marking)
    return stratify(
        [(c.subnet.inputs, c.subnet.outputs) for c in cells], marked.inputs, marked.outputs,
        # compile_cell is looked up when called, so a wrapper bound in its place sees every call
        lambda i: compile_cell(cells[i].subnet, depth_guard=fuel),
        Identity, par_all, Seq,
    )


def compile_cell(cell: MarkedNet, *, depth_guard: int = DEFAULT_DEPTH_GUARD) -> Term:
    """Encode one s-cell.

    Fully marked cells become a constant over their transactions.  A
    cell with unmarked inputs becomes a sum with one branch per subset
    of those inputs; branch m pads the final places killed by the
    missing tokens and recursively compiles the restricted net (which
    may decompose into several smaller cells).
    """
    if depth_guard <= 0:
        raise CompileError("recursion depth guard exceeded while compiling a cell")
    classes = cell_classes(cell.net)
    if len(classes) != 1 or isolated_places(cell.net):
        raise CompileError(
            "not a single s-cell: the net decomposes into "
            f"{len(classes)} cell(s) and possibly identity wires"
        )
    unmarked = cell.inputs
    if not unmarked:
        transactions = _clip_to_boundary(enumerate_transactions(cell), cell.outputs)
        key = ConstantKey(
            marked=min_places(cell.net),
            outputs=frozenset().union(*(p.final_places for p in transactions)),
            transactions=transactions,
        )
        return Constant(key)

    branches: dict[frozenset[str], Term] = {}
    for arriving in subsets_lex(unmarked)[:-1]:  # all but the last, the full set
        view = at_marking(cell, arriving)
        if view.marked.net.places or view.marked.net.transitions:
            inner = _compile(view.marked, depth_guard - 1)
        else:
            inner = Identity(frozenset())
        branches[arriving] = _pad_dead(view.dead_finals, inner)
    # When every input arrives nothing is removed: the view is the cell
    # itself with all its initial places marked, which is its own
    # canonical form, so it is compiled as that one cell.
    if depth_guard - 1 <= 0:
        raise CompileError("recursion depth guard exceeded while compiling")
    full = MarkedNet(cell.net, min_places(cell.net))
    branches[unmarked] = compile_cell(full, depth_guard=depth_guard - 1)
    return make_sum(unmarked, branches)


def _clip_to_boundary(transactions, boundary: frozenset[str]):
    """Restrict transaction final places to the cell's own final places.

    A maximal process can strand a token on a place internal to the
    cell (produced there, but every consumer conflicts with the chosen
    run).  Nothing outside the cell can ever consume it, so the matrix
    semantics drops it; the stranded places stay accounted among the
    transaction's nodes.  A transaction that strands nothing is kept as
    it is.
    """
    return frozenset(
        proc if proc.final_places <= boundary else Process(
            proc.transitions,
            proc.initial_places,
            proc.final_places & boundary,
            proc.internal_places | (proc.final_places - boundary),
        )
        for proc in transactions
    )


def _pad_dead(dead_finals: frozenset[str], inner: Term) -> Term:
    """⊥ padding with the unit laws applied: drop ⊥ over nothing and a
    trailing empty identity."""
    if not dead_finals:
        return inner
    if inner == Identity(frozenset()):
        return Dead(dead_finals)
    return Par(Dead(dead_finals), inner)

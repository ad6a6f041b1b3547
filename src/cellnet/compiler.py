"""Translation from marked occurrence nets to terms.

The net's cells are layered by the same :func:`cells.stratify` that
builds its canonical form, with terms in place of tree nodes: identity
pads become identity terms, layers and their sequence + and ;, and each
cell is encoded either as a single constant (when every initial place of
the cell is already marked) or as a sum over all subsets of its unmarked
initial places, where each branch restricts the cell to the arriving
tokens, recursively compiles the restriction, and pads the final places
that die with a dead-wire term.  A fully marked cell compiles straight
from the net's own tables; a subnet is built only to restrict a cell.

Termination is structural (every restriction strictly shrinks the cell)
but a depth guard turns any accidental non-termination into an error.
"""

from __future__ import annotations

import weakref

from .cells import _Block, _blocks, at_marking, cell_classes, stratify
from .errors import CompileError
from .nets import MarkedNet, Net, Process, _completions, _process_of, dependents, isolated_places
from .nets import min_places, run
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
    net, marking = marked.net, marked.marking
    blocks = _blocks(net)
    return stratify(
        [(b.initial - marking, b.final) for b in blocks], marked.inputs, marked.outputs,
        # compile_cell is looked up when called, so a wrapper bound in its place sees every call
        lambda i: _constant(net, blocks[i]) if blocks[i].initial <= marking
        else compile_cell(blocks[i].subnet(net, marking), depth_guard=fuel),
        Identity, par_all, Seq,
    )


def compile_cell(cell: MarkedNet, *, depth_guard: int = DEFAULT_DEPTH_GUARD) -> Term:
    """Encode one s-cell.

    A fully marked cell becomes the constant over its transactions, run
    on the cell's own tables.  A cell with unmarked inputs becomes a sum
    with one branch per subset of those inputs: the cell's constant when
    all arrive, else the restricted net compiled recursively (it may
    decompose into several cells), padded by the final places killed.
    Subsets that kill the same transitions leave the same survivor, so
    they share one branch term, built once.
    """
    if depth_guard <= 0:
        raise CompileError("recursion depth guard exceeded while compiling a cell")
    classes = cell_classes(cell.net)
    if len(classes) != 1 or isolated_places(cell.net):
        raise CompileError(
            "not a single s-cell: the net decomposes into "
            f"{len(classes)} cell(s) and possibly identity wires"
        )
    net, unmarked = cell.net, cell.inputs
    whole = _Block(classes[0], net.transitions, net.places, min_places(net), cell.outputs)
    if not unmarked:
        return _constant(net, whole)

    branches: dict[frozenset[str], Term] = {}
    by_killed: dict[frozenset[str], Term] = {}
    for arriving in subsets_lex(unmarked)[:-1]:  # all but the last, the full set
        killed = dependents(net, unmarked - arriving) & net.transitions
        if killed not in by_killed:
            view = at_marking(cell, arriving)
            inner = _compile(view.marked, depth_guard - 1) if view.marked.net.nodes else Identity(frozenset())
            by_killed[killed] = _pad_dead(view.dead_finals, inner)
        branches[arriving] = by_killed[killed]
    if depth_guard - 1 <= 0:
        raise CompileError("recursion depth guard exceeded while compiling")
    branches[unmarked] = _constant(net, whole)
    return make_sum(unmarked, branches)


def _constant(net: Net, cell: _Block) -> Constant:
    """The constant of a fully marked cell of ``net``: the maximal runs
    of its transitions from its initial places, on the net's own tables.
    A run can strand a token on a place internal to the cell, which no
    transition outside the cell consumes, so the matrix semantics drops
    it: the run's final places are clipped to the cell's, and the
    stranded places stay among the transaction's nodes."""
    runs = run(_completions(net, cell.transitions, cell.initial, {}))
    transactions = frozenset(
        proc if proc.final_places <= cell.final else Process(
            proc.transitions, proc.initial_places, proc.final_places & cell.final,
            proc.internal_places | (proc.final_places - cell.final))
        for proc in (_process_of(net, fired) for fired in runs)
    )
    outputs = frozenset().union(*(p.final_places for p in transactions))
    return Constant(ConstantKey(marked=cell.initial, outputs=outputs, transactions=transactions))


def _pad_dead(dead_finals: frozenset[str], inner: Term) -> Term:
    """⊥ padding with the unit laws applied: drop ⊥ over nothing and a
    trailing empty identity."""
    if not dead_finals:
        return inner
    if inner == Identity(frozenset()):
        return Dead(dead_finals)
    return Par(Dead(dead_finals), inner)

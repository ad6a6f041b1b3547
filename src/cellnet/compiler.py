"""Translation from marked occurrence nets to terms.

The net's cells are layered by the same :func:`cells.stratify` that
builds its canonical form, with terms in place of tree nodes: identity
pads become identity terms, layers and their sequence + and ;, and each
cell is encoded either as a single constant (when every initial place of
the cell is already marked) or as a sum over all subsets of its unmarked
initial places, where each branch restricts the cell to the arriving
tokens, recursively compiles the restriction, and pads the final places
that die with a dead-wire term.  All of it runs on the masks of the
net's index (:class:`nets.NetIndex`) and builds no subnet: an input
kills the transitions it lies below (one mask, closed forward once per
cell), a subset kills the union of its absent inputs' masks, and the
survivor keeps whole pre-sets and cuts post-sets to the places that
stay, so it is an occurrence net whose tables are the net's, cut down.

Termination is structural: every restriction strictly shrinks the
cell.  The nesting of sums is unbounded, so :func:`_layered` and
:func:`_sum` are walks run by :func:`nets.run`, not Python recursion.
"""

from __future__ import annotations

import weakref
from functools import reduce
from operator import or_

from .cells import _Block, _blocks, _kills, _survivor, stratify
from .errors import CompileError
from .nets import MarkedNet, NetIndex, NodeId, Walk, _completions, _process_of, bits, isolated_places, run
from .terms import Constant, ConstantKey, Dead, Identity, Par, Seq, Term, make_sum, par_all

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
        term = _compiled[marked] = _compile(marked)
    return term


def _compile(marked: MarkedNet) -> Term:
    index = marked.net._index
    return run(_layered(index, index.transitions, index.places, index.mask(marked.inputs)))


def compile_cell(cell: MarkedNet) -> Term:
    """Encode one s-cell.

    A fully marked cell becomes the constant over its transactions, run
    on the masks of the cell's index.  A cell with unmarked inputs
    becomes a sum with one branch per subset of those inputs: the cell's
    constant when all arrive, else the restricted net compiled
    recursively (it may decompose into several cells), padded by the
    final places killed.  Subsets that kill the same transitions leave
    the same survivor, so they share one branch term, built once.
    """
    index = cell.net._index
    blocks = _blocks(index, index.transitions, index.places)
    if len(blocks) != 1 or isolated_places(cell.net):
        raise CompileError(
            "not a single s-cell: the net decomposes into "
            f"{len(blocks)} cell(s) and possibly identity wires"
        )
    return _compile(cell)  # one block, which stratify returns as it is


def _sum(index: NetIndex, cell: _Block, unmarked: int) -> Walk[Term]:
    """The sum of a cell over the subsets of its ``unmarked`` inputs:
    the cell's constant when all arrive, else the survivor of what the
    absent ones kill, compiled with every initial place marked, beside
    ⊥ on the final places that die."""
    subsets: list[tuple[frozenset[NodeId], int]] = [(frozenset(), 0)]  # (arriving, killed), subsets_lex order
    for p in bits(unmarked):
        kills = _kills(index, cell.transitions, 1 << p)
        subsets = [(a, k | kills) for a, k in subsets] + [(a | {index.order[p]}, k) for a, k in subsets]
    by_killed: dict[int, Term] = {0: _constant(index, cell)}  # every input kills something
    for _, killed in subsets:
        if killed not in by_killed:
            transitions, places = _survivor(index, cell.transitions, cell.places, killed)
            inner = (yield _layered(index, transitions, places, 0)) if transitions else Identity(frozenset())
            by_killed[killed] = _pad_dead(index.names(cell.final & ~places), inner)
    return make_sum(index.names(unmarked), {arriving: by_killed[killed] for arriving, killed in subsets})


def _layered(index: NetIndex, transitions: int, places: int, inputs: int) -> Walk[Term]:
    """The index's net cut to ``transitions`` and ``places`` (all of it,
    or a survivor), its initial places marked but for ``inputs``,
    layered by :func:`cells.stratify`.  A cell is a sum over its initial
    places that tokens arrive on (inputs, or places another cell
    produces), or a constant if it has none.  A cell holds every place
    it consumes, so the outputs are the places produced or input that
    no cell holds."""
    blocks = _blocks(index, transitions, places)
    arriving = reduce(or_, (b.final for b in blocks), inputs)
    held = reduce(or_, (b.members for b in blocks), 0)
    leaves = []
    for b in blocks:
        unmarked = b.initial & arriving
        leaves.append((yield _sum(index, b, unmarked)) if unmarked else _constant(index, b))
    layers = [(index.names(b.initial & arriving), index.names(b.final)) for b in blocks]
    return stratify(layers, index.names(inputs), index.names(arriving & ~held), leaves, Identity, par_all, Seq)


def _constant(index: NetIndex, cell: _Block) -> Constant:
    """The constant of a fully marked cell given as masks: the maximal
    runs of its transitions, their post-sets cut to its places, from its
    initial places.  A run can strand a token on a place internal to
    the cell, which no transition outside the cell consumes, so the
    matrix semantics drops it: the run's final places are clipped to
    the cell's final ones, and the stranded places stay among the
    transaction's nodes."""
    moves = [(1 << t, index.pre[t], index.post[t] & cell.places) for t in bits(cell.transitions)]
    runs = run(_completions(moves, cell.initial, {}))
    transactions = frozenset(_process_of(index.names, moves, fired, cell.final) for fired in runs)
    outputs = frozenset().union(*(p.final_places for p in transactions))
    return Constant(ConstantKey(marked=index.names(cell.initial), outputs=outputs, transactions=transactions))


def _pad_dead(dead_finals: frozenset[str], inner: Term) -> Term:
    """⊥ padding with the unit laws applied: drop ⊥ over nothing and a
    trailing empty identity."""
    if not dead_finals:
        return inner
    if inner == Identity(frozenset()):
        return Dead(dead_finals)
    return Par(Dead(dead_finals), inner)

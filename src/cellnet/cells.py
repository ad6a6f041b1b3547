"""Structural branching cells and the net algebra built on them.

An s-cell groups the transitions whose choices cannot be separated: it
is an equivalence class of the preorder generated by causality together
with the inverse precondition relation.  Among transitions, those
classes are the strongly connected components of the transition graph,
with an arc from each transition to every consumer of one of its pre-
or post-places, so :func:`_blocks` finds them all with one pass of
Tarjan's algorithm (:func:`nets.strong_components`, which also finds
the cycles that :func:`nets.validate_occurrence` reports) on the
transition bits of the net's index (:class:`nets.NetIndex`).  The
compiler reads those blocks, and :func:`scells` names them as
:class:`SCell` values, each of which builds its subnet only when that
is read.  Cells are the indecomposable blocks of a marked occurrence net; every net factors
uniquely (up to the commutative-monoidal axioms) into a layered
parallel/sequential composition of cell subnets and identity nets.
:func:`stratify` composes those layers from whatever the caller builds
for a block, a pad, a layer and a sequence: a tree of :class:`TreeNode`
values here, a term in the compiler and in normalization.

Also here: the restriction that specialises a cell to the inputs that
receive tokens, which the compiler runs on the masks of the net's
index alone (:func:`_kills`, :func:`_survivor`).
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_
from typing import Callable, NamedTuple, Sequence, TypeVar

from .errors import CompositionError
from .nets import (
    MarkedNet,
    Net,
    NetIndex,
    NodeId,
    PlaceId,
    Walk,
    bits,
    ensure_occurrence,
    run,
    strong_components,
    subnet_of,
    topological_order,
    _Value,
)

_R = TypeVar("_R")


class SCell(_Value):
    """One structural branching cell of ``net``.

    ``members`` is the equivalence class itself (transitions plus their
    pre-places).  The cell's subnet adds the post-places of the member
    transitions: ``min_places`` and ``max_places`` are its initial and
    final places, and ``marking`` is the enclosing net's marking on the
    initial ones.  ``subnet``, that subnet as a marked net, is built on
    first read and kept.
    """

    _fields = ("net", "members", "min_places", "max_places", "marking")

    def __init__(self, net: Net, members: frozenset[NodeId], min_places: frozenset[PlaceId],
                 max_places: frozenset[PlaceId], marking: frozenset[PlaceId]) -> None:
        self.__dict__.update(net=net, members=members, min_places=min_places, max_places=max_places,
                             marking=marking)

    @property
    def transitions(self) -> frozenset[str]:
        return self.members & self.net.transitions

    @property
    def inputs(self) -> frozenset[PlaceId]:
        """The unmarked initial places."""
        return self.min_places - self.marking

    @cached_property
    def subnet(self) -> MarkedNet:
        """The member transitions with their pre- and post-places, a
        subnet of ``net`` that inherits its check (see
        :func:`nets.subnet_of`), marked with ``marking``."""
        transitions = self.transitions
        return MarkedNet(subnet_of(self.net, self.members - transitions | self.max_places, transitions),
                         self.marking)


def scells(net: Net, marking: frozenset[PlaceId] = frozenset()) -> tuple[SCell, ...]:
    """All s-cells of the net, sorted by their smallest member place:
    the blocks that :func:`_blocks` finds on the net's index, each
    marked with ``marking ∩ minp``.  The net is checked (once per
    object).  No subnet is built until a cell's ``subnet`` is read."""
    ensure_occurrence(net)
    index, names, cells = net._index, net._index.names, []
    for block in _blocks(index, index.transitions, index.places):
        initial = names(block.initial)
        cells.append(SCell(net, names(block.members), initial, names(block.final), marking & initial))
    return tuple(cells)


class _Block(NamedTuple):
    """One cell of a net, or of a restriction of it, as masks of the
    net's index; its places are its subnet's."""

    members: int
    transitions: int
    places: int
    initial: int
    final: int


def _blocks(index: NetIndex, transitions: int, places: int) -> list[_Block]:
    """The cells of the index's net cut to ``transitions`` and
    ``places``, by smallest member place.

    A cell's transitions are a strongly connected component of the
    transition graph, with an arc from t to each of ``transitions``
    that consumes a pre- or post-place of t (``NetIndex.neighbours``),
    found by one pass of Tarjan's algorithm
    (:func:`nets.strong_components`).  A path of the flow between
    transitions alternates transition, place and consumer, and a
    post-place a cut drops has only dropped consumers, so these are the
    flow's classes.  A cell's member places are its transitions'
    pre-places; every consumer of a member place is a member, so the
    final places are the post-places in ``places`` outside the members,
    and the initial places the member places no member produces."""
    pre, post, neighbours = index.pre, index.post, index.neighbours
    blocks = {}
    for component in strong_components(bits(transitions), lambda t: bits(neighbours[t] & transitions)):
        cell = own = made = 0
        for t in component:
            cell |= 1 << t
            own |= pre[t]
            made |= post[t]
        made &= places
        blocks[own & -own] = _Block(cell | own, cell, own | made, own & ~made, made & ~own)
    return [blocks[key] for key in sorted(blocks)]


def cell_order(net: Net, cells: tuple[SCell, ...]) -> frozenset[tuple[int, int]]:
    """Covering pairs (i, j) of ⊑ on the cells of ``net``: cells[i] ⊑
    cells[j], i ≠ j, and no cell between; ⊑ is their transitive closure.

    A place with a consumer is in that consumer's cell, so a path of ⊑
    between two cells runs through cell members only, and ⊑ on cells is
    reachability in the acyclic graph with an arc from each cell to the
    cells of its members' post-sets, read off the net's index.  The cells
    each reaches, as a mask of cell numbers, are unioned in one reverse
    topological pass, as the descendants of :class:`nets.NetIndex` are,
    and an arc is a cover unless its head lies above another successor."""
    ensure_occurrence(net)
    index, reach, covers = net._index, [0] * len(cells), []
    members = [index.mask(cell.members) for cell in cells]
    cell_of = {x: i for i, mask in enumerate(members) for x in bits(mask)}
    succ = {i: {cell_of.get(y, i) for x in bits(mask) for y in bits(index.post[x])} - {i}
            for i, mask in enumerate(members)}
    for i in reversed(topological_order(succ)):
        above = reduce(or_, (reach[j] for j in succ[i]), 0)  # the cells above a successor
        reach[i] = reduce(or_, (1 << j for j in succ[i]), above)
        covers += [(i, j) for j in succ[i] if not above >> j & 1]
    return frozenset(covers)


# --------------------------------------------------------------------- #
# Net algebra: parallel and sequential composition
# --------------------------------------------------------------------- #

class _Parts(NamedTuple):
    """A marked net's parts and interface, composed without building the
    net, so that each step checks the interfaces only."""

    places: frozenset[PlaceId]
    transitions: frozenset[str]
    flow: frozenset[tuple[NodeId, NodeId]]
    marking: frozenset[PlaceId]
    inputs: frozenset[PlaceId]
    outputs: frozenset[PlaceId]

    @classmethod
    def of(cls, m: MarkedNet) -> "_Parts":
        net = m.net
        return cls(net.places, net.transitions, net.flow, m.marking, m.inputs, m.outputs)

    def build(self) -> MarkedNet:
        return MarkedNet(Net(self.places, self.transitions, self.flow), self.marking)


def parallel_compose(m1: MarkedNet, m2: MarkedNet) -> MarkedNet:
    """Disjoint union of two marked nets (the ⊕ of the net algebra)."""
    return _disjoint_union((_Parts.of(m1), _Parts.of(m2))).build()


def _disjoint_union(parts: tuple[_Parts, ...]) -> _Parts:
    """⊕ of several nets at once."""
    seen: set[NodeId] = set()
    for part in parts:
        shared = seen & (part.places | part.transitions)
        if shared:
            raise CompositionError(f"parallel composition overlaps on nodes {sorted(shared)}")
        seen |= part.places | part.transitions
    return _Parts(*(frozenset().union(*field) for field in zip(*parts)))  # field by field


def sequential_compose(m1: MarkedNet, m2: MarkedNet) -> MarkedNet:
    """Glue m1's final places onto m2's unmarked initial places.

    The two nets must be disjoint except for that shared interface,
    which must be exactly maxp(m1) and exactly the unmarked initial
    places of m2.
    """
    return _glue(_Parts.of(m1), _Parts.of(m2)).build()


def _glue(m1: _Parts, m2: _Parts) -> _Parts:
    shared = (m1.places | m1.transitions) & (m2.places | m2.transitions)
    out1 = m1.outputs
    in2 = m2.inputs
    if out1 != in2:
        missing = sorted(out1 - in2)
        extra = sorted(in2 - out1)
        raise CompositionError(
            "sequential interface mismatch: "
            f"uncovered outputs {missing}, unfed inputs {extra}"
        )
    if shared != out1:
        stray = sorted(shared ^ out1)
        raise CompositionError(f"nets share nodes beyond the interface: {stray}")
    # with the checks passed, the glued net's interface is m1's inputs and m2's outputs
    return _Parts(
        m1.places | m2.places,
        m1.transitions | m2.transitions,
        m1.flow | m2.flow,
        m1.marking | m2.marking,
        m1.inputs,
        m2.outputs,
    )


# --------------------------------------------------------------------- #
# Canonical form
# --------------------------------------------------------------------- #

class TreeNode(_Value):
    """Node of a composition tree; leaves are cell subnets and identity
    nets, internal nodes are parallel (n-ary) or sequential (binary).
    Each node works out its interface, ``inputs`` and ``outputs``, once,
    when it is built; they stay out of its fields, so out of equality,
    hashing and repr."""

    __slots__ = ("inputs", "outputs")

    def _interface(self, inputs: frozenset[PlaceId], outputs: frozenset[PlaceId]) -> None:
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)


class CellLeaf(TreeNode):
    __slots__ = _fields = ("cell",)

    def __init__(self, cell: SCell) -> None:
        object.__setattr__(self, "cell", cell)
        self._interface(cell.inputs, cell.max_places)


class IdentityLeaf(TreeNode):
    __slots__ = _fields = ("places",)

    def __init__(self, places: frozenset[PlaceId]) -> None:
        object.__setattr__(self, "places", places)
        self._interface(places, places)


class ParNode(TreeNode):
    __slots__ = _fields = ("children",)

    def __init__(self, children: tuple[TreeNode, ...]) -> None:
        object.__setattr__(self, "children", children)
        self._interface(
            frozenset().union(*(c.inputs for c in children)),
            frozenset().union(*(c.outputs for c in children)),
        )


class SeqNode(TreeNode):
    __slots__ = _fields = ("first", "second")

    def __init__(self, first: TreeNode, second: TreeNode) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        self._interface(first.inputs, second.outputs)


def stratify(
    blocks: list[tuple[frozenset[PlaceId], frozenset[PlaceId]]],
    inputs: frozenset[PlaceId],
    leaves: Sequence[_R],
    identity: Callable[[frozenset[PlaceId]], _R],
    par: Callable[[list[_R]], _R],
    seq: Callable[[_R, _R], _R],
) -> _R:
    """Layer blocks, given as (consumed, produced) place sets, by place
    dataflow, and compose the layers.

    A block's layer is one past the deepest block producing a place it
    consumes (for a cell: one past the deepest of its strict predecessors in
    the cell order); places in ``inputs`` are available before layer 1.  A
    layer is the ⊕ of its blocks, in the given order, and of one identity
    pad: the places available before the layer and still needed after it, by
    a later layer or as outputs: a place no block consumes is padded to the
    last layer.  Composed by ;, the layers reproduce the whole exactly.
    Unchecked here, the callers guarantee that each place is produced by at
    most one block and consumed by at most one, that a consumed place is an
    input or produced, that no input is produced, and that the dataflow has
    no cycle, as :func:`nets.validate_occurrence` ensures for a net's cells
    and :func:`terms.typecheck` for a term's atoms.

    Block ``i`` is ``leaves[i]``.  Layer by layer from the first, a
    nonempty pad is built by ``identity(pad)``, a layer of two or more
    parts by ``par(parts)``, and the layers so far and the next by
    ``seq``.  No blocks give ``identity(inputs)``.
    """
    if not blocks:
        return identity(inputs)
    producer: dict[PlaceId, int] = {}
    consumer: dict[PlaceId, int] = {}
    for i, (consumed, produced) in enumerate(blocks):
        for p in produced:
            producer[p] = i
        for p in consumed:
            consumer[p] = i

    # Longest path from the inputs, in topological order.
    users: dict[int, list[int]] = {i: [] for i in range(len(blocks))}
    for i, (consumed, _) in enumerate(blocks):
        for p in consumed:
            if p not in inputs:
                users[producer[p]].append(i)
    layer = [1] * len(blocks)
    for i in topological_order(users):
        for j in users[i]:
            layer[j] = max(layer[j], layer[i] + 1)

    depth = max(layer)
    pads: list[set[PlaceId]] = [set() for _ in range(depth)]
    for p in sorted(inputs | producer.keys()):
        avail = 0 if p in inputs else layer[producer[p]]
        last = layer[consumer[p]] - 1 if p in consumer else depth
        for j in range(avail, last):
            pads[j].add(p)

    by_layer: list[list[int]] = [[] for _ in range(depth)]
    for i, k in enumerate(layer):
        by_layer[k - 1].append(i)
    composed = None
    for indices, pad in zip(by_layer, pads):
        parts = [leaves[i] for i in indices]
        if pad:
            parts.append(identity(frozenset(pad)))
        part = parts[0] if len(parts) == 1 else par(parts)
        composed = part if composed is None else seq(composed, part)
    return composed


def canonical_form(marked: MarkedNet) -> TreeNode:
    """Layered decomposition of a marked occurrence net: its cells,
    ordered by smallest member place as :func:`scells` returns them,
    stratified by :func:`stratify` into a tree.  Folding the tree back
    with ⊕ and ; reproduces the input net exactly."""
    cells = scells(marked.net, marked.marking)
    return stratify([(c.inputs, c.max_places) for c in cells], marked.inputs, [CellLeaf(c) for c in cells],
                    IdentityLeaf, lambda parts: ParNode(tuple(parts)), SeqNode)


def _fold_nodes(
    tree: TreeNode,
    cell: Callable[[CellLeaf], _R],
    identity: Callable[[IdentityLeaf], _R],
    par: Callable[[list[_R]], _R],
    seq: Callable[[_R, _R], _R],
) -> _R:
    """Fold a composition tree bottom-up, children left to right: each
    leaf maps through ``cell`` or ``identity``, a parallel node combines
    its children's results with ``par`` and a sequential node its two
    parts' with ``seq``.  The walk runs on :func:`nets.run`, so the
    tree's depth does not reach Python's stack."""
    return run(_fold(tree, (cell, identity, par, seq)))


def _fold(node: TreeNode, maps: tuple[Callable, Callable, Callable, Callable]) -> Walk[_R]:
    cell, identity, par, seq = maps
    if isinstance(node, CellLeaf):
        return cell(node)
    if isinstance(node, IdentityLeaf):
        return identity(node)
    if isinstance(node, ParNode):
        parts = []
        for child in node.children:
            parts.append((yield _fold(child, maps)))
        return par(parts)
    if isinstance(node, SeqNode):
        return seq((yield _fold(node.first, maps)), (yield _fold(node.second, maps)))
    raise TypeError(f"not a composition tree node: {node!r}")


def fold_tree(tree: TreeNode) -> MarkedNet:
    """Recompose a composition tree back into a marked net, checked once:
    each ⊕ and ; step checks only its interfaces, and each intermediate
    net is a subnet of the whole, so the final check implies theirs."""
    return _fold_nodes(
        tree,
        lambda leaf: _Parts.of(leaf.cell.subnet),
        lambda leaf: _Parts(leaf.places, frozenset(), frozenset(), frozenset(), leaf.places, leaf.places),
        lambda parts: _disjoint_union(tuple(parts)),
        _glue,
    ).build()


def cell_leaves(tree: TreeNode) -> tuple[CellLeaf, ...]:
    """The cell leaves of a composition tree, left to right."""
    leaves: list[CellLeaf] = []
    _fold_nodes(tree, leaves.append, lambda leaf: None, lambda parts: None, lambda first, second: None)
    return tuple(leaves)


def render_tree(tree: TreeNode) -> str:
    """Bracketed textual form used by the CLI."""

    def render_cell(leaf: CellLeaf) -> str:
        body = ",".join(sorted(leaf.cell.members))
        marking = leaf.cell.marking
        if marking:
            return f"cell{{{body} | m={','.join(sorted(marking))}}}"
        return f"cell{{{body}}}"

    return _fold_nodes(
        tree,
        render_cell,
        lambda leaf: f"I{{{','.join(sorted(leaf.places))}}}",
        lambda parts: "(" + " + ".join(parts) + ")",
        lambda first, second: f"({first} ; {second})",
    )


# --------------------------------------------------------------------- #
# Restriction
# --------------------------------------------------------------------- #

def _kills(index: NetIndex, transitions: int, places: int) -> int:
    """The ``transitions`` with one of ``places`` below them along the
    flow between them."""
    post, killed = index.post, 0
    while places:
        hit = reduce(or_, map(post.__getitem__, bits(places)), 0) & transitions & ~killed
        killed |= hit
        places = reduce(or_, map(post.__getitem__, bits(hit)), 0)
    return killed


def _survivor(index: NetIndex, transitions: int, places: int, killed: int) -> tuple[int, int]:
    """The transitions and places of a restriction that stay when the
    ``killed`` transitions die.  A place goes with its producer, and
    with its consumers when they all die (a token there could never be
    used again); a produced place with no consumer stays, as an output.
    So a kept transition keeps its whole pre-set, as
    :func:`nets.subnet_of` requires; its post-set is cut to the places
    that stay."""
    pre, post, kept = index.pre, index.post, 0
    for p in bits(places):
        made, used = pre[p] & transitions, post[p] & transitions
        if not made & killed and (used & ~killed or made and not used):
            kept |= 1 << p
    return transitions & ~killed, kept

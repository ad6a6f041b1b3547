"""Reference implementations that the tests compare the library against.

Each one computes something the library computes another way: the
dense Kronecker algebra and identity arrow that ``interpret``
replaced, the widest cut that ``interpret`` checks against its width
cap, a compiler that compiles every cell from its subnet and restricts
it on frozensets, the compiler's own mask restriction built as a
subnet, so that tests drive it by place names, the reachability
preorder whose classes ``scells`` finds by Tarjan's algorithm, the
closure and covers of a strict order given by its pairs, a token
game over markings, a state marginal, a state's text and the
probability that one place is marked, read entry by entry where the
library reads only the entries it needs, box and wire counts of a DOT
diagram, the pre- and post-sets, the flow's closure and the event
structure built from them on frozensets, where the library reads all
of them off a net's bit index, and the event-structure oracle's
searches and term player on frozensets, where the library runs them on
bit masks, and the ⊕ and ; splits of a net, searched on its flow alone,
where the library layers its cells.  None of them is used by the
library.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Iterable

import numpy as np

from cellnet import (
    Constant,
    ConstantKey,
    Dead,
    DeltaTable,
    Identity,
    InferenceError,
    KleisliArrow,
    MarkedNet,
    Net,
    NetError,
    PES,
    Par,
    Process,
    Seq,
    State,
    Sum,
    Term,
    Wiring,
    WiringError,
    enumerate_transactions,
    make_sum,
    min_places,
    scells,
    typecheck,
)
from cellnet.cells import _kills, _survivor, stratify
from cellnet.kleisli import subset_index
from cellnet.nets import _Value, subnet_of, topological_order
from cellnet.terms import par_all, subsets_lex

# --------------------------------------------------------------------- #
# Dense Kronecker algebra
# --------------------------------------------------------------------- #


def identity_arrow(wiring: Wiring) -> KleisliArrow:
    return KleisliArrow(wiring, wiring, np.eye(wiring.size))


def tensor(a1: KleisliArrow, a2: KleisliArrow) -> KleisliArrow:
    """Kronecker-style product over juxtaposed wirings: the second
    factor's places occupy the higher bit positions."""
    shared_in = a1.in_wiring.place_set & a2.in_wiring.place_set
    shared_out = a1.out_wiring.place_set & a2.out_wiring.place_set
    if shared_in or shared_out:
        raise WiringError(f"tensor factors share places: {sorted(shared_in | shared_out)}")
    in_wiring = Wiring(a1.in_wiring.places + a2.in_wiring.places)
    out_wiring = Wiring(a1.out_wiring.places + a2.out_wiring.places)
    return KleisliArrow(in_wiring, out_wiring, np.kron(a2.matrix, a1.matrix))


def compose_arrows(a1: KleisliArrow, a2: KleisliArrow) -> KleisliArrow:
    if a1.out_wiring != a2.in_wiring:
        raise WiringError(
            f"cannot compose: output wiring {a1.out_wiring.places} differs from "
            f"input wiring {a2.in_wiring.places}"
        )
    return KleisliArrow(a1.in_wiring, a2.out_wiring, a1.matrix @ a2.matrix)


def copair(rows: list[KleisliArrow], in_wiring: Wiring) -> KleisliArrow:
    """Stack single-row arrows, row k describing input subset number k."""
    if len(rows) != in_wiring.size:
        raise WiringError(f"copair needs {in_wiring.size} rows, got {len(rows)}")
    out_wiring = rows[0].out_wiring
    for arrow in rows:
        if arrow.in_wiring.places != ():
            raise WiringError("copair rows must have the empty input wiring")
        if arrow.out_wiring != out_wiring:
            raise WiringError("copair rows must share one output wiring")
    return KleisliArrow(in_wiring, out_wiring, np.vstack([a.matrix for a in rows]))


def dead_arrow(places: Iterable[str], out_wiring: Wiring) -> KleisliArrow:
    """The arrow that never marks its outputs: mass 1 on the empty subset."""
    places = frozenset(places)
    if out_wiring.place_set != places:
        raise WiringError(f"wiring {out_wiring.places} does not wire {sorted(places)}")
    row = np.zeros((1, out_wiring.size))
    row[0, 0] = 1.0
    return KleisliArrow(Wiring(()), out_wiring, row)


def constant_arrow(key, delta: DeltaTable, out_wiring: Wiring) -> KleisliArrow:
    """One row over the constant's outputs: the entry at subset m is the
    total probability of the transactions whose final places are m."""
    if out_wiring.place_set != key.outputs:
        raise WiringError(
            f"wiring {out_wiring.places} does not wire the constant outputs "
            f"{sorted(key.outputs)}"
        )
    dist = delta.distribution_for(key)
    row = np.zeros((1, out_wiring.size))
    for proc in sorted(key.transactions, key=lambda p: p.sort_key()):
        row[0, out_wiring.index(proc.final_places)] += dist.prob(proc.transitions)
    return KleisliArrow(Wiring(()), out_wiring, row)


def relabel(arrow: KleisliArrow, in_wiring: Wiring, out_wiring: Wiring) -> KleisliArrow:
    """The same arrow with rows and columns indexed by other wirings of
    its interfaces."""
    for source, target in ((arrow.in_wiring, in_wiring), (arrow.out_wiring, out_wiring)):
        if source.place_set != target.place_set:
            raise WiringError(f"wirings order different sets: {source.places} vs {target.places}")
    rows = subset_index(in_wiring, arrow.in_wiring)
    cols = subset_index(out_wiring, arrow.out_wiring)
    return KleisliArrow(in_wiring, out_wiring, arrow.matrix[np.ix_(rows, cols)])


def widest_cut(term: Term) -> int:
    """The widest subterm interface or cut met when rows are pushed
    through the term from its inputs: the parts of each ``;`` in order,
    the factors of each ``+`` tree stably sorted by outputs minus inputs,
    and each sum branch from the unit."""
    return _push_widths(term, len(typecheck(term).inputs))[1]


def _push_widths(term: Term, cut: int) -> tuple[int, int]:
    """The width of the cut after pushing the term through a cut of
    ``cut`` places, and the widest interface or cut met on the way."""
    ty = typecheck(term)
    widest = max(cut, len(ty.inputs), len(ty.outputs))
    if isinstance(term, Seq):
        parts = [term.first, term.second]
    elif isinstance(term, Par):
        parts = sorted(_factors(term), key=lambda f: len(typecheck(f).outputs) - len(typecheck(f).inputs))
    else:
        parts = []
        cut += len(ty.outputs) - len(ty.inputs)
    for part in parts:
        cut, part_widest = _push_widths(part, cut)
        widest = max(widest, part_widest)
    if isinstance(term, Sum):
        widest = max([widest] + [_push_widths(branch, 0)[1] for _, branch in term.branches])
    return cut, max(widest, cut)


def _factors(term: Par) -> list[Term]:
    """The maximal non-``+`` subterms of a ``+`` tree, left to right."""
    return [f for t in (term.left, term.right) for f in (_factors(t) if isinstance(t, Par) else [t])]


# --------------------------------------------------------------------- #
# Compiling from cell subnets
# --------------------------------------------------------------------- #


def compile_by_subnets(marked: MarkedNet) -> Term:
    """The compiled term of a marked net, with every cell compiled from
    the subnet ``scells`` builds for it: a fully marked cell is the
    constant over the transactions of that subnet, and a cell with
    inputs is the sum over their subsets of each restriction's compiled
    term, the full subset included, padded with ⊥ on the final places it
    kills.  The layers are those of ``stratify``."""
    cells = scells(marked.net, marked.marking)
    return stratify([(c.subnet.inputs, c.subnet.outputs) for c in cells], marked.inputs,
                    [_compile_subnet(c.subnet) for c in cells], Identity, par_all, Seq)


def _compile_subnet(cell: MarkedNet) -> Term:
    if not cell.inputs:
        boundary = cell.outputs
        transactions = frozenset(
            Process(p.transitions, p.initial_places, p.final_places & boundary,
                    p.internal_places | (p.final_places - boundary))
            for p in enumerate_transactions(cell)
        )
        outputs = frozenset().union(*(p.final_places for p in transactions))
        return Constant(ConstantKey(min_places(cell.net), outputs, transactions))
    branches = {}
    for arriving in subsets_lex(cell.inputs):
        view, dead_finals = restrict_cell(cell, arriving)
        if view.net.places or view.net.transitions:
            inner = compile_by_subnets(view)
        else:
            inner = Identity(frozenset())
        if dead_finals:
            inner = Dead(dead_finals) if inner == Identity(frozenset()) else Par(Dead(dead_finals), inner)
        branches[arriving] = inner
    return make_sum(cell.inputs, branches)


def restrict_cell(cell: MarkedNet, arriving: frozenset[str]) -> tuple[MarkedNet, frozenset[str]]:
    """The cell specialised to the inputs ``arriving``, on frozensets: the
    absent inputs go with their dependents, then every place whose
    consumers all died (a produced one with no consumer stays, as an
    output), and every initial place that stays is marked.  With it, the
    final places that go."""
    net = cell.net
    doomed = dependents(net, cell.inputs - arriving)
    dead = doomed & net.transitions
    removed = (doomed - dead).union(
        p for p in net.places - doomed if net.post(p) <= dead and (net.post(p) or not net.pre(p))
    )
    survivor = subnet_of(net, net.places - removed, net.transitions - dead)
    view = MarkedNet(survivor, min_places(survivor))
    return view, cell.outputs - view.outputs


# --------------------------------------------------------------------- #
# The compiler's restriction, built as a subnet
# --------------------------------------------------------------------- #


def remove_places(cell: MarkedNet, dead: frozenset[str]) -> MarkedNet:
    """Delete the (unmarked, initial) places ``dead`` plus every
    transition and place that causally depends on them, then drop the
    junk this leaves behind: places whose consumers all died (a token
    landing there could never be used again) and places left isolated.
    This is the compiler's restriction (``cells._kills`` and
    ``cells._survivor``), built as a subnet."""
    dead = frozenset(dead)
    stray = dead - cell.inputs
    if stray:
        raise NetError(f"places {sorted(stray)} are not unmarked initial places of the cell")
    index = cell.net._index
    killed = _kills(index, index.transitions, index.mask(dead))
    transitions, places = _survivor(index, index.transitions, index.places, killed)
    kept = index.names(places)
    return MarkedNet(subnet_of(cell.net, kept, index.names(transitions)), cell.marking & kept)


class MarkedView(_Value):
    """A cell specialised to the inputs that actually receive tokens:
    everything else is removed and all surviving initial places are
    marked.  ``dead_finals`` are the original final places that can no
    longer be reached."""

    __slots__ = _fields = ("marked", "dead_finals")

    def __init__(self, marked: MarkedNet, dead_finals: frozenset[str]) -> None:
        object.__setattr__(self, "marked", marked)
        object.__setattr__(self, "dead_finals", dead_finals)


def at_marking(cell: MarkedNet, arriving: frozenset[str]) -> MarkedView:
    """Specialise ``cell`` to the case where exactly ``arriving`` (a
    subset of its unmarked initial places) receive tokens."""
    arriving = frozenset(arriving)
    stray = arriving - cell.inputs
    if stray:
        raise NetError(f"places {sorted(stray)} are not unmarked initial places of the cell")
    survivor = remove_places(cell, cell.inputs - arriving).net
    marked = MarkedNet(survivor, min_places(survivor))
    return MarkedView(marked, dead_finals=cell.outputs - marked.outputs)


# --------------------------------------------------------------------- #
# Splits of a net by ⊕ and ;
# --------------------------------------------------------------------- #


def flow_components(net: Net) -> frozenset[frozenset[str]]:
    """The components of the net's flow graph with its arcs undirected,
    an isolated place being one on its own.  The net is the ⊕ of two
    nets exactly when each is a union of some of these, so it splits by
    ⊕ exactly when it has two or more.  Reads only the net's places,
    transitions and flow."""
    neighbours: dict[str, set[str]] = {x: set() for x in net.places | net.transitions}
    for x, y in net.flow:
        neighbours[x].add(y)
        neighbours[y].add(x)
    components, seen = set(), set()
    for x in neighbours:
        if x in seen:
            continue
        pending, component = [x], {x}
        while pending:
            for y in neighbours[pending.pop()] - component:
                component.add(y)
                pending.append(y)
        seen |= component
        components.add(frozenset(component))
    return frozenset(components)


def is_seq_split(net: Net, first: frozenset[str]) -> bool:
    """Whether the net is a ; of the net on the transitions ``first``
    and the net on the others: ``first`` is a nonempty proper subset of
    the transitions, closed downwards under causality (a producer of a
    pre-place of a transition in it is in it), and no place has
    consumers on both sides.  Reads only the net's places, transitions
    and flow."""
    if not first or not first < net.transitions:
        return False
    producer = {y: x for x, y in net.flow if x in net.transitions}
    consumers: dict[str, set[str]] = {p: set() for p in net.places}
    for x, y in net.flow:
        if x in net.places:
            consumers[x].add(y)
            if y in first and x in producer and producer[x] not in first:
                return False
    return all(used <= first or not used & first for used in consumers.values())


def seq_splits(net: Net) -> Iterable[frozenset[str]]:
    """Every transition set at which the net splits by ;, found by trying
    each nonempty proper subset of its transitions, smallest first."""
    transitions = sorted(net.transitions)
    for size in range(1, len(transitions)):
        for first in map(frozenset, combinations(transitions, size)):
            if is_seq_split(net, first):
                yield first


# --------------------------------------------------------------------- #
# Nets, states and diagrams
# --------------------------------------------------------------------- #


def scell_preorder(net: Net) -> dict[str, frozenset[str]]:
    """The preorder ⊑ on nodes: reflexive-transitive closure of the flow
    relation extended with arcs from each transition back to its
    pre-places.  Returns, per node, the set of nodes it precedes, by a
    walk over every node's reachability set."""
    succ: dict[str, set[str]] = {x: set() for x in net.nodes}
    for src, dst in net.flow:
        succ[src].add(dst)
    for t in net.transitions:
        succ[t] |= net.pre(t)
    reach: dict[str, frozenset[str]] = {}
    for x in net.nodes:
        pending, seen = [x], {x}
        while pending:
            for z in succ[pending.pop()] - seen:
                seen.add(z)
                pending.append(z)
        reach[x] = frozenset(seen)
    return reach


def closure(pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """The transitive closure of a relation given by its pairs, by
    joining pairs until none is new."""
    closed = set(pairs)
    while True:
        more = {(i, k) for i, j in closed for j2, k in closed if j == j2} - closed
        if not more:
            return frozenset(closed)
        closed |= more


def covers(pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """The transitive reduction of a strict order given by all its pairs:
    the pairs (i, k) with no j such that (i, j) and (j, k) are pairs."""
    order = frozenset(pairs)
    between = {(i, k) for i, j in order for j2, k in order if j == j2}
    return order - between


def maximal_firing_outcomes(marked: MarkedNet) -> frozenset[frozenset[str]]:
    """Final markings of all maximal firing sequences, by a token game
    over markings."""
    net = marked.net
    seen: set[frozenset[str]] = set()
    finals: set[frozenset[str]] = set()
    stack = [marked.marking]
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        fireable = [t for t in net.transitions if net.pre(t) <= m]
        if not fireable:
            finals.add(m)
        for t in fireable:
            stack.append((m - net.pre(t)) | net.post(t))
    return frozenset(finals)


def restrict_state(state: State, keep: Iterable[str]) -> State:
    """Project a state down to the kept places (marginal distribution)."""
    keep = frozenset(keep)
    stray = keep - state.wiring.place_set
    if stray:
        raise InferenceError(f"cannot keep unknown places {sorted(stray)}")
    new_wiring = Wiring(tuple(p for p in state.wiring.places if p in keep))
    probs = np.zeros(new_wiring.size)
    np.add.at(probs, subset_index(state.wiring, new_wiring), state.probs)
    return State(new_wiring, probs)


def format_state(state: State) -> str:
    """The text of a state, one line per subset of positive probability,
    read entry by entry as numpy scalars."""
    lines = []
    for k, v in enumerate(state.probs):
        if v > 0:
            label = ",".join(sorted(state.wiring.subset_at(k)))
            lines.append(f"{{{label}}}: {float(v):.12g}")
    return "\n".join(lines) + "\n"


def place_marginal(state: State, place: str) -> float:
    """The probability that ``place`` is marked: the entries whose subset
    holds it, picked by a subset index and added in index order."""
    marked = subset_index(state.wiring, Wiring((place,))) == 1
    return float(sum(state.probs[marked].tolist()))


def count_boxes(dot: str) -> int:
    return sum(1 for line in dot.splitlines() if "[label=\"{" in line)


def count_wires(dot: str) -> int:
    return sum(1 for line in dot.splitlines() if "->" in line)


# --------------------------------------------------------------------- #
# The flow's closure and the event structure on frozensets
# --------------------------------------------------------------------- #


def flow_tables(net: Net) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
    """Each node's pre-set and post-set, read off the net's flow, where
    ``Net.pre`` and ``Net.post`` read the net's bit index."""
    pre: dict[str, set[str]] = {x: set() for x in net.nodes}
    post: dict[str, set[str]] = {x: set() for x in net.nodes}
    for src, dst in net.flow:
        pre[dst].add(src)
        post[src].add(dst)
    return {x: frozenset(s) for x, s in pre.items()}, {x: frozenset(s) for x, s in post.items()}


def dependents(net: Net, places: Iterable[str]) -> frozenset[str]:
    """The nodes with one of ``places`` below them, those places
    included, by a search forward along the flow."""
    post = flow_tables(net)[1]
    reached = set(places)
    pending = list(reached)
    while pending:
        for y in post[pending.pop()]:
            if y not in reached:
                reached.add(y)
                pending.append(y)
    return frozenset(reached)


def descendants(net: Net) -> dict[str, frozenset[str]]:
    """The reflexive-transitive closure of the flow, per node, unioned in
    reverse topological order: for an acyclic net only."""
    post = flow_tables(net)[1]
    order = topological_order(post)
    if len(order) < len(net.nodes):
        raise NetError("the flow has a cycle")
    closure: dict[str, frozenset[str]] = {}
    for x in reversed(order):
        closure[x] = frozenset({x}).union(*(closure[y] for y in post[x]))
    return closure


def net_pes(net: Net) -> PES:
    """The PES of the net with every initial place marked, through the
    checked constructor: every transition is an event, causality is the
    flow order, and conflict is the shared-precondition relation
    inherited along causality."""
    events = net.transitions
    closure = descendants(net)
    above = {t: closure[t] & events for t in events}
    causes: dict[str, set[str]] = {t: set() for t in events}
    rivals: dict[str, set[str]] = {t: set() for t in events}
    for t in events:
        for u in above[t]:
            causes[u].add(t)
    for p in net.places:
        consumers = net.post(p)
        for t1 in consumers:
            others = frozenset().union(*(above[t2] for t2 in consumers if t2 != t1))
            for x in above[t1]:
                rivals[x] |= others
    return PES(
        events,
        {e: frozenset(xs) for e, xs in causes.items()},
        {e: frozenset(fs) for e, fs in rivals.items()},
    )


# --------------------------------------------------------------------- #
# The event-structure oracle on frozensets
# --------------------------------------------------------------------- #


def restrict(pes: PES, keep: frozenset[str]) -> PES:
    """The sub-structure on the events in ``keep``: the tables cut down
    to them, checked again by the constructor."""
    keep = pes.events & keep
    return PES(keep, {e: pes.causes[e] & keep for e in keep}, {e: pes.rivals[e] & keep for e in keep})


def future(pes: PES, v: Iterable[str]) -> PES:
    """The events executable after configuration v: outside v and
    compatible with all of it."""
    v = frozenset(v)
    if not v <= pes.events or not all(pes.causes[e] <= v and not pes.rivals[e] & v for e in v):
        raise NetError(f"{sorted(v)} is not a configuration")
    return restrict(pes, pes.events.difference(v, *(pes.rivals[f] for f in v)))


def immediate_conflicts(pes: PES) -> dict[str, frozenset[str]]:
    """e #0 f exactly when, for every cause x of e, the rivals of x
    below f are {f} if x = e and none otherwise."""
    none: frozenset[str] = frozenset()
    return {
        e: frozenset(
            f for f in rivals
            if all(pes.rivals[x] & pes.causes[f] == ({f} if x == e else none) for x in pes.causes[e])
        )
        for e, rivals in pes.rivals.items()
    }


def initial_stopping_prefixes(pes: PES) -> frozenset[frozenset[str]]:
    """Minimal non-empty prefixes closed under immediate conflict: the
    closures of the minimal events under causes and immediate
    conflicts that hold no smaller closure."""
    immediate = immediate_conflicts(pes)
    closures: dict[str, frozenset[str]] = {}
    for seed in pes.events:
        if pes.down(seed) <= {seed}:
            block, pending = {seed}, [seed]
            while pending:
                e = pending.pop()
                extra = (pes.down(e) | immediate[e]) - block
                block |= extra
                pending.extend(extra)
            closures[seed] = frozenset(block)
    return frozenset(
        b for b in closures.values()
        if all(len(closures[e]) == len(b) for e in b if e in closures)
    )


def maximal_configurations_within(pes: PES, block: frozenset[str]) -> frozenset[frozenset[str]]:
    """The maximal configurations contained in a downward-closed block:
    every configuration in it, grown one event at a time, then the
    maximal ones among them."""
    found: set[frozenset[str]] = set()
    pending = [frozenset()]
    while pending:
        current = pending.pop()
        if current in found:
            continue
        found.add(current)
        for e in sorted(block - current):
            if pes.down(e) - {e} <= current and not pes.rivals[e] & current:
                pending.append(current | {e})
    return frozenset(c for c in found if not any(c < d for d in found))


def cell_table(pes: PES, v: frozenset[str], tables: dict) -> tuple[tuple[frozenset[str], ...], ...]:
    """Per enabled branching cell of the future of v, in sorted order,
    its maximal configurations in sorted order; kept in ``tables`` by
    the future's event set, which may be shared across structures cut
    from one fully marked structure."""
    keep = pes.events.difference(v, *(pes.rivals[f] for f in v))
    table = tables.get(keep)
    if table is None:
        fut = restrict(pes, keep)
        table = tables[keep] = tuple(
            tuple(sorted(maximal_configurations_within(fut, cell), key=sorted))
            for cell in sorted(initial_stopping_prefixes(fut), key=sorted)
        )
    return table


def maximal_r_stopped(pes: PES, tables: dict) -> frozenset[frozenset[str]]:
    """The r-stopped configurations with an empty future, completing
    every enabled branching cell at once."""
    empty: frozenset[str] = frozenset()
    found, seen, pending = set(), {empty}, [empty]
    while pending:
        v = pending.pop()
        table = cell_table(pes, v, tables)
        if not table:
            found.add(v)
            continue
        for choice in product(*table):
            nxt = v.union(*choice)
            if nxt not in seen:
                seen.add(nxt)
                pending.append(nxt)
    return frozenset(found)


def play(term: Term, m: frozenset[str], outcomes: Callable, memo: dict) -> dict:
    """Weighted (configuration, final marking) pairs of a term under
    input m, where ``outcomes`` gives each constant's transactions with
    their weights; each subterm but a leaf is played once per input and
    kept in ``memo``."""
    if isinstance(term, Identity):
        return {(frozenset(), m): 1.0}
    if isinstance(term, Dead):
        return {(frozenset(), frozenset()): 1.0}
    out: dict = {}
    if isinstance(term, Constant):
        for proc, p in outcomes(term.key):
            key = (proc.transitions, proc.final_places)
            out[key] = out.get(key, 0.0) + p
        return out
    if (id(term), m) in memo:
        return memo[id(term), m]
    if isinstance(term, Par):
        left = play(term.left, m & typecheck(term.left).inputs, outcomes, memo)
        right = play(term.right, m & typecheck(term.right).inputs, outcomes, memo)
        for (v1, f1), p1 in left.items():
            for (v2, f2), p2 in right.items():
                key = (v1 | v2, f1 | f2)
                out[key] = out.get(key, 0.0) + p1 * p2
    elif isinstance(term, Seq):
        for (v1, f1), p1 in play(term.first, m, outcomes, memo).items():
            second = play(term.second, f1 & typecheck(term.second).inputs, outcomes, memo)
            for (v2, f2), p2 in second.items():
                key = (v1 | v2, f2)
                out[key] = out.get(key, 0.0) + p1 * p2
    else:
        out = play(term.branch(m), frozenset(), outcomes, memo)
    memo[id(term), m] = out
    return out

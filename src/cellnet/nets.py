"""Finite occurrence Petri nets: structural validation, bit indexes,
token-game firing, and maximal-process enumeration.
The graph passes that other modules share live here too: :func:`run`
for walks written as generators, :func:`topological_order` and the
strongly connected components of :func:`strong_components`.

Places and transitions are opaque strings living in disjoint namespaces.
All values are immutable after construction and every operation is a pure
function of its inputs, so nets can be shared freely across threads.
Each net numbers its nodes once, in a :class:`NetIndex`, so that a set
of nodes is an int (a bit mask).  The index is the one flow table a net
keeps: pre- and post-sets, validation, the initial and final places,
the cell finder, the compiler and the oracle all read its masks.  Each
:class:`Net` is checked once; a subnet derived from a checked net
(:func:`subnet_of`: an s-cell's, built when it is read) inherits that
check.
Set-valued results are deterministic: whenever an order is needed it is
the lexicographic order on identifiers.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import Any, Callable, Generator, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import NetError, OccurrenceError

PlaceId = str
TransitionId = str
NodeId = str

_R = TypeVar("_R")
_K = TypeVar("_K", bound=Hashable)
Walk = Generator[Any, Any, _R]  # a generator for run(), with result type _R


def run(walk: Walk[_R]) -> _R:
    """Run a walk: a generator that yields each sub-walk whose result it
    needs, receives that result, and returns its own.  Walks in progress
    wait on this function's list, not on Python's stack.

    A walk must not reach itself through a closure: a generator function
    nested in its caller that yields calls of itself refers to itself
    through its own closure cell, a reference cycle that keeps every
    table and memo it closes over alive until the cyclic garbage
    collector runs.  Write such a walk at module level, taking what it
    needs as arguments, so that reference counting frees it when
    :func:`run` returns."""
    path, result = [walk], None
    while path:
        try:
            sub = path[-1].send(result)
        except StopIteration as done:
            path.pop()
            result = done.value
        else:
            path.append(sub)
            result = None
    return result


def topological_order(succ: Mapping[_K, Iterable[_K]]) -> list[_K]:
    """The keys of a successor map in a topological order (Kahn's
    algorithm); keys on a cycle, or after one, are left out.  A
    successor listed twice waits for both arcs."""
    waiting = dict.fromkeys(succ, 0)
    for ys in succ.values():
        for y in ys:
            waiting[y] += 1
    ready = [x for x, n in waiting.items() if n == 0]
    order = []
    while ready:
        x = ready.pop()
        order.append(x)
        for y in succ[x]:
            waiting[y] -= 1
            if not waiting[y]:
                ready.append(y)
    return order


def strong_components(roots: Iterable[_K], successors: Callable[[_K], Iterable[_K]]) -> list[list[_K]]:
    """The strongly connected components of the graph reachable from
    ``roots``, each a list of its nodes (Tarjan's algorithm).  The pass
    is iterative: the depth-first path waits on a list, not on Python's
    stack."""
    index: dict[_K, int] = {}
    low: dict[_K, int] = {}
    stack: list[_K] = []
    on_stack: set[_K] = set()
    work: list[tuple[_K, Iterator[_K]]] = []  # the DFS path, with unvisited successors

    def visit(x: _K) -> None:
        index[x] = low[x] = len(index)
        stack.append(x)
        on_stack.add(x)
        work.append((x, iter(successors(x))))

    components = []
    for root in roots:
        if root not in index:
            visit(root)
        while work:
            x, pending = work[-1]
            for y in pending:
                if y not in index:
                    visit(y)
                    break
                if y in on_stack and index[y] < low[x]:
                    low[x] = index[y]
            else:
                work.pop()
                if work and low[x] < low[work[-1][0]]:
                    low[work[-1][0]] = low[x]
                if low[x] == index[x]:
                    component = []
                    while True:
                        y = stack.pop()
                        on_stack.discard(y)
                        component.append(y)
                        if y == x:
                            break
                    components.append(component)
    return components


class _Value:
    """Base of the immutable value classes.  A subclass lists its fields
    in ``_fields``, in constructor order, and its constructor sets each
    once, past the frozen ``__setattr__``: with ``object.__setattr__``
    in a class with ``__slots__``, in the instance ``__dict__`` in one
    without, where cached tables and stored types are kept too.  Two
    values are equal, and hash alike, when they are of one class with
    equal fields; the repr is ``Name(field=value, ...)``; assigning or
    deleting an attribute raises AttributeError; a copy or a pickle is
    rebuilt through the constructor.  Nothing here generates code, so
    defining a class costs no more than its body."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:  # the tuple of the fields, even for one field
            get = attrgetter(*cls._fields)
            cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._astuple(self)


class Net(_Value):
    """A Petri net (P, T, F) with F ⊆ (P×T) ∪ (T×P).

    Construction enforces basic well-formedness: non-empty identifiers,
    disjoint place/transition namespaces, flow endpoints that exist and
    alternate place/transition, and a non-empty pre-set for every
    transition.  The occurrence-net conditions (acyclicity, no backward
    conflicts, no self-conflicts) are checked separately by
    :func:`validate_occurrence` so that violations can be reported all
    at once.  Its index and the sets worked out from it are kept in its
    ``__dict__``; construction builds neither.
    """

    _fields = ("places", "transitions", "flow")

    def __init__(self, places: frozenset[PlaceId], transitions: frozenset[TransitionId],
                 flow: frozenset[tuple[NodeId, NodeId]]) -> None:
        places, transitions = frozenset(places), frozenset(transitions)
        flow = frozenset(tuple(arc) for arc in flow)
        self.__dict__.update(places=places, transitions=transitions, flow=flow)
        for x in places | transitions:
            if not isinstance(x, str) or not x:
                raise NetError(f"identifiers must be non-empty strings, got {x!r}")
        shared = places & transitions
        if shared:
            raise NetError(f"identifiers used both as place and transition: {sorted(shared)}")
        stray = [(src, dst) for src, dst in flow
                 if not (src in places and dst in transitions or src in transitions and dst in places)]
        if stray:  # the least, so that the message does not hang on the hash seed
            src, dst = min(stray, key=lambda arc: tuple(map(str, arc)))
            raise NetError(f"flow arc ({src!r}, {dst!r}) does not connect a known place and transition")
        unfed = transitions - {dst for _, dst in flow}
        if unfed:
            raise NetError(f"transition {min(unfed)!r} has an empty pre-set")

    @property
    def nodes(self) -> frozenset[NodeId]:
        return self.places | self.transitions

    def pre(self, x: NodeId) -> frozenset[NodeId]:
        """Pre-set •x."""
        return self._index.entry(self._index.pre, x)

    def post(self, x: NodeId) -> frozenset[NodeId]:
        """Post-set x•."""
        return self._index.entry(self._index.post, x)

    @cached_property
    def _index(self) -> "NetIndex":
        return NetIndex(self)

    @cached_property
    def _occurrence_report(self) -> "ValidationReport":
        # Kept, so a net is walked once however often it is checked;
        # validate_occurrence is looked up in the module at call time.
        return validate_occurrence(self)

    @cached_property
    def _min_places(self) -> frozenset[PlaceId]:
        return self._index.unlinked(self._index.pre)

    @cached_property
    def _max_places(self) -> frozenset[PlaceId]:
        return self._index.unlinked(self._index.post)

    @cached_property
    def _isolated_places(self) -> frozenset[PlaceId]:
        return self._min_places & self._max_places


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitIndex:
    """Bit i stands for ``order[i]``, and ``bit`` maps each name to its
    mask (given with the order, when another index has it already);
    ``names`` turns each mask into a frozenset once, through a cache of
    this index's own."""

    def __init__(self, order: Iterable[str], bit: dict[str, int] | None = None) -> None:
        self.order = tuple(order)
        self.bit = {x: 1 << i for i, x in enumerate(self.order)} if bit is None else bit
        self._names: dict[int, frozenset[str]] = {}

    def mask(self, xs: Iterable[str]) -> int:
        return sum(map(self.bit.__getitem__, xs))

    def names(self, mask: int) -> frozenset[str]:
        got = self._names.get(mask)
        if got is None:
            got = self._names[mask] = frozenset(map(self.order.__getitem__, bits(mask)))
        return got


class NetIndex(BitIndex):
    """A net's bit index: transitions take bits 0…T−1 in sorted order and
    places follow.  ``transitions`` and ``places`` mask each kind,
    ``pre[i]`` and ``post[i]`` are node i's pre- and post-set: the only
    flow table a :class:`Net` keeps.  ``flow`` lists the transitions in
    a topological order, leaving out those on a cycle or after one, and
    ``acyclic`` tells whether the flow has no cycle, both by Kahn's
    algorithm, a node waiting for one arc per member of its pre-set.
    ``neighbours`` holds per transition the consumers of its pre- and
    post-places, the arcs on which :func:`cells._blocks` finds cells.
    On an acyclic net, each per-transition table below is one pass in
    that order over its parents (the producers of its pre-places) or
    children (the consumers of its post-places): ``causes``, itself and
    its parents' causes; ``descendants``, itself and its children's, in
    reverse; ``rivals``, the descendants of the other consumers of each
    of its pre-places, and its parents' rivals.  So t ≤ u exactly when
    the flow leads from t to u, and t # u exactly when a cause of t and
    another cause of u share a pre-place."""

    def __init__(self, net: Net) -> None:
        transitions = sorted(net.transitions)
        super().__init__((*transitions, *sorted(net.places)))
        bit, count = self.bit, len(transitions)
        self.transitions, self.places = (1 << count) - 1, (1 << len(self.order)) - (1 << count)
        pre, post = [0] * len(self.order), [0] * len(self.order)
        for src, dst in net.flow:
            pre[bit[dst].bit_length() - 1] |= bit[src]
            post[bit[src].bit_length() - 1] |= bit[dst]
        waiting = [xs.bit_count() for xs in pre]
        ready = [x for x, n in enumerate(waiting) if not n]
        flow, done = [], 0
        while ready:
            x = ready.pop()
            done += 1
            if x < count:
                flow.append(x)
            successors = post[x]
            while successors:  # bits() inlined: a generator per node costs a third of the pass
                low = successors & -successors
                successors ^= low
                y = low.bit_length() - 1
                waiting[y] -= 1
                if not waiting[y]:
                    ready.append(y)
        self.pre, self.post, self.flow, self.acyclic = pre, post, flow, done == len(self.order)

    def entry(self, table: list[int], x: NodeId) -> frozenset[NodeId]:
        """The names in node x's entry of ``table``."""
        try:
            return self.names(table[self.bit[x].bit_length() - 1])
        except KeyError:
            raise NetError(f"unknown node {x!r}") from None

    def unlinked(self, table: list[int]) -> frozenset[PlaceId]:
        """The places whose entry in ``table`` is empty."""
        order = self.order
        return frozenset([order[i] for i in range(self.transitions.bit_length(), len(order)) if not table[i]])

    def _pass(self, flow: Iterable[int], table: list[int], own: list[int]) -> list[int]:
        """``own`` per transition, united with the entries of those two
        steps of ``table`` away, which ``flow`` visits first."""
        for t in flow:
            for p in bits(table[t]):
                for u in bits(table[p]):
                    own[t] |= own[u]
        return own

    @cached_property
    def neighbours(self) -> list[int]:
        pre, post, neighbours = self.pre, self.post, [0] * self.transitions.bit_length()
        for p in range(len(neighbours), len(self.order)):
            for t in bits(pre[p] | post[p]):
                neighbours[t] |= post[p]
        return neighbours

    @cached_property
    def causes(self) -> list[int]:
        return self._pass(self.flow, self.pre, [1 << t for t in bits(self.transitions)])

    @cached_property
    def descendants(self) -> list[int]:
        return self._pass(reversed(self.flow), self.post, [1 << t for t in bits(self.transitions)])

    @cached_property
    def rivals(self) -> list[int]:
        descendants = self.descendants
        direct = [0] * len(descendants)
        for consumers in self.post[len(descendants):]:  # the places'
            for u, v in combinations(bits(consumers), 2):
                direct[u] |= descendants[v]
                direct[v] |= descendants[u]
        return self._pass(self.flow, self.pre, direct)


class Violation(_Value):
    """One occurrence-condition violation, anchored at a node."""

    __slots__ = _fields = ("kind", "node", "detail")

    def __init__(self, kind: str, node: NodeId, detail: str) -> None:
        object.__setattr__(self, "kind", kind)  # "cycle" | "backward-conflict" | "self-conflict"
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "detail", detail)

    def __str__(self) -> str:
        return f"{self.kind} at {self.node}: {self.detail}"


class ValidationReport(_Value):
    __slots__ = _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]) -> None:
        object.__setattr__(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "\n".join(str(v) for v in self.violations)


def validate_occurrence(net: Net) -> ValidationReport:
    """Check the occurrence-net conditions, on the net's index.

    Reports one violation per offending node: nodes lying on a flow
    cycle, places with more than one producer (backward conflict), and
    self-conflicting transitions.  A transition is self-conflicting when
    two consumers of one place lie below it; one pass over the pairs of
    consumers of each place with several consumers finds them all, and
    keeps for each the least such pair as its witness.  Those pairs are
    read off the descendants of the index, which are worked out only
    for a net that has such a place.
    """
    index, violations = net._index, []
    order, pre, post = index.order, index.pre, index.post
    places = range(index.transitions.bit_length(), len(order))  # in sorted order
    if not index.acyclic:
        # F alternates places and transitions, so it has no loops: a node
        # lies on a cycle exactly when its component has another node.
        components = strong_components(range(len(order)), lambda x: bits(post[x]))
        for x in sorted(order[x] for c in components if len(c) > 1 for x in c):
            violations.append(Violation("cycle", x, "node lies on a flow cycle"))
    for p in places:
        if pre[p].bit_count() > 1:  # producers, in sorted order like all transitions
            producers = [order[t] for t in bits(pre[p])]
            violations.append(Violation("backward-conflict", order[p], f"multiple producers {producers}"))
    if index.acyclic and any(post[p].bit_count() > 1 for p in places):
        # Conflict is only meaningful on acyclic nets.  Bits number the
        # transitions in sorted order, so the least pair of bits is the least pair.
        descendants, witness = index.descendants, {}
        for p in places:
            for u, v in combinations(bits(post[p]), 2):
                for t in bits(descendants[u] & descendants[v]):
                    if t not in witness or (u, v) < witness[t]:
                        witness[t] = (u, v)
        for t in sorted(witness):
            u, v = witness[t]
            detail = f"conflicting causes {order[u]} #0 {order[v]}"
            violations.append(Violation("self-conflict", order[t], detail))
    return ValidationReport(tuple(violations))


def ensure_occurrence(net: Net) -> None:
    """Raise unless the net is an occurrence net.  The report is
    computed once per :class:`Net` object and kept on it."""
    report = net._occurrence_report
    if not report.ok:
        raise OccurrenceError(f"not an occurrence net:\n{report}")


def subnet_of(parent: Net, places: Iterable[PlaceId], transitions: Iterable[TransitionId]) -> Net:
    """A subnet of a checked occurrence net: some of its nodes, the whole
    pre-set of each transition among them, and the flow between them,
    read off the parent's pre- and post-sets.  It is acyclic, has a
    subset of each place's producers, and its conflicting causes
    conflict in the parent: an occurrence net, so it inherits the
    parent's report and is not checked again."""
    ensure_occurrence(parent)
    places, transitions = frozenset(places), frozenset(transitions)
    flow = [(p, t) for t in transitions for p in parent.pre(t)]
    sub = Net(places, transitions, flow + [(t, q) for t in transitions for q in parent.post(t) & places])
    sub.__dict__["_occurrence_report"] = parent._occurrence_report
    return sub


def min_places(net: Net) -> frozenset[PlaceId]:
    """Initial places: empty pre-set."""
    return net._min_places


def max_places(net: Net) -> frozenset[PlaceId]:
    """Final places: empty post-set."""
    return net._max_places


def isolated_places(net: Net) -> frozenset[PlaceId]:
    """Places that are both initial and final."""
    return net._isolated_places


def identity_net(places: Iterable[PlaceId]) -> "MarkedNet":
    """The identity net I_s: unmarked isolated places, no transitions."""
    return MarkedNet(Net(frozenset(places), frozenset(), frozenset()), frozenset())


class MarkedNet(_Value):
    """An occurrence net together with a subset of its initial,
    non-isolated places that already hold a token.

    The unmarked initial places form the input interface ``inputs``
    (tokens may arrive there from the context); the final places form
    the output interface.  Construction checks the marking, and the net
    unless that net was checked already or inherits its parent's check.
    """

    __slots__ = ("net", "marking", "inputs", "__weakref__")  # compile_net's memo holds nets weakly
    _fields = ("net", "marking")

    def __init__(self, net: Net, marking: frozenset[PlaceId] = frozenset()) -> None:
        marking = frozenset(marking)
        ensure_occurrence(net)
        initial = min_places(net)
        foreign = marking - net.places
        if foreign:
            raise OccurrenceError(f"marking mentions unknown places {sorted(foreign)}")
        not_initial = marking - initial
        if not_initial:
            raise OccurrenceError(f"marking mentions non-initial places {sorted(not_initial)}")
        lonely = marking & isolated_places(net)
        if lonely:
            raise OccurrenceError(f"marking mentions isolated places {sorted(lonely)}")
        object.__setattr__(self, "net", net)
        object.__setattr__(self, "marking", marking)
        object.__setattr__(self, "inputs", initial - marking)

    @property
    def outputs(self) -> frozenset[PlaceId]:
        """Final places (the output interface)."""
        return max_places(self.net)


def fire_at(net: Net, marking: frozenset[PlaceId], t: TransitionId) -> frozenset[PlaceId]:
    """The raw token game on any net: (m \\ •t) ∪ t• when •t ⊆ m."""
    if t not in net.transitions:
        raise NetError(f"unknown transition {t!r}")
    pre = net.pre(t)
    if not pre <= marking:
        missing = sorted(pre - marking)
        raise NetError(f"transition {t!r} not enabled: missing tokens in {missing}")
    return (marking - pre) | net.post(t)


def fire(marked: MarkedNet, t: TransitionId, marking: frozenset[PlaceId] | None = None) -> frozenset[PlaceId]:
    """Fire t at the given marking (default: the net's own marking) and
    return the successor marking."""
    return fire_at(marked.net, marked.marking if marking is None else marking, t)


class Process(_Value):
    """A deterministic process (transaction) written as its set of
    transitions, together with the interface places of the induced
    subnet.

    ``initial_places``/``final_places`` are the min/max places of the
    subnet spanned by the transitions; ``internal_places`` are produced
    and consumed within the process.
    """

    __slots__ = _fields = ("transitions", "initial_places", "final_places", "internal_places")

    def __init__(self, transitions: frozenset[TransitionId], initial_places: frozenset[PlaceId],
                 final_places: frozenset[PlaceId],
                 internal_places: frozenset[PlaceId] = frozenset()) -> None:
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "initial_places", initial_places)
        object.__setattr__(self, "final_places", final_places)
        object.__setattr__(self, "internal_places", internal_places)

    @property
    def nodes(self) -> frozenset[NodeId]:
        return self.transitions | self.initial_places | self.final_places | self.internal_places

    @property
    def label(self) -> str:
        """Canonical rendering of the transition set, used to key δ."""
        return ",".join(sorted(self.transitions))

    def sort_key(self) -> tuple[str, ...]:
        return tuple(sorted(self.transitions))


def enumerate_transactions(marked: MarkedNet) -> frozenset[Process]:
    """All maximal deterministic processes runnable from the marking.

    Requires every non-isolated initial place to be marked (the net is
    "fully marked"); isolated places carry no behaviour and are
    ignored.  Exploration is a memoised depth-first search over
    markings, so every interleaving of the same process collapses to a
    single transition set.
    """
    needed = min_places(marked.net) - isolated_places(marked.net)
    unmarked = needed - marked.marking
    if unmarked:
        raise OccurrenceError(f"unmarked initial place present: {sorted(unmarked)}")
    index = marked.net._index
    moves = [(1 << t, index.pre[t], index.post[t]) for t in bits(index.transitions)]
    runs = run(_completions(moves, index.mask(marked.marking), {}))
    return frozenset(_process_of(index.names, moves, fired, index.places) for fired in runs)


_Move = tuple[int, int, int]  # a transition, its pre-set and its post-set, as masks of one index


def _completions(moves: Sequence[_Move], m: int, memo: dict[int, frozenset[int]]) -> Walk[frozenset[int]]:
    """The transitions fired by each maximal run of ``moves`` from
    marking m; the result for each marking reached is kept in ``memo``,
    and a marking found there is not walked again."""
    runs = set()
    for t, pre, post in moves:
        if pre & m == pre:
            after = m & ~pre | post
            rests = memo.get(after)
            if rests is None:
                rests = yield _completions(moves, after, memo)
            for rest in rests:
                runs.add(rest | t)
    memo[m] = result = frozenset(runs or {0})
    return result


def _process_of(names: Callable[[int], frozenset[NodeId]], moves: Sequence[_Move], fired: int,
                final: int) -> Process:
    """The :class:`Process` of the ``fired`` moves, named by ``names``.  A
    place it ends on outside ``final`` is stranded: kept among its
    internal places, not its final ones."""
    consumed = produced = 0
    for t, pre, post in moves:
        if t & fired:
            consumed |= pre
            produced |= post
    ends, both = produced & ~consumed, produced & consumed
    return Process(names(fired), names(consumed & ~produced), names(ends & final), names(both | ends & ~final))

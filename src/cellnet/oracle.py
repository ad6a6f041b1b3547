"""Event-structure oracle for the compiled semantics.

What this module checks without the compiler is the configurations: it
builds the prime event structure of a marked net, its branching cells
(initial stopping prefixes of futures) and the recursively-stopped
configurations built by completing branching cells, and
:func:`check_correspondence` diffs those against the configurations the
compiled term admits.  The outcome distribution
(:func:`enumerate_outcome_distribution`, and
:func:`sample_outcome_distribution` by sampling) is not independent of
the compiler: it plays the compiled term with δ's weights, so it
checks the matrix backend's arithmetic but not the term.  A probability
oracle that never reads the term is open (ROADMAP.md, item 6).

The event structure is stored as two per-event tables, each event's
causes and its rivals (the events in conflict with it).  The searches
run on an index of them: events numbered in sorted order, so that a set
of events is an int (a bit mask), and per event its causes, rivals and
immediate conflicts as masks.  A structure of a net takes the tables of
the net's index (:class:`nets.NetIndex`) and builds its frozenset tables
only when they are read; one built by hand indexes its tables.

A check builds one structure, for the fully marked net.  Each subset of
arriving inputs keeps one mask of it: the events minus those each absent
input lies below.  That equals the structure of the net with those
inputs removed, because:

- a transition dies exactly when a dead input lies below it;
- paths between surviving transitions survive;
- two surviving conflicting transitions keep their shared pre-place.

The search for maximal r-stopped configurations rests on three more
facts:

- The branching cells enabled after a configuration are pairwise
  disjoint and compatible, so completions commute and
  :func:`maximal_r_stopped` completes every enabled cell in one step.
- The future of a configuration v is the mask ``live & ~v &
  ~rivals(v)``, with ``rivals(v)`` carried along as v grows.  Its
  causes and (immediate) conflicts are the index's cut down to it, as a
  cause it drops lies in v and no rival of v is in it.  So one check
  keeps each future's branching cells by its mask for all subsets.
- Inside a cell, a configuration is maximal exactly when no event of
  the cell extends it by one.
- A future holds every event between two of its own, so an event
  becomes minimal in a smaller future only after one it immediately
  follows leaves: a step carries the minimal events along at the cost
  of the events it drops.

The term player uses masks too, on the bits of the net's index, so in a
check one mask-to-frozenset cache serves both sides.
"""

from __future__ import annotations

import random
from functools import cached_property, reduce
from itertools import product
from operator import or_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .cells import _kills
from .compiler import compile_net
from .errors import CellnetError, DeltaError, NetError
from .kleisli import DeltaTable, Dist
from .nets import BitIndex, MarkedNet, NetIndex, PlaceId, Process, TransitionId, Walk, _Value, bits, run
from .terms import (
    Constant,
    ConstantKey,
    Dead,
    Identity,
    Par,
    Seq,
    Term,
    render_place_set,
    typecheck,
)

Configuration = frozenset[TransitionId]


class _Events(BitIndex):
    """A PES's tables over the numbering of ``index`` (with a
    mask-to-frozenset cache of the structure's own), as masks: ``all`` its
    events, and per event its causes (itself included), rivals and
    immediate conflicts, and ``after``, events that hold each it
    immediately precedes (by default all, so that a search scans each
    future for its minimal events).  Bits outside ``all`` may stand for
    other nodes: a search reads no table at them."""

    def __init__(self, index: BitIndex, events: int, causes: list[int], rivals: list[int],
                 after: list[int] | None = None) -> None:
        super().__init__(index.order, index.bit)
        self.all, self.causes, self.rivals = events, causes, rivals
        self.after = [events] * len(causes) if after is None else after
        # e #0 f exactly when e # f and no other cause of either conflicts
        # with the other: conflict is inherited along causality
        self.immediate = [
            sum(1 << j for j in bits(mine) if causes[j] & mine == 1 << j and causes[i] & rivals[j] == 1 << i)
            for i, mine in enumerate(rivals)
        ]

    def table(self, masks: list[int]) -> Mapping[str, frozenset[str]]:
        return MappingProxyType({self.order[i]: self.names(masks[i]) for i in bits(self.all)})


def _net_events(index: NetIndex, live: int) -> _Events:
    """The structure of a net cut down to the ``live`` events, a
    downward-closed mask: the net's own tables, with the rivals cut to
    ``live`` (a live event's causes are live), each transition followed
    by its children, the consumers of its post-places."""
    post = index.post
    children = [reduce(or_, map(post.__getitem__, bits(post[t])), 0) for t in bits(index.transitions)]
    return _Events(index, live, index.causes, [r & live for r in index.rivals], children)


class PES(_Value):
    """A prime event structure, stored as two read-only tables over its
    events: ``causes`` maps each event to its causes, itself included
    (the causality partial order), and ``rivals`` maps each event to the
    events in conflict with it.  Construction copies the tables and
    checks that conflict is irreflexive, symmetric and inherited along
    causality.  The searches' index (see the module docstring) is built
    on first use and kept in the ``__dict__``.  A structure that
    :func:`pes_of_net` builds starts from its index instead, and reads
    its events and tables off it when they are first read."""

    _fields = ("events", "causes", "rivals")

    def __init__(self, events: frozenset[TransitionId],
                 causes: Mapping[TransitionId, frozenset[TransitionId]],
                 rivals: Mapping[TransitionId, frozenset[TransitionId]]) -> None:
        self.__dict__.update(events=events, causes=MappingProxyType(dict(causes)),
                             rivals=MappingProxyType(dict(rivals)))
        if self.causes.keys() != self.events or self.rivals.keys() != self.events:
            raise NetError("causes and rivals must map exactly the events")
        conflicted = frozenset(e for e, rivals in self.rivals.items() if rivals)
        for e, rivals in self.rivals.items():
            causes = self.causes[e]
            if e not in causes or not causes <= self.events or not rivals <= self.events:
                raise NetError(f"the causes of {e} must be events including {e}, its rivals events")
            if e in rivals:
                raise NetError(f"conflict must be irreflexive, got {e} # {e}")
            for f in rivals:
                if e not in self.rivals[f]:
                    raise NetError(f"conflict must be symmetric, missing {f} # {e}")
            for x in causes & conflicted:
                if not self.rivals[x] <= rivals:
                    f = min(self.rivals[x] - rivals)
                    raise NetError(f"conflict not inherited: {f} # {x} ≼ {e} but not {f} # {e}")

    def __reduce__(self) -> tuple[type, tuple]:
        return PES, (self.events, dict(self.causes), dict(self.rivals))

    @cached_property
    def _index(self) -> _Events:
        index = BitIndex(sorted(self.events))
        return _Events(index, (1 << len(index.order)) - 1, [index.mask(self.causes[e]) for e in index.order],
                       [index.mask(self.rivals[e]) for e in index.order])

    @cached_property
    def events(self) -> frozenset[TransitionId]:
        return self._index.names(self._index.all)

    @cached_property
    def causes(self) -> Mapping[TransitionId, frozenset[TransitionId]]:
        return self._index.table(self._index.causes)

    @cached_property
    def rivals(self) -> Mapping[TransitionId, frozenset[TransitionId]]:
        return self._index.table(self._index.rivals)

    def down(self, e: TransitionId) -> frozenset[TransitionId]:
        return self.causes.get(e, frozenset())

    def in_conflict(self, e: TransitionId, f: TransitionId) -> bool:
        return f in self.rivals.get(e, ())

    def immediate_conflicts(self, e: TransitionId) -> frozenset[TransitionId]:
        """Events f with e #0 f: in conflict with e, but with every other
        pair of their causes compatible."""
        index = self._index
        bit = index.bit.get(e, 0) & index.all
        return index.names(index.immediate[bit.bit_length() - 1] if bit else 0)


def pes_of_net(marked: MarkedNet) -> PES:
    """The PES of a marked net: events are the transitions that can ever
    fire (those with no unmarked input place below them), causality is
    the flow order, and conflict is the shared-precondition relation
    inherited along causality.

    This is the fully marked net's PES restricted to those events; the
    module docstring says why the restriction is exact."""
    index = marked.net._index
    pes = object.__new__(PES)  # skips the check of the tables, which the net's flow implies
    pes.__dict__["_index"] = _net_events(index, index.transitions & ~_kills(index, index.transitions,
                                                                            index.mask(marked.inputs)))
    return pes


def _minimal(index: _Events, future: int) -> int:
    """The minimal events of a future, by a scan of its events."""
    causes = index.causes
    return sum(1 << i for i in bits(future) if causes[i] & future == 1 << i)


def _narrowed(index: _Events, future: int, minimal: int, narrower: int) -> int:
    """The minimal events of a future ``narrower`` inside ``future``,
    whose minimal events are ``minimal``: those it keeps, and those of
    the events after one it drops whose causes have all left it (see
    the module docstring)."""
    causes, after = index.causes, index.after
    woken = 0
    for i in bits(future & ~narrower):
        woken |= after[i]
    for j in bits(woken & narrower & ~minimal):
        if causes[j] & narrower == 1 << j:
            minimal |= 1 << j
    return minimal & narrower


def _stopping_prefixes(index: _Events, future: int, minimal: int) -> set[int]:
    """The initial stopping prefixes of a future, whose minimal events
    are ``minimal``: its minimal non-empty prefixes closed under
    immediate conflict.  Each is the closure of a minimal event under
    causes and immediate conflicts; two minimal closures are disjoint or
    equal, and any other closure holds a smaller one, so the smallest
    closures first, each kept unless it meets one kept already, are the
    minimal ones."""
    causes, immediate = index.causes, index.immediate
    closures = []
    for i in bits(minimal):
        block, pending = 1 << i, [i]
        while pending:
            j = pending.pop()
            grown = (causes[j] | immediate[j]) & future & ~block
            block |= grown
            pending.extend(bits(grown))
        closures.append(block)
    kept, covered = set(), 0
    for b in sorted(closures, key=int.bit_count):
        if not b & covered:
            kept.add(b)
            covered |= b
    return kept


def _maximal_within(index: _Events, future: int, cell: int) -> list[tuple[int, int]]:
    """The maximal configurations of a future inside one of its cells,
    each with its rivals, adding one enabled event at a time."""
    causes, rivals = index.causes, index.rivals
    found, seen, pending = [], {0}, [(0, 0)]
    while pending:
        c, r = pending.pop()
        stuck = True
        for i in bits(cell & ~c & ~r):
            if causes[i] & future & ~c == 1 << i:
                stuck = False
                grown = c | 1 << i
                if grown not in seen:
                    seen.add(grown)
                    pending.append((grown, r | rivals[i]))
        if stuck:
            found.append((c, r))
    return found


class RStopped(_Value):
    """One recursively-stopped configuration with a witnessing chain of
    branching-cell completions; ``maximal`` marks an empty future."""

    __slots__ = _fields = ("configuration", "chain", "maximal")

    def __init__(self, configuration: Configuration, chain: tuple[Configuration, ...],
                 maximal: bool) -> None:
        object.__setattr__(self, "configuration", configuration)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "maximal", maximal)


# Per enabled branching cell of a future, in sorted order, the ways to
# complete it: its maximal configurations in sorted order, each with its
# rivals, as masks.  Cell tables are kept by the mask of their future,
# with the future's minimal events.
CellTable = tuple[tuple[tuple[int, int], ...], ...]
Tables = dict[int, tuple[CellTable, int]]


def _cell_table(index: _Events, future: int, tables: Tables, parent: int | None = None) -> CellTable:
    """The cell table of a future, kept in ``tables`` by the future's
    mask (see the module docstring); empty exactly when the future is.
    Its minimal events are narrowed from those of ``parent``, a future
    around it kept already, or else found by a scan."""
    got = tables.get(future)
    if got is None:
        minimal = (_minimal(index, future) if parent is None
                   else _narrowed(index, parent, tables[parent][1], future))
        table = tuple(
            tuple(sorted(_maximal_within(index, future, cell), key=lambda way: tuple(bits(way[0]))))
            for cell in sorted(_stopping_prefixes(index, future, minimal), key=lambda cell: tuple(bits(cell)))
        )
        got = tables[future] = (table, minimal)
    return got[0]


def r_stopped_configs(pes: PES) -> dict[Configuration, RStopped]:
    """All recursively-stopped configurations, found by repeatedly
    completing one enabled branching cell, with each future's cells
    kept by its mask."""
    index, tables = pes._index, {}
    # per configuration: its chain, its rivals and whether it is maximal
    info = {0: ((), 0, not _cell_table(index, index.all, tables))}
    queue = [0]
    while queue:
        v = queue.pop()
        chain, rivals, _maximal = info[v]
        future = index.all & ~(v | rivals)
        for completions in _cell_table(index, future, tables):
            for w, more in completions:
                grown = v | w
                if grown not in info:
                    more |= rivals
                    maximal = not _cell_table(index, index.all & ~(grown | more), tables, future)
                    info[grown] = (chain + (w,), more, maximal)
                    queue.append(grown)
    names = index.names
    return {
        names(v): RStopped(names(v), tuple(map(names, chain)), maximal)
        for v, (chain, _rivals, maximal) in info.items()
    }


def maximal_r_stopped(pes: PES) -> frozenset[Configuration]:
    """The r-stopped configurations with an empty future, found by
    completing every enabled branching cell at once (see the module
    docstring for why this reaches the same ones as
    :func:`r_stopped_configs`)."""
    index = pes._index
    return frozenset(map(index.names, _maximal_r_stopped(index, index.all, {})))


def _maximal_r_stopped(index: _Events, live: int, tables: Tables) -> list[int]:
    """The maximal r-stopped configurations of the structure cut down
    to ``live``, a downward-closed mask."""
    found, seen = [], {0}
    pending: list[tuple[int, int, int | None]] = [(0, 0, None)]  # with the future each was grown in
    while pending:
        v, rivals, parent = pending.pop()
        future = live & ~(v | rivals)
        table = _cell_table(index, future, tables, parent)
        if not table:
            found.append(v)
            continue
        for choice in product(*table):
            grown, more = v, rivals
            for w, r in choice:
                grown |= w
                more |= r
            if grown not in seen:
                seen.add(grown)
                pending.append((grown, more, future))
    return found


# --------------------------------------------------------------------- #
# Configurations of a term
# --------------------------------------------------------------------- #

def _split_input(m: frozenset[str], ty_inputs: frozenset[str], where: str) -> None:
    stray = m - ty_inputs
    if stray:
        raise NetError(f"{where}: marking mentions non-input places {sorted(stray)}")


def conf_of_term(term: Term, m: Iterable[PlaceId]) -> frozenset[Configuration]:
    """The configurations a term admits when the input places ``m``
    receive tokens: constants contribute whole transactions, sums select
    the branch named by the arriving subset, sequential composition
    feeds each stage the final marking of the previous one."""
    m = frozenset(m)
    _split_input(m, typecheck(term).inputs, "conf_of_term")
    player = _Player(BitIndex(typecheck(term).nodes), _transactions)
    return frozenset(player.names(v) for v, _fin in _runs(term, player.mask(m), player, {}))


def _transactions(key: ConstantKey) -> Iterator[tuple[Process, float]]:
    return ((proc, 1.0) for proc in key.transactions)


# Weight per (configuration, final marking), both as masks.
Runs = dict[tuple[int, int], float]
# The runs of each subterm already played, by (id(subterm), input mask).
Memo = dict[tuple[int, int], Runs]


class _Player:
    """A bit index over (at least) a term's nodes, and the transactions
    with their weights that ``outcomes`` gives for each constant.  A
    compiled term's nodes are its net's, so it plays on the net's
    numbering."""

    def __init__(self, index: BitIndex,
                 outcomes: Callable[[ConstantKey], Iterable[tuple[Process, float]]]) -> None:
        self.mask, self.names, self.outcomes = index.mask, index.names, outcomes


def _known(term: Term, m: int, player: _Player, memo: Memo) -> Runs | None:
    """The runs of a subterm already played under input m, or of a leaf,
    played now; None otherwise.  Runs are never empty."""
    out = memo.get((id(term), m))
    if out is None:
        if isinstance(term, Constant):
            out, mask = {}, player.mask
            for proc, p in player.outcomes(term.key):
                pair = mask(proc.transitions), mask(proc.final_places)
                out[pair] = out.get(pair, 0.0) + p
        elif isinstance(term, (Identity, Dead)):
            out = {(0, m if isinstance(term, Identity) else 0): 1.0}
        else:
            return None
        memo[id(term), m] = out
    return out


def _runs(term: Term, m: int, player: _Player, memo: Memo) -> Runs:
    return _known(term, m, player, memo) or run(_play(term, m, player, memo))


def _play(term: Term, m: int, player: _Player, memo: Memo) -> Walk[Runs]:
    """Weighted (configuration, final marking) pairs of a +, ; or sum
    under input m.  The final marking mirrors the matrix semantics
    (identities pass their tokens through, constants emit exactly a
    transaction's final places); parallel parts multiply and sequential
    parts feed final markings forward.  Every subterm is played once
    per input and kept in ``memo``, which may serve many plays of one
    term when the player's outcomes are deterministic."""
    out: Runs = {}
    if isinstance(term, Par):
        m1 = m & player.mask(typecheck(term.left).inputs)
        m2 = m ^ m1  # m holds only inputs of this +
        runs1 = _known(term.left, m1, player, memo) or (yield _play(term.left, m1, player, memo))
        runs2 = _known(term.right, m2, player, memo) or (yield _play(term.right, m2, player, memo))
        for (v1, f1), p1 in runs1.items():
            for (v2, f2), p2 in runs2.items():
                key = (v1 | v2, f1 | f2)
                out[key] = out.get(key, 0.0) + p1 * p2
    elif isinstance(term, Seq):
        runs1 = _known(term.first, m, player, memo) or (yield _play(term.first, m, player, memo))
        for (v1, f1), p1 in runs1.items():  # f1 holds only outputs of the first, the second's inputs
            runs2 = _known(term.second, f1, player, memo) or (yield _play(term.second, f1, player, memo))
            for (v2, f2), p2 in runs2.items():
                key = (v1 | v2, f2)
                out[key] = out.get(key, 0.0) + p1 * p2
    else:  # callers typecheck, so this is a sum
        branch = term.branch(player.names(m))
        out = _known(branch, 0, player, memo) or (yield _play(branch, 0, player, memo))
    memo[id(term), m] = out
    return out


# --------------------------------------------------------------------- #
# Correspondence check
# --------------------------------------------------------------------- #

class CorrespondenceCase(_Value):
    __slots__ = _fields = ("arriving", "from_event_structure", "from_term")

    def __init__(self, arriving: frozenset[PlaceId], from_event_structure: frozenset[Configuration],
                 from_term: frozenset[Configuration]) -> None:
        object.__setattr__(self, "arriving", arriving)
        object.__setattr__(self, "from_event_structure", from_event_structure)
        object.__setattr__(self, "from_term", from_term)

    @property
    def ok(self) -> bool:
        return self.from_event_structure == self.from_term

    def __str__(self) -> str:
        label = render_place_set(self.arriving)
        if self.ok:
            count = len(self.from_term)
            return f"inputs {label}: OK ({count} maximal configuration(s))"
        only_ab = sorted(render_place_set(v) for v in self.from_event_structure - self.from_term)
        only_term = sorted(render_place_set(v) for v in self.from_term - self.from_event_structure)
        return (
            f"inputs {label}: MISMATCH "
            f"(only event structure: {only_ab}; only term: {only_term})"
        )


class CorrespondenceReport(_Value):
    __slots__ = _fields = ("cases",)

    def __init__(self, cases: tuple[CorrespondenceCase, ...]) -> None:
        object.__setattr__(self, "cases", cases)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def __str__(self) -> str:
        return "\n".join(str(case) for case in self.cases)


def check_correspondence(marked: MarkedNet) -> CorrespondenceReport:
    """For every subset j of the unmarked inputs, compare the maximal
    recursively-stopped configurations of the marked net extended with j
    against the configurations of the compiled term under j.

    One event structure serves every j (see the module docstring).
    Tokens arriving on isolated input places enable no events, so they
    change nothing there.  All subsets share the cell tables, the
    searches, the plays of each subterm and the mask-to-frozenset cache.
    """
    term, index = compile_net(marked), marked.net._index
    events = _net_events(index, index.transitions)
    player = _Player(events, _transactions)
    subsets = [(0, events.all)]  # (arriving, live) in subsets_lex order
    for p in bits(index.mask(marked.inputs)):
        below = _kills(index, index.transitions, 1 << p)
        subsets = [(arriving, live & ~below) for arriving, live in subsets] + [
            (arriving | 1 << p, live) for arriving, live in subsets]
    tables, memo, ends, cases = {}, {}, {}, []
    for arriving, live in subsets:
        if live not in ends:  # subsets that kill the same events share their search
            ends[live] = frozenset(map(events.names, _maximal_r_stopped(events, live, tables)))
        runs = _runs(term, arriving, player, memo)
        cases.append(CorrespondenceCase(events.names(arriving), ends[live],
                                        frozenset(events.names(v) for v, _fin in runs)))
    return CorrespondenceReport(tuple(cases))


# --------------------------------------------------------------------- #
# Exact outcome enumeration
# --------------------------------------------------------------------- #

class OutcomeDistribution(_Value):
    """Exact joint result of playing a compiled term: probability per
    (maximal configuration, final marking) pair, with both marginals."""

    __slots__ = _fields = ("joint", "markings", "configurations")

    def __init__(self, joint: Dist, markings: Dist, configurations: Dist) -> None:
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "markings", markings)
        object.__setattr__(self, "configurations", configurations)

    def place_marginal(self, place: PlaceId) -> float:
        return float(
            sum(p for marking, p in self.markings.items() if place in marking)
        )


def enumerate_outcome_distribution(
    marked: MarkedNet,
    delta: DeltaTable,
    inputs: Iterable[PlaceId] | None = None,
) -> OutcomeDistribution:
    """Evaluate the compiled term operationally, with exact arithmetic
    over δ: constants expand to their transactions, sums branch on the
    tokens that actually arrive, parallel parts multiply, sequential
    parts feed final markings forward.  Defaults to all inputs marked."""
    term = compile_net(marked)
    ty = typecheck(term)
    arriving = ty.inputs if inputs is None else frozenset(inputs)
    _split_input(arriving, ty.inputs, "enumerate_outcome_distribution")

    def weighted(key: ConstantKey) -> Iterator[tuple[Process, float]]:
        dist = delta.distribution_for(key)
        # sorted so that float accumulation is reproducible across runs
        for proc in sorted(key.transactions, key=lambda p: p.sort_key()):
            p = dist.prob(proc.transitions)
            if p > 0:
                yield proc, p

    player = _Player(BitIndex(marked.net._index.order, marked.net._index.bit), weighted)
    runs = _runs(term, player.mask(arriving), player, {})
    weights = {(player.names(v), player.names(f)): p for (v, f), p in runs.items()}
    joint = Dist(weights)
    markings: dict[frozenset[str], float] = {}
    configs: dict[Configuration, float] = {}
    for (config, marking), p in weights.items():
        markings[marking] = markings.get(marking, 0.0) + p
        configs[config] = configs.get(config, 0.0) + p
    return OutcomeDistribution(joint, Dist(markings), Dist(configs))


class SampleSummary(_Value):
    """Monte-Carlo estimate of the outcome distribution for nets too
    large to enumerate exactly."""

    __slots__ = _fields = ("samples", "seed", "marking_counts")

    def __init__(self, samples: int, seed: int, marking_counts: Mapping[frozenset[str], int]) -> None:
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "marking_counts", marking_counts)

    def place_marginal(self, place: PlaceId) -> float:
        hits = sum(c for marking, c in self.marking_counts.items() if place in marking)
        return hits / self.samples


def sample_outcome_distribution(
    marked: MarkedNet,
    delta: DeltaTable,
    samples: int,
    seed: int = 0,
    inputs: Iterable[PlaceId] | None = None,
) -> SampleSummary:
    """Seeded sampling variant of :func:`enumerate_outcome_distribution`."""
    if samples <= 0:
        raise CellnetError("sample count must be positive")
    term = compile_net(marked)
    ty = typecheck(term)
    arriving = ty.inputs if inputs is None else frozenset(inputs)
    _split_input(arriving, ty.inputs, "sample_outcome_distribution")
    rng = random.Random(seed)
    counts: dict[frozenset[str], int] = {}

    def draw(key: ConstantKey) -> list[tuple[Process, float]]:
        dist = delta.distribution_for(key)
        outcomes = sorted(dist.items(), key=lambda kv: sorted(kv[0]))
        pick = rng.random()
        acc = 0.0
        chosen = outcomes[-1][0]
        for outcome, p in outcomes:
            acc += p
            if pick < acc:
                chosen = outcome
                break
        for proc in key.transactions:
            if proc.transitions == chosen:
                return [(proc, 1.0)]
        raise DeltaError(f"sampled unknown transaction {sorted(chosen)}")

    player = _Player(BitIndex(marked.net._index.order, marked.net._index.bit), draw)
    for _ in range(samples):
        ((_config, outcome),) = _runs(term, player.mask(arriving), player, {})
        counts[player.names(outcome)] = counts.get(player.names(outcome), 0) + 1
    return SampleSummary(samples, seed, counts)

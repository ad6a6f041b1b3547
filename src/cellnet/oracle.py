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
oracle that never reads the term is open (ROADMAP.md, item 3).

The event structure is stored as two per-event tables, each event's
causes and its rivals (the events in conflict with it).  It is built
once per net, for the fully marked net, and restricted for each subset
of inputs that receive tokens to the events with no input outside the
subset below them; a restriction cuts both tables down to the kept
events.  The restriction
equals the structure of the net with those inputs removed, because:

- a transition dies exactly when a dead input lies below it;
- paths between surviving transitions survive;
- two surviving conflicting transitions keep their shared pre-place.

The search for maximal r-stopped configurations rests on two more
facts:

- The branching cells enabled after a configuration are pairwise
  disjoint and compatible: an event in conflict with a cell lies above
  one of its events.  Completing one cell leaves the others enabled and
  unchanged, so completions commute, and :func:`maximal_r_stopped`
  completes every enabled cell in one step.
- A future is determined by its event set.  Every future built here is
  the fully marked structure restricted to a set that holds every cause
  outside the configuration, so its causes, conflicts and immediate
  conflicts are that structure's tables cut down to the set.  One check
  therefore keeps each future's branching cells by event set and shares
  them across all input subsets.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .compiler import compile_net
from .errors import CellnetError, DeltaError, NetError
from .kleisli import DeltaTable, Dist
from .nets import MarkedNet, Net, PlaceId, Process, TransitionId, Walk, _Value, dependents, run
from .terms import (
    Constant,
    ConstantKey,
    Dead,
    Identity,
    Par,
    Seq,
    Sum,
    Term,
    render_place_set,
    subsets_lex,
    typecheck,
)

Configuration = frozenset[TransitionId]


class PES(_Value):
    """A prime event structure, stored as two tables over its events:
    ``causes`` maps each event to its causes, itself included (the
    causality partial order), and ``rivals`` maps each event to the
    events in conflict with it.  Construction checks that conflict is
    irreflexive, symmetric and inherited along causality.  Immediate
    conflicts are indexed once per structure, on first use, and kept in
    its ``__dict__``."""

    _fields = ("events", "causes", "rivals")

    def __init__(self, events: frozenset[TransitionId],
                 causes: Mapping[TransitionId, frozenset[TransitionId]],
                 rivals: Mapping[TransitionId, frozenset[TransitionId]]) -> None:
        self.__dict__.update(events=events, causes=causes, rivals=rivals)
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

    @cached_property
    def _immediate(self) -> dict[TransitionId, frozenset[TransitionId]]:
        # e #0 f exactly when, for every cause x of e, the rivals of x
        # below f are {f} if x = e and none otherwise.
        none: frozenset[TransitionId] = frozenset()
        return {
            e: frozenset(
                f
                for f in rivals
                if all(
                    self.rivals[x] & self.causes[f] == ({f} if x == e else none)
                    for x in self.causes[e]
                )
            )
            for e, rivals in self.rivals.items()
        }

    def down(self, e: TransitionId) -> frozenset[TransitionId]:
        return self.causes.get(e, frozenset())

    def in_conflict(self, e: TransitionId, f: TransitionId) -> bool:
        return f in self.rivals.get(e, ())

    def immediate_conflicts(self, e: TransitionId) -> frozenset[TransitionId]:
        """Events f with e #0 f: in conflict with e, but with every other
        pair of their causes compatible."""
        return self._immediate.get(e, frozenset())

    def is_configuration(self, v: Iterable[TransitionId]) -> bool:
        v = frozenset(v)
        if not v <= self.events:
            return False
        return all(self.causes[e] <= v and not self.rivals[e] & v for e in v)

    def restrict(self, keep: frozenset[TransitionId]) -> PES:
        """The sub-structure on the events in ``keep``: this structure's
        tables cut down to them, checked again on construction.

        Immediate conflict survives the cut when every cause dropped
        from below a kept event conflicts with nothing kept, as in a
        downward-closed set or the events of a future."""
        keep = self.events & keep
        sub = PES(
            keep,
            {e: self.causes[e] & keep for e in keep},
            {e: self.rivals[e] & keep for e in keep},
        )
        sub.__dict__["_immediate"] = {
            e: fs & keep for e, fs in self._immediate.items() if e in keep
        }
        return sub


def _net_pes(net: Net) -> PES:
    """The PES of the net with every initial place marked: every
    transition is an event, causality is the flow order, and conflict
    is the shared-precondition relation inherited along causality."""
    events = net.transitions
    above = {t: net._descendants[t] & events for t in events}
    causes: dict[TransitionId, set[TransitionId]] = {t: set() for t in events}
    rivals: dict[TransitionId, set[TransitionId]] = {t: set() for t in events}
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


def _live_events(net: Net, dead: frozenset[PlaceId]) -> frozenset[TransitionId]:
    """The transitions with none of the ``dead`` initial places below
    them: exactly the ones that stay fireable when those places never
    receive a token."""
    return net.transitions - dependents(net, dead)


def pes_of_net(marked: MarkedNet) -> PES:
    """The PES of a marked net: events are the transitions that can ever
    fire (those with no unmarked input place below them), causality is
    the flow order, and conflict is the shared-precondition relation
    inherited along causality.

    This is the fully marked net's PES restricted to those events; the
    module docstring says why the restriction is exact."""
    whole = _net_pes(marked.net)
    return whole.restrict(_live_events(marked.net, marked.inputs))


def _future_events(pes: PES, v: Configuration) -> frozenset[TransitionId]:
    return pes.events.difference(v, *(pes.rivals[f] for f in v))


def future(pes: PES, v: Iterable[TransitionId]) -> PES:
    """The events executable after configuration v: outside v and
    compatible with all of it."""
    v = frozenset(v)
    if not pes.is_configuration(v):
        raise NetError(f"{sorted(v)} is not a configuration")
    return pes.restrict(_future_events(pes, v))


def initial_stopping_prefixes(pes: PES) -> frozenset[frozenset[TransitionId]]:
    """Minimal non-empty prefixes closed under immediate conflict.

    Such a prefix holds a minimal event (one with no cause but itself)
    and is that event's closure under causes and immediate conflicts, so
    it suffices to close the minimal events and keep the minimal
    results.  A closure holds the closure of each minimal event in it,
    so it is minimal exactly when those are all as large as it is.
    """
    closures: dict[TransitionId, frozenset[TransitionId]] = {}
    for seed in pes.events:
        if pes.down(seed) <= {seed}:
            block, pending = {seed}, [seed]
            while pending:
                e = pending.pop()
                extra = (pes.down(e) | pes.immediate_conflicts(e)) - block
                block |= extra
                pending.extend(extra)
            closures[seed] = frozenset(block)
    return frozenset(
        b for b in closures.values()
        if all(len(closures[e]) == len(b) for e in b if e in closures)
    )


def _maximal_configurations_within(pes: PES, block: frozenset[TransitionId]) -> frozenset[Configuration]:
    """The maximal configurations contained in a downward-closed block."""
    found: set[Configuration] = set()
    run(_grow(pes, sorted(block), found, frozenset()))
    return frozenset(c for c in found if not any(c < d for d in found))


def _grow(pes: PES, ordered: list[TransitionId], found: set[Configuration],
          current: Configuration) -> Walk[None]:
    """Add to ``found`` every configuration that extends ``current`` by
    events of ``ordered``."""
    found.add(current)
    for e in ordered:
        if e in current:
            continue
        if not pes.down(e) - {e} <= current:
            continue
        if pes.rivals[e] & current:
            continue
        nxt = current | {e}
        if nxt not in found:
            yield _grow(pes, ordered, found, nxt)


class RStopped(_Value):
    """One recursively-stopped configuration with a witnessing chain of
    branching-cell completions; ``maximal`` marks an empty future."""

    __slots__ = _fields = ("configuration", "chain", "maximal")

    def __init__(self, configuration: Configuration, chain: tuple[Configuration, ...],
                 maximal: bool) -> None:
        object.__setattr__(self, "configuration", configuration)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "maximal", maximal)


# Per enabled branching cell of a future, in sorted order, the cell's
# maximal configurations in sorted order: the ways to complete it.
CellTable = tuple[tuple[Configuration, ...], ...]
# Cell tables by the event set of their future.
CellTables = dict[frozenset[TransitionId], CellTable]


def _cell_table(pes: PES, v: Configuration, tables: CellTables) -> CellTable:
    """The cell table of the future of v, kept in ``tables`` by the
    future's event set (see the module docstring); empty exactly when
    the future is."""
    keep = _future_events(pes, v)
    table = tables.get(keep)
    if table is None:
        fut = pes if keep == pes.events else pes.restrict(keep)
        table = tables[keep] = tuple(
            tuple(sorted(_maximal_configurations_within(fut, cell), key=sorted))
            for cell in sorted(initial_stopping_prefixes(fut), key=sorted)
        )
    return table


def r_stopped_configs(pes: PES) -> dict[Configuration, RStopped]:
    """All recursively-stopped configurations, found by repeatedly
    completing one enabled branching cell.  Futures are built once per
    event set, which keeps the search polynomial in the number of
    r-stopped configurations at desk scale."""
    tables: CellTables = {}
    empty: Configuration = frozenset()
    info = {empty: RStopped(empty, (), not _cell_table(pes, empty, tables))}
    queue = [empty]
    while queue:
        v = queue.pop()
        for completions in _cell_table(pes, v, tables):
            for w in completions:
                nxt = v | w
                if nxt not in info:
                    maximal = not _cell_table(pes, nxt, tables)
                    info[nxt] = RStopped(nxt, info[v].chain + (w,), maximal)
                    queue.append(nxt)
    return info


def maximal_r_stopped(pes: PES) -> frozenset[Configuration]:
    """The r-stopped configurations with an empty future, found by
    completing every enabled branching cell at once (see the module
    docstring for why this reaches the same ones as
    :func:`r_stopped_configs`)."""
    return _maximal_r_stopped(pes, {})


def _maximal_r_stopped(pes: PES, tables: CellTables) -> frozenset[Configuration]:
    empty: Configuration = frozenset()
    found, seen, pending = set(), {empty}, [empty]
    while pending:
        v = pending.pop()
        table = _cell_table(pes, v, tables)
        if not table:
            found.add(v)
            continue
        for choice in product(*table):
            nxt = v.union(*choice)
            if nxt not in seen:
                seen.add(nxt)
                pending.append(nxt)
    return frozenset(found)


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
    return _conf_of_term(term, frozenset(m), {})


def _conf_of_term(term: Term, m: frozenset[PlaceId], memo: Memo) -> frozenset[Configuration]:
    _split_input(m, typecheck(term).inputs, "conf_of_term")
    runs = run(_play(term, m, _transactions, memo))
    return frozenset(v for v, _fin in runs)


def _transactions(key: ConstantKey) -> Iterator[tuple[Process, float]]:
    return ((proc, 1.0) for proc in key.transactions)


Runs = dict[tuple[Configuration, frozenset[str]], float]
# The runs of each subterm already played, by (id(subterm), input).
Memo = dict[tuple[int, frozenset[str]], Runs]


def _play(
    term: Term,
    m: frozenset[str],
    outcomes: Callable[[ConstantKey], Iterable[tuple[Process, float]]],
    memo: Memo,
) -> Walk[Runs]:
    """Weighted (configuration, final marking) pairs of a term under
    input m, where ``outcomes`` says which transactions, with which
    weights, each constant yields.  The final marking mirrors the matrix
    semantics (identities pass their tokens through, constants emit
    exactly a transaction's final places); parallel parts multiply and
    sequential parts feed final markings forward.  Leaves are played by
    :func:`_leaf_runs`, without a walk of their own; every other subterm
    is played once per input and kept in ``memo``, which may serve many
    plays of one term when ``outcomes`` is deterministic."""

    def known(sub: Term, m: frozenset[str]) -> Runs | None:
        return _leaf_runs(sub, m, outcomes) or memo.get((id(sub), m))

    out: Runs = {}
    if isinstance(term, Par):
        m1, m2 = m & typecheck(term.left).inputs, m & typecheck(term.right).inputs
        left = known(term.left, m1) or (yield _play(term.left, m1, outcomes, memo))
        right = known(term.right, m2) or (yield _play(term.right, m2, outcomes, memo))
        for (v1, f1), p1 in left.items():
            for (v2, f2), p2 in right.items():
                key = (v1 | v2, f1 | f2)
                out[key] = out.get(key, 0.0) + p1 * p2
    elif isinstance(term, Seq):
        t2 = typecheck(term.second)
        first = known(term.first, m) or (yield _play(term.first, m, outcomes, memo))
        for (v1, f1), p1 in first.items():
            m2 = f1 & t2.inputs
            second = known(term.second, m2) or (yield _play(term.second, m2, outcomes, memo))
            for (v2, f2), p2 in second.items():
                key = (v1 | v2, f2)
                out[key] = out.get(key, 0.0) + p1 * p2
    elif isinstance(term, Sum):
        branch = term.branch(m)
        out = known(branch, frozenset()) or (yield _play(branch, frozenset(), outcomes, memo))
    else:
        return _leaf_runs(term, m, outcomes)  # callers typecheck, so this is a leaf
    memo[id(term), m] = out
    return out


def _leaf_runs(
    term: Term,
    m: frozenset[str],
    outcomes: Callable[[ConstantKey], Iterable[tuple[Process, float]]],
) -> Runs | None:
    """The runs of an identity, a dead wire or a constant, which are
    never empty (δ gives some transaction of each constant a positive
    weight); None for any other term."""
    if isinstance(term, Identity):
        return {(frozenset(), m): 1.0}
    if isinstance(term, Dead):
        return {(frozenset(), frozenset()): 1.0}
    if not isinstance(term, Constant):
        return None
    out: Runs = {}
    for proc, p in outcomes(term.key):
        key = (proc.transitions, proc.final_places)
        out[key] = out.get(key, 0.0) + p
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

    The event structure is built once, for the fully marked net, and
    restricted for each j to the events with no input outside j below
    them (see :func:`pes_of_net`).  Tokens arriving on isolated input
    places enable no events, so they change nothing there.  All subsets
    share one table of branching cells per future event set and one
    play of each subterm per input.
    """
    term = compile_net(marked)
    whole = _net_pes(marked.net)
    tables: CellTables = {}
    memo: Memo = {}
    cases = []
    for arriving in subsets_lex(marked.inputs):
        live = _live_events(marked.net, marked.inputs - arriving)
        ab = _maximal_r_stopped(whole.restrict(live), tables)
        tv = _conf_of_term(term, arriving, memo)
        cases.append(CorrespondenceCase(arriving, ab, tv))
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

    weights = run(_play(term, arriving, weighted, {}))
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

    for _ in range(samples):
        ((_config, outcome),) = run(_play(term, arriving, draw, {}))
        counts[outcome] = counts.get(outcome, 0) + 1
    return SampleSummary(samples, seed, counts)

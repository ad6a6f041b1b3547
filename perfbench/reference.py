"""Reference computations for the benchmark's checks.

Nothing here imports ``cellnet``.  The token game and the closed forms
work from the generated net documents and δ values alone; the
structural checks are properties every correct compiler output has.
Each check raises :class:`CheckFailed` with a message naming what
disagreed.  Probabilities are compared within ``TOL``.
"""

from __future__ import annotations

TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual: float, expected: float, what: str) -> None:
    require(abs(actual - expected) <= TOL, f"{what}: got {actual!r}, expected {expected!r}")


# --------------------------------------------------------------------- #
# Token game
# --------------------------------------------------------------------- #

class TokenGame:
    """The firing rule on a net document, explored with stubborn sets.

    ``terminal_states(marking)`` returns every (fired transitions,
    final marking) pair that some maximal firing sequence reaches.  At
    each state only the enabled members of one stubborn set are fired:
    the closure of a seed transition under "an enabled member brings
    every transition sharing one of its pre-places" and "a disabled
    member brings every producer of one of its unmarked pre-places".
    Any maximal sequence can be reordered to start with such a member
    without changing its transition set or final marking, so no terminal
    state is lost while interleavings of independent choices are.
    """

    def __init__(self, doc: dict) -> None:
        self.pre = {t["id"]: frozenset(t["pre"]) for t in doc["transitions"]}
        self.post = {t["id"]: frozenset(t["post"]) for t in doc["transitions"]}
        self.order = sorted(self.pre)
        self.consumers: dict[str, list[str]] = {p: [] for p in doc["places"]}
        self.producers: dict[str, list[str]] = {p: [] for p in doc["places"]}
        for t in self.order:
            for p in self.pre[t]:
                self.consumers[p].append(t)
            for p in self.post[t]:
                self.producers[p].append(t)
        self.initial = frozenset(doc["marking"])
        self.finals = frozenset(p for p, ts in self.consumers.items() if not ts)
        self.inputs = inputs_of(doc)

    def _stubborn(self, marking: frozenset[str], enabled: list[str]) -> list[str]:
        best = enabled
        for seed in enabled:
            members = {seed}
            stack = [seed]
            while stack:
                t = stack.pop()
                if self.pre[t] <= marking:
                    grow = [u for p in self.pre[t] for u in self.consumers[p]]
                else:
                    empty = min(p for p in self.pre[t] if p not in marking)
                    grow = self.producers[empty]
                for u in grow:
                    if u not in members:
                        members.add(u)
                        stack.append(u)
            chosen = [t for t in enabled if t in members]
            if len(chosen) < len(best):
                best = chosen
                if len(best) == 1:
                    break
        return best

    def terminal_states(self, marking: frozenset[str]) -> set[tuple[frozenset[str], frozenset[str]]]:
        found: set[tuple[frozenset[str], frozenset[str]]] = set()
        seen: set[frozenset[str]] = set()
        stack = [(frozenset(), frozenset(marking))]
        while stack:
            fired, m = stack.pop()
            if fired in seen:
                continue
            seen.add(fired)
            enabled = [t for t in self.order if t not in fired and self.pre[t] <= m]
            if not enabled:
                found.add((fired, m))
                continue
            for t in self._stubborn(m, enabled):
                stack.append((fired | {t}, (m - self.pre[t]) | self.post[t]))
        return found

    def outcomes(self) -> tuple[dict, dict]:
        """For every subset of the unmarked initial places arriving on
        top of the marking: the transition sets of the maximal runs, and
        the terminal markings restricted to the final places (tokens
        stranded on places that still have consumers are not outputs)."""
        runs, supports = {}, {}
        for arriving in subsets(self.inputs):
            states = self.terminal_states(self.initial | arriving)
            runs[arriving] = frozenset(f for f, _ in states)
            supports[arriving] = frozenset(m & self.finals for _, m in states)
        return runs, supports


def inputs_of(doc: dict) -> list[str]:
    """Unmarked initial places: the places no transition produces,
    isolated ones included, minus the marking."""
    produced = {p for t in doc["transitions"] for p in t["post"]}
    marked = set(doc["marking"])
    return sorted(p for p in doc["places"] if p not in produced and p not in marked)


def subsets(places: list[str]) -> list[frozenset[str]]:
    return [
        frozenset(p for bit, p in enumerate(places) if k >> bit & 1)
        for k in range(1 << len(places))
    ]


def check_supports(expected: dict[frozenset[str], frozenset[frozenset[str]]],
                   rows: dict[frozenset[str], frozenset[frozenset[str]]],
                   outputs: frozenset[str], finals: frozenset[str], what: str) -> int:
    """``rows`` maps each input subset to the output subsets its matrix
    row gives positive mass; each must equal ``expected``, the token
    game's terminal markings restricted to the final places.  Returns
    the number of rows compared."""
    require(outputs == finals, f"{what}: outputs {sorted(outputs)} are not the final places")
    require(rows.keys() == expected.keys(), f"{what}: matrix rows are not the input subsets")
    for arriving, support in rows.items():
        require(
            support == expected[arriving],
            f"{what}: row {sorted(arriving)} has support {sorted(map(sorted, support))}, "
            f"token game reaches {sorted(map(sorted, expected[arriving]))}",
        )
    return len(rows)


# --------------------------------------------------------------------- #
# Closed forms of the dense shapes
# --------------------------------------------------------------------- #

def copies_marginal_7(pa: float, pc: float, pf: float, one_marked: bool) -> float:
    """P(token at 7) in three_cells: e fires unless f wins, and f needs
    a (so a token at 1), c and then f's own choice."""
    return 1.0 - pa * pc * pf if one_marked else 1.0


def copies_posterior_1(pa: float, pc: float, pf: float) -> float:
    """P(token at 1 | token at 7) under a uniform prior on 1."""
    p = pa * pc * pf
    return (1.0 - p) / (2.0 - p)


def chain_marginals(pa: list[float], pc: list[float], first_marked: bool) -> tuple[list[float], float]:
    """Per confusion net i: P(6_i) = u_i·pa_i·(1−pc_i) where u_i is the
    probability of a token at 1_i, and u_{i+1} = 1 − P(6_i) because c_i
    refills 1_{i+1} exactly when d_i did not fire.  Returns the P(6_i)
    and P(5) = u_n."""
    u = 1.0 if first_marked else 0.0
    six = []
    for a, c in zip(pa, pc):
        p6 = u * a * (1.0 - c)
        six.append(p6)
        u = 1.0 - p6
    return six, u


# --------------------------------------------------------------------- #
# Structural properties
# --------------------------------------------------------------------- #

def fold(tree) -> tuple[set, set, set, set]:
    """Recompose a composition tree given as plain data: ``("cell",
    places, transitions, flow, marking)``, ``("id", places)``, ``("par",
    [children])`` or ``("seq", first, second)``.  Parallel parts must be
    node-disjoint; sequential parts may share exactly the first part's
    final places, which must be the second part's unmarked initial
    places.  Returns (places, transitions, flow, marking)."""
    kind = tree[0]
    if kind == "cell":
        return set(tree[1]), set(tree[2]), set(tree[3]), set(tree[4])
    if kind == "id":
        return set(tree[1]), set(), set(), set()
    if kind == "par":
        acc = (set(), set(), set(), set())
        for child in tree[1]:
            part = fold(child)
            require(not (acc[0] | acc[1]) & (part[0] | part[1]), "parallel parts share nodes")
            acc = tuple(a | b for a, b in zip(acc, part))
        return acc
    if kind == "seq":
        first, second = fold(tree[1]), fold(tree[2])
        _, outs = _ends(first)
        ins, _ = _ends(second)
        require(outs == ins, "sequential parts do not meet on one interface")
        require((first[0] | first[1]) & (second[0] | second[1]) == outs,
                "sequential parts share nodes beyond the interface")
        return tuple(a | b for a, b in zip(first, second))
    raise CheckFailed(f"not a composition tree node: {kind!r}")


def count_cells(tree) -> int:
    """Cell leaves of a plain composition tree (see ``fold``)."""
    if tree[0] == "par":
        return sum(count_cells(child) for child in tree[1])
    if tree[0] == "seq":
        return count_cells(tree[1]) + count_cells(tree[2])
    return 1 if tree[0] == "cell" else 0


def _ends(part) -> tuple[set, set]:
    places, _, flow, marking = part
    produced = {dst for _, dst in flow}
    consumed = {src for src, _ in flow}
    return {p for p in places if p not in produced} - marking, {p for p in places if p not in consumed}


def same_net(folded: tuple, doc: dict, what: str) -> None:
    """``folded`` is (places, transitions, flow, marking) as sets; it
    must be exactly the generated document."""
    places, transitions, flow, marking = folded
    want_flow = set()
    for t in doc["transitions"]:
        want_flow |= {(p, t["id"]) for p in t["pre"]}
        want_flow |= {(t["id"], p) for p in t["post"]}
    require(set(places) == set(doc["places"]), f"{what}: places differ")
    require(set(transitions) == {t["id"] for t in doc["transitions"]}, f"{what}: transitions differ")
    require(set(flow) == want_flow, f"{what}: flow differs")
    require(set(marking) == set(doc["marking"]), f"{what}: marking differs")


def interface(doc: dict) -> tuple[frozenset[str], frozenset[str]]:
    """(unmarked initial places, final places) of a net document."""
    consumed = {p for t in doc["transitions"] for p in t["pre"]}
    return frozenset(inputs_of(doc)), frozenset(p for p in doc["places"] if p not in consumed)

"""Shared fixtures: the two example nets, δ builders, and a seeded
random-net generator used by the property suites."""

from __future__ import annotations

import random

import pytest

from cellnet import (
    DeltaTable,
    Dist,
    MarkedNet,
    Net,
    compile_net,
    constants_of,
    uniform_dist,
    validate_occurrence,
)

fs = frozenset


def build_three_cell_net() -> MarkedNet:
    """Ten places, eight transitions, three cells; marking {2,3}.

    Layout: place 1 feeds the a/b choice (into 4/5), place 2 feeds the
    c/d choice (c into 6, d produces nothing), and e/f/g/h compete for
    3, 4 and 6, producing 7..10.
    """
    net = Net(
        places=frozenset("1 2 3 4 5 6 7 8 9 10".split()),
        transitions=frozenset("a b c d e f g h".split()),
        flow=frozenset(
            [
                ("1", "a"), ("1", "b"), ("a", "4"), ("b", "5"),
                ("2", "c"), ("2", "d"), ("c", "6"),
                ("3", "e"), ("e", "7"),
                ("3", "f"), ("4", "f"), ("6", "f"), ("f", "8"),
                ("6", "g"), ("g", "9"), ("6", "h"), ("h", "10"),
            ]
        ),
    )
    return MarkedNet(net, frozenset({"2", "3"}))


def build_confusion_net() -> MarkedNet:
    """The minimal confused net: a/b choose over place 1, then c/d
    choose over place 3 with d additionally needing 4 = a's output."""
    net = Net(
        places=frozenset("1 3 4 5 6".split()),
        transitions=frozenset("a b c d".split()),
        flow=frozenset(
            [
                ("1", "a"), ("1", "b"), ("a", "4"),
                ("3", "c"), ("c", "5"),
                ("3", "d"), ("4", "d"), ("d", "6"),
            ]
        ),
    )
    return MarkedNet(net, frozenset({"1", "3"}))


def disjoint_copies(marked: MarkedNet, k: int) -> MarkedNet:
    """k disjoint copies of a marked net; copy i suffixes every node with _i."""
    net = marked.net
    return MarkedNet(
        Net(
            fs(f"{p}_{i}" for i in range(k) for p in net.places),
            fs(f"{t}_{i}" for i in range(k) for t in net.transitions),
            fs((f"{a}_{i}", f"{b}_{i}") for i in range(k) for a, b in net.flow),
        ),
        fs(f"{p}_{i}" for i in range(k) for p in marked.marking),
    )


def confusion_chain(n: int) -> MarkedNet:
    """n confusion nets in a row: c_i puts the token on the a/b choice
    place 1_{i+1} of the next net (the last c on 5); every 3_i is marked
    and 1_0 is the single input."""
    places, transitions, flow = {"5"}, set(), set()
    for i in range(n):
        nxt = f"1_{i + 1}" if i + 1 < n else "5"
        places |= {f"1_{i}", f"3_{i}", f"4_{i}", f"6_{i}"}
        transitions |= {f"a_{i}", f"b_{i}", f"c_{i}", f"d_{i}"}
        flow |= {
            (f"1_{i}", f"a_{i}"), (f"a_{i}", f"4_{i}"), (f"1_{i}", f"b_{i}"),
            (f"3_{i}", f"c_{i}"), (f"c_{i}", nxt),
            (f"3_{i}", f"d_{i}"), (f"4_{i}", f"d_{i}"), (f"d_{i}", f"6_{i}"),
        }
    return MarkedNet(Net(fs(places), fs(transitions), fs(flow)), fs(f"3_{i}" for i in range(n)))


def deep_doc(n: int) -> dict:
    """p0 -> t0 -> p1 -> ... -> t<n-1> -> p<n>, the first place marked."""
    ids = [f"{i:0{len(str(n))}d}" for i in range(n + 1)]
    transitions = [{"id": f"t{a}", "pre": [f"p{a}"], "post": [f"p{b}"]} for a, b in zip(ids, ids[1:])]
    return {"places": [f"p{i}" for i in ids], "transitions": transitions, "marking": [f"p{ids[0]}"]}


def wide_doc(n: int) -> dict:
    """n independent cells p<i> -> t<i> -> q<i>, every p<i> marked."""
    ids = [f"{i:0{len(str(n - 1))}d}" for i in range(n)]
    return {
        "places": [f"p{i}" for i in ids] + [f"q{i}" for i in ids],
        "transitions": [{"id": f"t{i}", "pre": [f"p{i}"], "post": [f"q{i}"]} for i in ids],
        "marking": [f"p{i}" for i in ids],
    }


def fan_doc(k: int) -> dict:
    """One transition t that consumes k unmarked places i<j> and produces
    o: a net with k inputs whose term is one sum over their subsets."""
    ids = [f"{i:0{len(str(k - 1))}d}" for i in range(k)]
    inputs = [f"i{i}" for i in ids]
    return {"places": inputs + ["o"], "transitions": [{"id": "t", "pre": inputs, "post": ["o"]}], "marking": []}


def lad_doc(n: int) -> dict:
    """A ladder of n levels whose sums nest n deep.  Level k has places
    p<k>, r<k>, q<k> and s<k> (no s0), r<k> and q<k> marked, and two
    transitions: u<k> consumes p<k>, r<k> and q<k>, and e<k> consumes
    r<k> (and q<k-1> and s<k> when k > 0) and produces p<k+1> and
    s<k+1>.  p<n> and s<n> close the net, and p0 is its one input.  The
    whole net is one s-cell; without p<k>, the levels below e<k> form a
    cell with inputs p<k+1> and s<k+1>."""
    ids = [f"{i:0{len(str(n))}d}" for i in range(n + 1)]
    transitions = []
    for k, (a, b) in enumerate(zip(ids, ids[1:])):
        transitions.append({"id": f"u{a}", "pre": [f"p{a}", f"r{a}", f"q{a}"], "post": []})
        below = [f"q{ids[k - 1]}", f"s{a}"] if k else []
        transitions.append({"id": f"e{a}", "pre": [f"r{a}"] + below, "post": [f"p{b}", f"s{b}"]})
    return {
        "places": [f"{x}{i}" for i in ids[:-1] for x in "prq"] + [f"s{i}" for i in ids[1:]] + [f"p{ids[-1]}"],
        "transitions": transitions,
        "marking": [f"{x}{i}" for i in ids[:-1] for x in "rq"],
    }


def three_cell_delta(pa=0.3, pc=0.6, pf=0.5, pg=0.7, pgp=0.2) -> DeltaTable:
    return DeltaTable(
        {
            "a|b": Dist({fs({"a"}): pa, fs({"b"}): 1 - pa}),
            "c|d": Dist({fs({"c"}): pc, fs({"d"}): 1 - pc}),
            "e": Dist({fs({"e"}): 1.0}),
            "g|h": Dist({fs({"g"}): pg, fs({"h"}): 1 - pg}),
            "e,g|e,h|f": Dist(
                {fs({"f"}): pf, fs({"e", "g"}): pgp, fs({"e", "h"}): 1 - pf - pgp}
            ),
        }
    )


def confusion_delta(pa=0.3, pc=0.6) -> DeltaTable:
    return DeltaTable(
        {
            "a|b": Dist({fs({"a"}): pa, fs({"b"}): 1 - pa}),
            "c": Dist({fs({"c"}): 1.0}),
            "c|d": Dist({fs({"c"}): pc, fs({"d"}): 1 - pc}),
        }
    )


def random_delta(marked: MarkedNet, rng: random.Random) -> DeltaTable:
    """A strictly positive random δ table covering every constant."""
    entries = {}
    for key in sorted(constants_of(compile_net(marked)), key=lambda k: k.signature):
        outcomes = sorted((p.transitions for p in key.transactions), key=sorted)
        weights = [rng.random() + 1e-3 for _ in outcomes]
        total = sum(weights)
        entries[key.signature] = Dist({o: w / total for o, w in zip(outcomes, weights)})
    return DeltaTable(entries)


def uniform_delta(marked: MarkedNet) -> DeltaTable:
    entries = {}
    for key in sorted(constants_of(compile_net(marked)), key=lambda k: k.signature):
        entries[key.signature] = uniform_dist(p.transitions for p in key.transactions)
    return DeltaTable(entries)


def random_occurrence_net(
    rng: random.Random, max_places: int = 8, max_transitions: int = 6
) -> MarkedNet:
    """A random valid marked occurrence net within the given budget.

    Construction keeps the net acyclic with single-producer places by
    only ever producing into fresh places; nets that end up with
    self-conflicts are discarded and redrawn.
    """
    while True:
        n_initial = rng.randint(1, max(1, max_places - 2))
        places = [f"p{i}" for i in range(n_initial)]
        transitions: list[str] = []
        flow: list[tuple[str, str]] = []
        n_transitions = rng.randint(1, max_transitions)
        for k in range(n_transitions):
            if len(places) >= max_places and not places:
                break
            t = f"t{k}"
            pre_size = rng.randint(1, min(3, len(places)))
            pre = rng.sample(places, pre_size)
            room = max_places - len(places)
            post_count = rng.randint(0, min(2, room))
            post = [f"p{len(places) + i}" for i in range(post_count)]
            transitions.append(t)
            flow.extend((p, t) for p in pre)
            flow.extend((t, p) for p in post)
            places.extend(post)
        try:
            net = Net(frozenset(places), frozenset(transitions), frozenset(flow))
        except Exception:
            continue
        if not validate_occurrence(net).ok:
            continue
        from cellnet import isolated_places, min_places

        markable = sorted(min_places(net) - isolated_places(net))
        marking = frozenset(p for p in markable if rng.random() < 0.5)
        return MarkedNet(net, marking)


def random_dataflow_net(rng: random.Random, n_transitions: int) -> MarkedNet:
    """A random marked occurrence net without conflict: each transition
    consumes one or two places that no other transition consumes and
    produces one or two fresh ones, so each is a cell of its own and the
    cells' dataflow is a random acyclic graph.  The place names are
    shuffled, so the cells' order, by least member place, is not the
    order they were made in."""
    names = [f"p{i}" for i in range(2 * n_transitions + 3)]
    rng.shuffle(names)
    free = initial = [names.pop() for _ in range(rng.randint(1, 3))]
    places, flow = set(initial), []
    for k in range(n_transitions):
        pre = rng.sample(free, rng.randint(1, min(2, len(free))))
        post = [names.pop() for _ in range(rng.randint(1, 2))]
        free = [p for p in free if p not in pre] + post
        places.update(post)
        flow += [(p, f"t{k}") for p in pre] + [(f"t{k}", p) for p in post]
    consumed = {p for p, _ in flow if p in places}
    marking = fs(p for p in initial if p in consumed and rng.random() < 0.5)
    return MarkedNet(Net(fs(places), fs(f"t{k}" for k in range(n_transitions)), fs(flow)), marking)


@pytest.fixture(scope="session")
def three_cells() -> MarkedNet:
    return build_three_cell_net()


@pytest.fixture(scope="session")
def confusion() -> MarkedNet:
    return build_confusion_net()


@pytest.fixture(scope="session")
def three_cell_table() -> DeltaTable:
    return three_cell_delta()


@pytest.fixture(scope="session")
def confusion_table() -> DeltaTable:
    return confusion_delta()

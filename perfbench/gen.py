"""Seeded generators for the benchmark's five net shapes.

Every generator returns a :class:`Case`: a net in the net-file format
of the README (as a Python document), the δ schema of its cell
constants, and the parameters the reference checks need.  A case is
drawn once per seed with neutral identifiers; each operation then asks
for ``case.texts(prefix, rng)``, which renames every identifier with a
per-operation prefix (a common prefix keeps the lexicographic order, so
the compiled structure and its cost are unchanged) and draws a fresh δ.
The program only ever sees those texts.

The shapes:

* ``copies(k)``: k disjoint copies of the README's ``three_cells`` net.
* ``chain(n)``: n confusion nets in a row; the ``c`` transition of net i
  puts the token on the a/b choice place of net i+1.
* ``wide(n)``: n independent one-transition cells, all marked.
* ``deep(n)``: one sequential chain of n transitions, the first place
  marked.
* ``random_case``: random occurrence nets drawn like the test suite's
  generator (fresh output places only, self-conflicts redrawn).

Run ``python3 perfbench/gen.py --seed 1 --out perfbench/out/inputs`` to
write operation 0 of every workload as net and δ files, which the
``cellnet`` command line reads (``cellnet oracle-check <net> <delta>``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass

# Every probability of a constant with n >= 2 transactions lies in
# [min(P_MIN, 1/(2n)), 0.95]; a constant with one transaction gets 1.
P_MIN = 0.05


@dataclass
class Case:
    """One generated net plus its δ schema: per cell constant, its
    transactions as sorted tuples of transition ids."""

    shape: str
    doc: dict
    schema: list[list[tuple[str, ...]]]

    def texts(self, prefix: str, rng: random.Random) -> "OpInput":
        rename = {x: prefix + x for x in self.doc["places"]}
        rename.update({t["id"]: prefix + t["id"] for t in self.doc["transitions"]})
        doc = {
            "places": [rename[p] for p in self.doc["places"]],
            "transitions": [
                {
                    "id": rename[t["id"]],
                    "pre": [rename[p] for p in t["pre"]],
                    "post": [rename[p] for p in t["post"]],
                }
                for t in self.doc["transitions"]
            ],
            "marking": [rename[p] for p in self.doc["marking"]],
        }
        probs: dict[tuple[str, ...], float] = {}
        entries = []
        for transactions in self.schema:
            weights = simplex(rng, len(transactions))
            renamed = [tuple(sorted(rename[t] for t in ts)) for ts in transactions]
            table = {}
            for ts, w in zip(renamed, weights):
                table[",".join(ts)] = w
                probs[ts] = w
            signature = "|".join(sorted(table))
            entries.append({"signature": signature, "probabilities": table})
        return OpInput(
            shape=self.shape,
            prefix=prefix,
            doc=doc,
            net_text=json.dumps(doc),
            delta_text=json.dumps(entries),
            probs=probs,
        )


@dataclass
class OpInput:
    """The texts handed to the program plus what the checks need:
    ``probs`` maps each transaction (renamed, sorted) to its δ value."""

    shape: str
    prefix: str
    doc: dict
    net_text: str
    delta_text: str
    probs: dict[tuple[str, ...], float]

    def name(self, x: str) -> str:
        return self.prefix + x

    def p(self, *transitions: str) -> float:
        """δ probability of the transaction made of these (unprefixed)
        transitions."""
        return self.probs[tuple(sorted(self.prefix + t for t in transitions))]


def simplex(rng: random.Random, n: int) -> list[float]:
    """n random probabilities summing to 1: each gets the floor
    min(P_MIN, 1/(2n)) and the rest is shared in random proportions, so
    none exceeds 1 - (n-1)·floor <= 0.95.  A single outcome gets 1."""
    if n == 1:
        return [1.0]
    floor = min(P_MIN, 0.5 / n)
    weights = [rng.random() + 1e-12 for _ in range(n)]
    total = sum(weights)
    return [floor + (1.0 - n * floor) * w / total for w in weights]


def _net(places, transitions, marking) -> dict:
    return {
        "places": list(places),
        "transitions": [{"id": t, "pre": list(pre), "post": list(post)} for t, pre, post in transitions],
        "marking": list(marking),
    }


def copies(k: int) -> Case:
    """k disjoint copies of three_cells; copy i has places ``<p>_i`` and
    transitions ``<t>_i``, marking {2_i, 3_i}, input 1_i."""
    places, transitions, marking, schema = [], [], [], []
    for i in range(k):
        s = f"_{i}"
        places += [f"{p}{s}" for p in "1 2 3 4 5 6 7 8 9 10".split()]
        transitions += [
            (f"a{s}", [f"1{s}"], [f"4{s}"]),
            (f"b{s}", [f"1{s}"], [f"5{s}"]),
            (f"c{s}", [f"2{s}"], [f"6{s}"]),
            (f"d{s}", [f"2{s}"], []),
            (f"e{s}", [f"3{s}"], [f"7{s}"]),
            (f"f{s}", [f"3{s}", f"4{s}", f"6{s}"], [f"8{s}"]),
            (f"g{s}", [f"6{s}"], [f"9{s}"]),
            (f"h{s}", [f"6{s}"], [f"10{s}"]),
        ]
        marking += [f"2{s}", f"3{s}"]
        schema += [
            [(f"a{s}",), (f"b{s}",)],
            [(f"c{s}",), (f"d{s}",)],
            [(f"e{s}",)],
            [(f"g{s}",), (f"h{s}",)],
            [(f"e{s}", f"g{s}"), (f"e{s}", f"h{s}"), (f"f{s}",)],
        ]
    return Case("copies", _net(places, transitions, marking), schema)


def chain(n: int) -> Case:
    """n confusion nets: a_i/b_i choose over 1_i, c_i/d_i over 3_i with
    d_i also needing a_i's output 4_i.  c_i feeds 1_{i+1}; the last c
    feeds 5.  All 3_i are marked; 1_0 is the single input."""
    places, transitions, schema = ["5"], [], []
    for i in range(n):
        nxt = f"1_{i + 1}" if i + 1 < n else "5"
        places += [f"1_{i}", f"3_{i}", f"4_{i}", f"6_{i}"]
        transitions += [
            (f"a_{i}", [f"1_{i}"], [f"4_{i}"]),
            (f"b_{i}", [f"1_{i}"], []),
            (f"c_{i}", [f"3_{i}"], [nxt]),
            (f"d_{i}", [f"3_{i}", f"4_{i}"], [f"6_{i}"]),
        ]
        schema += [
            [(f"a_{i}",), (f"b_{i}",)],
            [(f"c_{i}",)],
            [(f"c_{i}",), (f"d_{i}",)],
        ]
    marking = [f"3_{i}" for i in range(n)]
    return Case("chain", _net(places, transitions, marking), schema)


def wide(n: int) -> Case:
    """n independent cells p_i -> t_i -> q_i, every p_i marked."""
    width = len(str(n - 1))
    ids = [f"{i:0{width}d}" for i in range(n)]
    places = [f"p{i}" for i in ids] + [f"q{i}" for i in ids]
    transitions = [(f"t{i}", [f"p{i}"], [f"q{i}"]) for i in ids]
    schema = [[(f"t{i}",)] for i in ids]
    return Case("wide", _net(places, transitions, [f"p{i}" for i in ids]), schema)


def deep(n: int) -> Case:
    """One chain p_0 -> t_0 -> p_1 -> ... -> t_{n-1} -> p_n, p_0 marked."""
    width = len(str(n))
    ids = [f"{i:0{width}d}" for i in range(n + 1)]
    places = [f"p{i}" for i in ids]
    transitions = [(f"t{ids[i]}", [f"p{ids[i]}"], [f"p{ids[i + 1]}"]) for i in range(n)]
    schema = [[(f"t{ids[i]}",)] for i in range(n)]
    return Case("deep", _net(places, transitions, ["p" + ids[0]]), schema)


def random_structure(rng: random.Random, max_places: int, max_transitions: int) -> dict:
    """The test suite's random occurrence net, as a net document.

    Transitions only produce into fresh places, so the net is acyclic
    and every place has at most one producer; nets with a self-conflict
    (two causes of one transition sharing a pre-place) are redrawn.
    """
    while True:
        n_initial = rng.randint(1, max(1, max_places - 2))
        places = [f"p{i}" for i in range(n_initial)]
        transitions = []
        for k in range(rng.randint(1, max_transitions)):
            pre = rng.sample(places, rng.randint(1, min(3, len(places))))
            room = max_places - len(places)
            post = [f"p{len(places) + i}" for i in range(rng.randint(0, min(2, room)))]
            transitions.append((f"t{k}", pre, post))
            places.extend(post)
        if _self_conflicting(transitions):
            continue
        produced = {p for _, _, post in transitions for p in post}
        consumed = {p for _, pre, _ in transitions for p in pre}
        markable = sorted(p for p in places if p not in produced and p in consumed)
        marking = [p for p in markable if rng.random() < 0.5]
        return _net(places, transitions, marking)


def _self_conflicting(transitions) -> bool:
    producer = {p: t for t, _, post in transitions for p in post}
    pre = {t: set(ps) for t, ps, _ in transitions}
    causes: dict[str, set[str]] = {}
    for t, ps, _ in transitions:  # producers always come earlier in the list
        causes[t] = {t}.union(*(causes[producer[p]] for p in ps if p in producer))
    for t in causes:
        below = sorted(causes[t])
        for i, u in enumerate(below):
            if any(pre[u] & pre[v] for v in below[i + 1:]):
                return True
    return False


def random_case(stream, cellnet, max_places: int, max_transitions: int,
                accept) -> tuple[Case, int]:
    """Draw random nets until one is accepted; return it and the number
    of nets redrawn because ``constants_of`` rejected them with the
    duplicate-signature fault.  ``stream(attempt)`` gives the random
    stream of each attempt, so a change in which nets the program
    accepts changes only the nets it rejects, not the ones drawn after.
    ``accept(doc)`` filters on size before anything is compiled."""
    redrawn = 0
    while True:
        rng = stream(redrawn)
        doc = random_structure(rng, max_places, max_transitions)
        while not accept(doc):
            doc = random_structure(rng, max_places, max_transitions)
        term = cellnet.compile_net(cellnet.parse_net(json.dumps(doc)))
        try:
            keys = cellnet.constants_of(term)
        except cellnet.TermError:
            redrawn += 1
            continue
        schema = [
            sorted(tuple(sorted(p.transitions)) for p in key.transactions)
            for key in sorted(keys, key=lambda key: key.signature)
        ]
        return Case("random", doc, schema), redrawn


def main() -> None:
    parser = argparse.ArgumentParser(description="Write one operation's inputs of each workload.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the files into")
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import cellnet
    import workloads

    os.makedirs(args.out, exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(args.seed)
        for j, op in enumerate(workload.inputs(0, cellnet)):
            for suffix, text in (("net", op.net_text), ("delta", op.delta_text)):
                path = os.path.join(args.out, f"{name}-{j:02d}-{op.shape}.{suffix}")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
                print(path)
        if getattr(workload, "redrawn", 0):
            print(f"{name}: {workload.redrawn} random net(s) redrawn for the duplicate-signature fault")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Show that no check of the benchmark is vacuous.

    python3 perfbench/selftest.py

Runs one operation of each workload, confirms its outputs pass, then
hands the workload's ``check`` one wrong answer at a time (a δ with two
probabilities swapped, a matrix row or state with mass moved, a
configuration dropped, a tree with a cell missing, ...) and requires
each to be caught.  It also confirms that ``cellnet.fold_tree``, which
the timed runs leave out for its cost, agrees with the benchmark's own
recomposition on one small net.  Exits 1 if any wrong answer passes.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import cellnet as cn  # noqa: E402

import gen  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, caught_wanted: bool, call) -> None:
    try:
        call()
        caught, message = False, ""
    except ref.CheckFailed as exc:
        caught, message = True, str(exc)
    ok = caught == caught_wanted
    RESULTS.append((label, ok))
    verdict = f"caught ({message[:90]})" if caught else "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")


def moved(matrix, row: int) -> np.ndarray:
    """Move all of one row's mass onto a column it gives nothing (or,
    when it gives something everywhere, onto its first column)."""
    m = np.array(matrix, dtype=float)
    empty = np.nonzero(m[row] == 0)[0]
    target = empty[0] if len(empty) else 0
    mass = m[row].sum()
    m[row] = 0.0
    m[row, target] = mass
    return m


def with_matrix(arrow, matrix):
    return SimpleNamespace(in_wiring=arrow.in_wiring, out_wiring=arrow.out_wiring, matrix=matrix)


def with_probs(state, probs):
    return SimpleNamespace(wiring=state.wiring, probs=probs)


def swap_first(op) -> None:
    """Swap the probabilities of the first constant that has two
    different ones, in the δ text only (the op keeps the true values)."""
    entries = json.loads(op.delta_text)
    for entry in entries:
        keys = list(entry["probabilities"])
        values = [entry["probabilities"][k] for k in keys]
        if len(keys) == 2 and values[0] != values[1]:
            entry["probabilities"] = {keys[0]: values[1], keys[1]: values[0]}
            break
    op.delta_text = json.dumps(entries)


def replace(outputs, index: int, position: int, value):
    out = [list(o) for o in outputs]
    out[index][position] = value
    return [tuple(o) for o in out]


def dense() -> None:
    w = workloads.Dense(1)
    ops = w.inputs(0)
    outputs = w.run(cn, ops)
    expect("dense: true outputs", False, lambda: w.check(cn, ops, outputs))
    for j, shape in enumerate(("copies", "chain")):
        arrow, kept, pushed, posterior, _ = outputs[j]
        tampered = w.inputs(0)
        swap_first(tampered[j])
        wrong = w.run(cn, tampered)
        expect(f"dense {shape}: δ with two probabilities swapped", True,
               lambda: w.check(cn, ops, wrong))
        expect(f"dense {shape}: arrow row with its mass moved", True,
               lambda: w.check(cn, ops, replace(outputs, j, 0, with_matrix(arrow, moved(arrow.matrix, 0)))))
        expect(f"dense {shape}: kept arrow row with its mass moved", True,
               lambda: w.check(cn, ops, replace(outputs, j, 1, with_matrix(kept, moved(kept.matrix, 1)))))
        expect(f"dense {shape}: forward state with its mass moved", True,
               lambda: w.check(cn, ops, replace(outputs, j, 2, with_probs(pushed, moved([pushed.probs], 0)[0]))))
        expect(f"dense {shape}: posterior with its mass moved", True,
               lambda: w.check(cn, ops, replace(outputs, j, 3, with_probs(posterior, moved([posterior.probs], 0)[0]))))


def structural() -> None:
    w = workloads.Structural(1)
    w.cases = [gen.wide(12), gen.deep(8)]
    ops = w.inputs(0)
    outputs = w.run(cn, ops)
    expect("structural: true outputs", False, lambda: w.check(cn, ops, outputs))
    for j, shape in enumerate(("wide", "deep")):
        term, rendered, keys, lines, tree, dot = outputs[j]
        if isinstance(tree, cn.ParNode):
            short = cn.ParNode(tree.children[1:])
        else:
            short = tree.first
        expect(f"{shape}: composition tree with a part missing", True,
               lambda: w.check(cn, ops, replace(outputs, j, 4, short)))
        name = sorted(ops[j].doc["transitions"], key=lambda t: t["id"])[0]["id"]
        expect(f"{shape}: rendered term with one transition renamed", True,
               lambda: w.check(cn, ops, replace(outputs, j, 1, rendered.replace(name, name + "x"))))
        expect(f"{shape}: one constant missing", True,
               lambda: w.check(cn, ops, replace(outputs, j, 2, keys[1:])))
        other = cn.compile_net(cn.parse_net(w.inputs(1)[j].net_text))
        expect(f"{shape}: term of another net", True,
               lambda: w.check(cn, ops, replace(outputs, j, 0, other)))
    plain = workloads._plain_tree(cn, outputs[0][4])
    broken = ("par", plain[1][:-1] + [("cell", *plain[1][-1][1:3], set(), plain[1][-1][4])])
    expect("wide: recomposition with one cell's arcs lost", True,
           lambda: ref.same_net(ref.fold(broken), ops[0].doc, "wide"))
    folded = cn.fold_tree(outputs[1][4])
    mine = ref.fold(workloads._plain_tree(cn, outputs[1][4]))
    expect("deep: cellnet.fold_tree agrees with the benchmark's recomposition", False,
           lambda: ref.require(
               mine == (set(folded.net.places), set(folded.net.transitions),
                        set(folded.net.flow), set(folded.marking)), "fold_tree differs"))


def oracle() -> None:
    w = workloads.Oracle(1)
    ops = w.inputs(0, cn)
    outputs = w.run(cn, ops)
    expect("oracle: true outputs", False, lambda: w.check(cn, ops, outputs))
    j = max(range(len(ops)), key=lambda k: sum(len(v) for v in ops[k].runs.values()))
    arrow, correspondence, text, worst = outputs[j]
    cases = list(correspondence.cases)
    last = cases[-1]
    dropped = SimpleNamespace(arriving=last.arriving,
                              from_event_structure=frozenset(list(last.from_event_structure)[1:]),
                              from_term=last.from_term)
    fake = SimpleNamespace(cases=tuple(cases[:-1]) + (dropped,), ok=True)
    expect("oracle: event-structure side missing a configuration", True,
           lambda: w.check(cn, ops, replace(outputs, j, 1, fake)))
    expect("oracle: matrix row with its mass moved", True,
           lambda: w.check(cn, ops, replace(outputs, j, 0, with_matrix(arrow, moved(arrow.matrix, 0)))))
    expect("oracle: enumeration and matrix disagree by 1e-6", True,
           lambda: w.check(cn, ops, replace(outputs, j, 3, 1e-6)))


def main() -> int:
    dense()
    structural()
    oracle()
    bad = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: how each operation's inputs are drawn, the
library calls it makes (the bodies of the matching ``cellnet`` CLI
commands, fed texts instead of files, output rendered but not printed),
and the checks on its outputs.

Operation i of a run with seed s always gets the same inputs: its
random stream is seeded with (workload, s, i), and each random net of
an ``oracle`` operation is drawn from a stream of its own, seeded with
(workload, s, i, slot, attempt).  Every identifier of an
operation carries a prefix drawn from that stream, so no two operations
share a term and the program's caches never serve one operation from
another's work.
"""

from __future__ import annotations

import json
import random

import numpy as np

import gen
import reference as ref
from reference import close, require

DENSE_COPIES = 2  # 2 inputs, 10 outputs: a 4×1024 arrow
DENSE_CHAIN = 9  # 1 input, 10 outputs: a 2×1024 arrow
WIDE_CELLS = 300  # below the 340-cell RecursionError of equal terms
DEEP_TRANSITIONS = 70
ORACLE_PLACES, ORACLE_TRANSITIONS = 12, 9
# One net per slot; the slot is the net's number of unmarked inputs.
# The oracle's cost doubles with every input, so fixing the mix keeps
# operations alike, and capping it at 5 keeps the 2^inputs correspondence
# cases and interface widths small.
ORACLE_SLOTS = (0, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 3)


def _prefix(rng: random.Random, i: int, j: int) -> str:
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    return f"{tag}{i % 100000:05d}{j:02d}_"


def _strip(names, prefix: str) -> list[str]:
    for x in names:
        require(x.startswith(prefix), f"identifier {x!r} lacks the operation prefix {prefix!r}")
    return [x[len(prefix):] for x in names]


def _supports(arrow, prefix: str) -> tuple[dict, frozenset[str]]:
    """Per input subset, the output subsets with positive mass, read off
    the matrix with the README's indexing (first wired place = bit 0);
    names are returned without the operation prefix."""
    ins = _strip(arrow.in_wiring.places, prefix)
    outs = _strip(arrow.out_wiring.places, prefix)
    matrix = np.asarray(arrow.matrix)
    rows = {}
    for k in range(matrix.shape[0]):
        arriving = frozenset(p for b, p in enumerate(ins) if k >> b & 1)
        cols = np.nonzero(matrix[k] > 0)[0]
        rows[arriving] = frozenset(
            frozenset(p for b, p in enumerate(outs) if int(j) >> b & 1) for j in cols
        )
    return rows, frozenset(outs)


def _marginals(wiring_places, probs) -> dict[str, float]:
    idx = np.arange(len(probs))
    return {p: float(np.asarray(probs)[(idx >> b) & 1 == 1].sum()) for b, p in enumerate(wiring_places)}


def _arrow(cn, op):
    """The CLI's ``_arrow``: parse, compile, check δ, interpret with the
    default wirings."""
    marked = cn.parse_net(op.net_text)
    term = cn.compile_net(marked)
    delta = cn.load_delta(op.delta_text)
    report = cn.validate_delta(delta, cn.constants_of(term))
    if not report.ok:
        raise cn.CellnetError(f"δ table rejected:\n{report}")
    ty = cn.typecheck(term)
    return marked, delta, cn.interpret(term, delta, cn.lex_wiring(ty.inputs), cn.lex_wiring(ty.outputs))


class Workload:
    """``inputs(i)`` draws operation i (i < 0: warm-up), ``run`` makes
    the timed library calls, ``check`` verifies what ``run`` returned
    and returns the number of comparisons made.  ``nominal_ops_per_s``
    (measured on the reference machine at the seed) sets how many
    operations a run of a given length performs."""

    name = ""
    nominal_ops_per_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")


# --------------------------------------------------------------------- #
# dense: `cellnet infer --marginal K --forward S --posterior ...`
# --------------------------------------------------------------------- #

class Dense(Workload):
    name = "dense"
    nominal_ops_per_s = 4.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = [gen.copies(DENSE_COPIES), gen.chain(DENSE_CHAIN)]
        self.games = [ref.TokenGame(c.doc) for c in self.cases]
        self.expected = [g.outcomes()[1] for g in self.games]

    def inputs(self, i: int, cn=None):
        rng = self.rng(i)
        ops = [case.texts(_prefix(rng, i, j), rng) for j, case in enumerate(self.cases)]
        for op, case in zip(ops, self.cases):
            inputs = sorted(op.name(p) for p in ref.inputs_of(case.doc))
            share = 1.0 / (1 << len(inputs))
            op.prior_text = json.dumps({
                "places": inputs,
                "probabilities": {",".join(sorted(s)): share for s in ref.subsets(inputs)},
            })
            if op.shape == "copies":
                op.keep = [op.name(f"7_{c}") for c in range(DENSE_COPIES)]
                op.evidence = {op.name("7_0"): True}
            else:
                op.keep = [op.name("5")]
                op.evidence = {op.name("6_1"): True}
        return ops

    def run(self, cn, ops):
        return [self._infer(cn, op) for op in ops]

    @staticmethod
    def _infer(cn, op):
        _, _, arrow = _arrow(cn, op)
        kept = cn.marginalize(arrow, frozenset(op.keep))
        prior = cn.inference.parse_state(op.prior_text)
        pushed = cn.forward(prior, arrow)
        q = cn.Predicate.from_evidence(arrow.out_wiring, op.evidence)
        posterior = cn.condition(prior, cn.pullback(arrow, q))
        rendered = (
            cn.format_arrow(kept),
            cn.inference.format_state(pushed),
            cn.inference.format_state(posterior),
        )
        return arrow, kept, pushed, posterior, rendered

    def check(self, cn, ops, outputs) -> int:
        checks = 0
        for op, game, expected, (arrow, kept, pushed, posterior, rendered) in zip(
            ops, self.games, self.expected, outputs
        ):
            rows, outs = _supports(arrow, op.prefix)
            checks += ref.check_supports(expected, rows, outs, game.finals, op.shape)
            require(all(rendered), f"{op.shape}: empty rendering")
            if op.shape == "copies":
                checks += self._check_copies(op, kept, pushed, posterior)
            else:
                checks += self._check_chain(op, kept, pushed, posterior)
        return checks

    @staticmethod
    def _check_copies(op, kept, pushed, posterior) -> int:
        k = DENSE_COPIES
        p = [(op.p(f"a_{c}"), op.p(f"c_{c}"), op.p(f"f_{c}")) for c in range(k)]
        ins = list(kept.in_wiring.places)
        outs = list(kept.out_wiring.places)
        checks = 0
        for r in range(1 << len(ins)):
            arriving = {x for b, x in enumerate(ins) if r >> b & 1}
            m = [ref.copies_marginal_7(*p[c], op.name(f"1_{c}") in arriving) for c in range(k)]
            for col in range(1 << len(outs)):
                marked = {x for b, x in enumerate(outs) if col >> b & 1}
                want = 1.0
                for c in range(k):
                    want *= m[c] if op.name(f"7_{c}") in marked else 1.0 - m[c]
                close(float(kept.matrix[r, col]), want, f"copies keep row {r} col {col}")
                checks += 1
        fwd = _marginals(pushed.wiring.places, pushed.probs)
        for c in range(k):
            prod = p[c][0] * p[c][1] * p[c][2]
            close(fwd[op.name(f"7_{c}")], 1.0 - prod / 2.0, f"copies forward P(7_{c})")
        post = _marginals(posterior.wiring.places, posterior.probs)
        close(post[op.name("1_0")], ref.copies_posterior_1(*p[0]), "copies posterior P(1_0 | 7_0)")
        close(post[op.name("1_1")], 0.5, "copies posterior P(1_1 | 7_0)")
        return checks + k + 2

    @staticmethod
    def _check_chain(op, kept, pushed, posterior) -> int:
        n = DENSE_CHAIN
        pa = [op.p(f"a_{i}") for i in range(n)]
        pc = [op.p(f"c_{i}") for i in range(n)]
        on = ref.chain_marginals(pa, pc, True)
        off = ref.chain_marginals(pa, pc, False)
        require(list(kept.in_wiring.places) == [op.name("1_0")], "chain: kept arrow inputs")
        for r, (_, u) in enumerate((off, on)):
            close(float(kept.matrix[r, 1]), u, f"chain keep P(5) row {r}")
            close(float(kept.matrix[r, 0]), 1.0 - u, f"chain keep P(not 5) row {r}")
        fwd = _marginals(pushed.wiring.places, pushed.probs)
        for i in range(n):
            close(fwd[op.name(f"6_{i}")], (on[0][i] + off[0][i]) / 2.0, f"chain forward P(6_{i})")
        close(fwd[op.name("5")], (on[1] + off[1]) / 2.0, "chain forward P(5)")
        post = _marginals(posterior.wiring.places, posterior.probs)
        close(post[op.name("1_0")], on[0][1] / (on[0][1] + off[0][1]), "chain posterior P(1_0 | 6_1)")
        return 4 + n + 2


# --------------------------------------------------------------------- #
# structural: `cellnet compile`, `cellnet constants`, `cellnet canon --dot`
# --------------------------------------------------------------------- #

class Structural(Workload):
    name = "structural"
    nominal_ops_per_s = 0.75

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = [gen.wide(WIDE_CELLS), gen.deep(DEEP_TRANSITIONS)]

    def inputs(self, i: int, cn=None):
        rng = self.rng(i)
        return [case.texts(_prefix(rng, i, j), rng) for j, case in enumerate(self.cases)]

    def run(self, cn, ops):
        return [self._commands(cn, op.net_text) for op in ops]

    @staticmethod
    def _commands(cn, text):
        term = cn.compile_net(cn.parse_net(text))
        rendered = cn.render_term(term)
        keys = sorted(cn.constants_of(cn.compile_net(cn.parse_net(text))), key=lambda k: k.signature)
        lines = [
            f"{key.signature}  marked {cn.terms.render_place_set(key.marked)} "
            f"outputs {cn.terms.render_place_set(key.outputs)}"
            for key in keys
        ]
        tree = cn.canonical_form(cn.parse_net(text))
        dot = cn.export_diagram(tree)
        return term, rendered, keys, lines, tree, dot

    def check(self, cn, ops, outputs) -> int:
        for op, (term, rendered, keys, lines, tree, dot) in zip(ops, outputs):
            n = len(op.doc["transitions"])  # one cell and one constant per transition
            what = f"{op.shape}({n})"
            plain = _plain_tree(cn, tree)
            cells = ref.count_cells(plain)
            require(cells == n, f"{what}: canonical form has {cells} cells")
            ref.same_net(ref.fold(plain), op.doc, what)
            ty = cn.typecheck(term)
            ins, outs = ref.interface(op.doc)
            require(ty.inputs == ins, f"{what}: term inputs {sorted(ty.inputs)}")
            require(ty.outputs == outs, f"{what}: term outputs differ from the final places")
            require(len(keys) == n and len(lines) == n, f"{what}: {len(keys)} constants")
            require(cn.parse_term(rendered) == term, f"{what}: parse_term(render_term(t)) != t")
            require(dot.count("->") >= n, f"{what}: diagram has too few wires")
        return 7 * len(ops)


def _plain_tree(cn, node):
    """The composition tree as plain data for ``reference.fold``."""
    if isinstance(node, cn.CellLeaf):
        net = node.cell.subnet.net
        return ("cell", net.places, net.transitions, net.flow, node.cell.subnet.marking)
    if isinstance(node, cn.IdentityLeaf):
        return ("id", node.places)
    if isinstance(node, cn.ParNode):
        return ("par", [_plain_tree(cn, c) for c in node.children])
    if isinstance(node, cn.SeqNode):
        return ("seq", _plain_tree(cn, node.first), _plain_tree(cn, node.second))
    return ("unknown",)


# --------------------------------------------------------------------- #
# oracle: `cellnet oracle-check` on a bundle of random nets
# --------------------------------------------------------------------- #

class Oracle(Workload):
    name = "oracle"
    nominal_ops_per_s = 4.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.redrawn = 0

    def inputs(self, i: int, cn=None):
        rng = self.rng(i)
        ops = []
        for j, slot in enumerate(ORACLE_SLOTS):
            case, redrawn = gen.random_case(
                lambda attempt, j=j: random.Random(f"{self.name}:{self.seed}:{i}:{j}:{attempt}"),
                cn, ORACLE_PLACES, ORACLE_TRANSITIONS,
                lambda doc, slot=slot: len(ref.inputs_of(doc)) == slot,
            )
            self.redrawn += redrawn
            op = case.texts(_prefix(rng, i, j), rng)
            game = ref.TokenGame(case.doc)
            op.finals = game.finals
            op.runs, op.supports = game.outcomes()
            ops.append(op)
        return ops

    def run(self, cn, ops):
        return [self._oracle_check(cn, op) for op in ops]

    @staticmethod
    def _oracle_check(cn, op):
        marked, delta, arrow = _arrow(cn, op)
        correspondence = cn.check_correspondence(marked)
        text = str(correspondence)
        outcome = cn.enumerate_outcome_distribution(marked, delta)
        state = cn.forward(cn.State.point(arrow.in_wiring, arrow.in_wiring.place_set), arrow)
        worst = 0.0
        for place in sorted(arrow.out_wiring.place_set):
            worst = max(worst, abs(outcome.place_marginal(place) - state.place_marginal(place)))
        return arrow, correspondence, text, worst

    def check(self, cn, ops, outputs) -> int:
        checks = 0
        for op, (arrow, correspondence, text, worst) in zip(ops, outputs):
            rows, outs = _supports(arrow, op.prefix)
            checks += ref.check_supports(op.supports, rows, outs, op.finals, "oracle")
            require(len(correspondence.cases) == len(op.runs), "oracle: one case per input subset")
            for case in correspondence.cases:
                arriving = frozenset(_strip(case.arriving, op.prefix))
                got = frozenset(frozenset(_strip(v, op.prefix)) for v in case.from_event_structure)
                require(
                    got == op.runs[arriving],
                    f"oracle: inputs {sorted(arriving)}: event structure gives "
                    f"{sorted(map(sorted, got))}, token game {sorted(map(sorted, op.runs[arriving]))}",
                )
                checks += 1
            require(correspondence.ok and "MISMATCH" not in text, "oracle: correspondence report fails")
            require(worst <= ref.TOL, f"oracle: enumeration and matrix differ by {worst}")
        return checks


WORKLOADS = {"dense": Dense, "structural": Structural, "oracle": Oracle}

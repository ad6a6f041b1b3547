"""Acceptance suite: one test per criterion, each printing a PASS line
with the tolerance it was checked at (run with -s or -rA to see them)."""

import random

import numpy as np
import pytest

from cellnet import (
    CellLeaf,
    MarkedNet,
    Par,
    Predicate,
    State,
    Wiring,
    canonical_form,
    compile_cell,
    compile_net,
    condition,
    conf_of_term,
    enumerate_outcome_distribution,
    fold_tree,
    forward,
    interpret,
    marginalize,
    maximal_r_stopped,
    min_places,
    normalize,
    permutation_arrow,
    pes_of_net,
    pullback,
    r_stopped_configs,
    scells,
    typecheck,
)
from cellnet import export_diagram
from conftest import (
    confusion_delta,
    random_delta,
    random_occurrence_net,
    three_cell_delta,
)
from references import compose_arrows, count_boxes

fs = frozenset


def report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def cell_term(marked, member):
    for cell in scells(marked.net, marked.marking):
        if member in cell.members:
            return compile_cell(cell.subnet)
    raise AssertionError(member)


def draw_parameters(rng):
    pa, pc, pg = (rng.uniform(0.05, 0.95) for _ in range(3))
    pf = rng.uniform(0.05, 0.9)
    pgp = rng.uniform(0.0, 1.0 - pf)
    return pa, pc, pf, pg, pgp


def test_criterion_1_golden_matrices(three_cells):
    pa, pc, pf, pg, pgp = 0.3, 0.6, 0.5, 0.7, 0.2
    delta = three_cell_delta(pa, pc, pf, pg, pgp)

    c1 = interpret(cell_term(three_cells, "a"), delta, Wiring(("1",)), Wiring(("4", "5")))
    np.testing.assert_allclose(
        c1.matrix, [[1, 0, 0, 0], [0, pa, 1 - pa, 0]], rtol=0, atol=1e-12
    )

    c2 = interpret(cell_term(three_cells, "c"), delta, Wiring(()), Wiring(("6",)))
    np.testing.assert_allclose(c2.matrix, [[1 - pc, pc]], rtol=0, atol=1e-12)

    w_in = Wiring(("4", "6"))
    w_out = Wiring(("7", "8", "9", "10"))
    c3 = interpret(cell_term(three_cells, "f"), delta, w_in, w_out)
    expected = np.zeros((4, 16))
    expected[0, w_out.index({"7"})] = 1.0
    expected[1, w_out.index({"7"})] = 1.0
    expected[2, w_out.index({"7", "9"})] = pg
    expected[2, w_out.index({"7", "10"})] = 1 - pg
    expected[3, w_out.index({"8"})] = pf
    expected[3, w_out.index({"7", "9"})] = pgp
    expected[3, w_out.index({"7", "10"})] = 1 - pf - pgp
    np.testing.assert_allclose(c3.matrix, expected, rtol=0, atol=1e-12)
    report(1, "three cell matrices match their closed forms within 1e-12")


def test_criterion_2_end_to_end_psi(three_cells):
    rng = random.Random(42)
    term = compile_net(three_cells)
    for _ in range(100):
        pa, pc, pf, pg, pgp = draw_parameters(rng)
        delta = three_cell_delta(pa, pc, pf, pg, pgp)
        arrow = marginalize(interpret(term, delta, Wiring(("1",))), {"7"})
        expected = [[0.0, 1.0], [pa * pc * pf, 1 - pa * pc * pf]]
        np.testing.assert_allclose(arrow.matrix, expected, rtol=0, atol=1e-9)
    report(2, "marginal arrow to wire 7 matches [[0,1],[p,1-p]] for 100 draws within 1e-9")


def test_criterion_3_backward_inference(three_cells):
    rng = random.Random(43)
    term = compile_net(three_cells)
    for _ in range(100):
        pa, pc, pf, pg, pgp = draw_parameters(rng)
        delta = three_cell_delta(pa, pc, pf, pg, pgp)
        arrow = interpret(term, delta, Wiring(("1",)))
        prior = State.from_mapping(arrow.in_wiring, {fs(): 0.5, fs({"1"}): 0.5})
        token_at_7 = Predicate.from_evidence(arrow.out_wiring, {"7": True})
        posterior = condition(prior, pullback(arrow, token_at_7))
        p = pa * pc * pf
        assert posterior.prob({"1"}) == pytest.approx((1 - p) / (2 - p), abs=1e-12)
    report(3, "posterior on {1} given a token at 7 matches (1-p)/(2-p) for 100 draws within 1e-12")


def test_criterion_4_two_cell_reproduction(confusion):
    rng = random.Random(44)
    assert len(scells(confusion.net, confusion.marking)) == 2
    assert count_boxes(export_diagram(canonical_form(confusion))) == 2
    for _ in range(25):
        pa, pc = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        delta = confusion_delta(pa=pa, pc=pc)
        first = interpret(cell_term(confusion, "a"), delta, Wiring(()), Wiring(("4",)))
        np.testing.assert_allclose(first.matrix, [[1 - pa, pa]], rtol=0, atol=1e-12)
        second = interpret(
            cell_term(confusion, "c"), delta, Wiring(("4",)), Wiring(("5", "6"))
        )
        np.testing.assert_allclose(
            second.matrix, [[0, 1, 0, 0], [0, pc, 1 - pc, 0]], rtol=0, atol=1e-12
        )
    report(4, "two cell boxes and both conditional tables reproduced within 1e-12")


def test_criterion_5_oracle_equivalence(three_cells, confusion):
    rng = random.Random(45)
    for marked in (three_cells, confusion):
        term = compile_net(marked)
        for _ in range(50):
            delta = random_delta(marked, rng)
            arrow = interpret(term, delta)
            state = forward(State.point(arrow.in_wiring, arrow.in_wiring.place_set), arrow)
            outcome = enumerate_outcome_distribution(marked, delta)
            for place in sorted(arrow.out_wiring.place_set):
                assert abs(outcome.place_marginal(place) - state.place_marginal(place)) <= 1e-9
    report(5, "per-place marginals of enumeration and matrix pipeline agree for 2x50 random tables within 1e-9")


def test_criterion_6_correspondence(three_cells):
    term = compile_net(three_cells)
    for arriving in (fs(), fs({"1"})):
        extended = MarkedNet(three_cells.net, three_cells.marking | arriving)
        ab_side = maximal_r_stopped(pes_of_net(extended))
        term_side = conf_of_term(term, arriving)
        assert ab_side == term_side
    assert fs({"a", "c", "e", "g"}) in conf_of_term(term, fs({"1"}))
    fully = MarkedNet(three_cells.net, fs({"1", "2", "3"}))
    r_stopped = r_stopped_configs(pes_of_net(fully))
    assert fs({"a", "c", "e"}) not in r_stopped
    report(6, "term configurations equal maximal r-stopped configurations for both input cases")


def _example_terms(three_cells, confusion):
    yield cell_term(three_cells, "a"), three_cell_delta()
    yield cell_term(three_cells, "c"), three_cell_delta()
    yield cell_term(three_cells, "f"), three_cell_delta()
    yield compile_net(three_cells), three_cell_delta()
    yield compile_net(confusion), confusion_delta()


def test_criterion_7a_row_stochastic(three_cells, confusion):
    rng = random.Random(46)
    checked = 0
    for term, delta in _example_terms(three_cells, confusion):
        arrow = interpret(term, delta)
        assert np.abs(arrow.matrix.sum(axis=1) - 1.0).max() <= 1e-9
        checked += 1
    for _ in range(10):
        marked = random_occurrence_net(rng)
        ty = typecheck(compile_net(marked))
        if max(len(ty.inputs), len(ty.outputs)) > 10:
            continue
        arrow = interpret(compile_net(marked), random_delta(marked, rng))
        assert np.abs(arrow.matrix.sum(axis=1) - 1.0).max() <= 1e-9
        checked += 1
    report(7, f"(a) {checked} interpreted arrows row-stochastic within 1e-9")


def test_criterion_7b_permutation_conjugation(three_cells, confusion):
    rng = random.Random(47)
    for term, delta in _example_terms(three_cells, confusion):
        ty = typecheck(term)
        for _ in range(20):
            pi, pi2 = (_shuffled(rng, ty.inputs) for _ in range(2))
            rho, rho2 = (_shuffled(rng, ty.outputs) for _ in range(2))
            direct = interpret(term, delta, pi, rho)
            conjugated = compose_arrows(
                compose_arrows(permutation_arrow(pi, pi2), interpret(term, delta, pi2, rho2)),
                permutation_arrow(rho2, rho),
            )
            np.testing.assert_allclose(direct.matrix, conjugated.matrix, rtol=0, atol=1e-12)
    report(7, "(b) permutation conjugation holds for 20 wiring pairs per example term within 1e-12")


def _shuffled(rng, places):
    order = sorted(places)
    rng.shuffle(order)
    return Wiring(tuple(order))


def test_criterion_7c_commutativity_and_normalization(three_cells, confusion):
    delta = three_cell_delta()
    term = compile_net(three_cells)
    first, second = term.first, term.second
    for stage in (first, second):
        swapped = Par(stage.right, stage.left)
        a = interpret(stage, delta)
        b = interpret(swapped, delta)
        np.testing.assert_allclose(a.matrix, b.matrix, rtol=0, atol=1e-12)
    for marked, table in ((three_cells, delta), (confusion, confusion_delta())):
        t = compile_net(marked)
        a = interpret(t, table)
        b = interpret(normalize(t), table)
        np.testing.assert_allclose(a.matrix, b.matrix, rtol=0, atol=1e-12)
    report(7, "(c) parallel commutativity and normalize-invariance hold within 1e-12")


def test_criterion_7d_canonical_round_trip():
    rng = random.Random(48)
    for _ in range(100):
        marked = random_occurrence_net(rng, max_places=8, max_transitions=6)
        assert fold_tree(canonical_form(marked)) == marked
    report(7, "(d) canonical form recomposes 100 random occurrence nets exactly")


def test_criterion_7e_cell_indecomposability(three_cells, confusion):
    rng = random.Random(49)
    nets = [three_cells, confusion] + [random_occurrence_net(rng) for _ in range(30)]
    checked = 0
    for marked in nets:
        for cell in scells(marked.net, marked.marking):
            fully = MarkedNet(cell.subnet.net, min_places(cell.subnet.net))
            tree = canonical_form(fully)
            assert isinstance(tree, CellLeaf)
            assert tree.cell.subnet.net == cell.subnet.net
            checked += 1
    report(7, f"(e) all {checked} computed cells are indecomposable")

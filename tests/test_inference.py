import re

import numpy as np
import pytest

from cellnet import (
    FileFormatError,
    InferenceError,
    Predicate,
    State,
    Wiring,
    WiringError,
    compile_net,
    condition,
    forward,
    interpret,
    marginalize,
    pullback,
    validity,
)
from cellnet.inference import format_state, parse_state
from conftest import three_cell_delta
import references
from references import identity_arrow, restrict_state

fs = frozenset


@pytest.fixture(scope="module")
def psi(three_cells):
    return interpret(compile_net(three_cells), three_cell_delta(), Wiring(("1",)))


def test_marginalize_c1(three_cells):
    from cellnet import compile_cell, scells

    cells = scells(three_cells.net, three_cells.marking)
    nc1 = next(c for c in cells if "a" in c.members).subnet
    arrow = interpret(compile_cell(nc1), three_cell_delta(pa=0.3), Wiring(("1",)), Wiring(("4", "5")))
    alpha = marginalize(arrow, {"4"})
    np.testing.assert_allclose(alpha.matrix, [[1, 0], [0.7, 0.3]], atol=1e-15)


def test_marginalize_c3_to_7(three_cells):
    from cellnet import compile_cell, scells

    cells = scells(three_cells.net, three_cells.marking)
    nc3 = next(c for c in cells if "f" in c.members).subnet
    arrow = interpret(
        compile_cell(nc3), three_cell_delta(pf=0.5),
        Wiring(("4", "6")), Wiring(("7", "8", "9", "10")),
    )
    gamma = marginalize(arrow, {"7"})
    np.testing.assert_allclose(gamma.matrix, [[0, 1], [0, 1], [0, 1], [0.5, 0.5]], atol=1e-15)


def test_marginalize_keep_all_is_identity_up_to_order(psi):
    full = marginalize(psi, psi.out_wiring.place_set)
    assert full.out_wiring == psi.out_wiring
    np.testing.assert_allclose(full.matrix, psi.matrix)


def test_marginalize_unknown_place(psi):
    with pytest.raises(InferenceError):
        marginalize(psi, {"zz"})


def test_forward_point_mass(psi):
    omega = State.point(psi.in_wiring, {"1"})
    pushed = forward(omega, psi)
    reduced = restrict_state(pushed, {"7"})
    assert reduced.prob(fs()) == pytest.approx(0.09, abs=1e-12)
    assert reduced.prob({"7"}) == pytest.approx(0.91, abs=1e-12)


def test_forward_empty_input_row(psi):
    pushed = forward(State.point(psi.in_wiring, fs()), psi)
    assert restrict_state(pushed, {"7"}).prob({"7"}) == pytest.approx(1.0)


def test_forward_identity_preserves_state():
    w = Wiring(("x", "y"))
    omega = State.from_mapping(w, {fs(): 0.25, fs({"x"}): 0.75})
    again = forward(omega, identity_arrow(w))
    np.testing.assert_allclose(again.probs, omega.probs)


def test_forward_wiring_mismatch(psi):
    with pytest.raises(InferenceError):
        forward(State.point(Wiring(("7",)), fs()), psi)


def test_pullback_and_validity_refuse_another_wiring(psi):
    reversed_out = Predicate.always(Wiring(tuple(reversed(psi.out_wiring.places))))
    message = (f"predicate wiring {reversed_out.wiring.places} does not match arrow output "
               f"{psi.out_wiring.places}")
    with pytest.raises(InferenceError, match=f"^{re.escape(message)}$"):
        pullback(psi, reversed_out)
    with pytest.raises(InferenceError, match="^state and predicate are wired differently$"):
        validity(State.point(Wiring(("1",)), fs()), Predicate.always(Wiring(("7",))))


def test_predicate_from_mapping():
    wiring = Wiring(("x", "y"))
    predicate = Predicate.from_mapping(wiring, {fs({"x"}): 0.5, fs({"x", "y"}): 1.0})
    assert predicate.values.tolist() == [0.0, 0.5, 0.0, 1.0]
    with pytest.raises(WiringError, match=re.escape("place 'z' is not wired by ('x', 'y')")):
        Predicate.from_mapping(wiring, {fs({"z"}): 1.0})
    with pytest.raises(InferenceError, match=re.escape("predicate values must lie in [0,1]")):
        Predicate.from_mapping(wiring, {fs(): 2.0})


def test_pullback_token_at_7(psi):
    q = Predicate.from_evidence(psi.out_wiring, {"7": True})
    back = pullback(psi, q)
    assert back.value({"1"}) == pytest.approx(1 - 0.09, abs=1e-12)
    assert back.value(fs()) == pytest.approx(1.0, abs=1e-12)


def test_pullback_constants(psi):
    ones = Predicate.always(psi.out_wiring)
    np.testing.assert_allclose(pullback(psi, ones).values, 1.0, atol=1e-12)
    zeros = Predicate(psi.out_wiring, np.zeros(psi.out_wiring.size))
    np.testing.assert_allclose(pullback(psi, zeros).values, 0.0)


def test_condition_posterior(psi):
    omega = State.from_mapping(psi.in_wiring, {fs(): 0.5, fs({"1"}): 0.5})
    q = Predicate.from_evidence(psi.out_wiring, {"7": True})
    posterior = condition(omega, pullback(psi, q))
    expected = (1 - 0.09) / (2 - 0.09)
    assert posterior.prob({"1"}) == pytest.approx(expected, abs=1e-12)
    assert posterior.prob(fs()) == pytest.approx(1 - expected, abs=1e-12)


def test_condition_with_true_predicate_is_noop(psi):
    omega = State.from_mapping(psi.in_wiring, {fs(): 0.5, fs({"1"}): 0.5})
    same = condition(omega, Predicate.always(psi.in_wiring))
    np.testing.assert_allclose(same.probs, omega.probs)


def test_condition_zero_validity(psi):
    omega = State.point(psi.in_wiring, fs())
    zero = Predicate(psi.in_wiring, np.zeros(psi.in_wiring.size))
    with pytest.raises(InferenceError):
        condition(omega, zero)


def test_bayes_consistency(psi):
    omega = State.from_mapping(psi.in_wiring, {fs(): 0.3, fs({"1"}): 0.7})
    q = Predicate.from_evidence(psi.out_wiring, {"7": True, "8": False})
    lhs = validity(omega, pullback(psi, q))
    rhs = validity(forward(omega, psi), q)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_marginalize_commutes_with_forward(psi):
    omega = State.from_mapping(psi.in_wiring, {fs(): 0.4, fs({"1"}): 0.6})
    keep = {"7", "9"}
    via_arrow = forward(omega, marginalize(psi, keep))
    via_state = restrict_state(forward(omega, psi), keep)
    assert via_arrow.wiring == via_state.wiring
    np.testing.assert_allclose(via_arrow.probs, via_state.probs, atol=1e-12)


def test_forward_preserves_normalization(psi):
    omega = State.from_mapping(psi.in_wiring, {fs(): 0.5, fs({"1"}): 0.5})
    assert float(forward(omega, psi).probs.sum()) == pytest.approx(1.0, abs=1e-9)


def test_state_file_round_trip():
    text = '{"places": ["1"], "probabilities": {"": 0.5, "1": 0.5}}'
    state = parse_state(text)
    assert state.prob(fs()) == 0.5
    assert state.prob({"1"}) == 0.5
    rendered = format_state(state)
    assert "{}" in rendered and "{1}" in rendered


def test_state_file_errors():
    from cellnet import FileFormatError

    for bad in ('{"places": ["1"]}',
                '{"places": ["1"], "probabilities": {"zz": 1.0}}',
                '{"places": ["1"], "probabilities": {"1": 0.7}}'):
        with pytest.raises(FileFormatError):
            parse_state(bad)


@pytest.mark.parametrize("text, message", [
    ("nope", "state file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1]", "state file needs exactly 'places' and 'probabilities'"),
    ('{"places": "1", "probabilities": {}}', "'places' must be a list of non-empty strings"),
    ('{"places": ["1"], "probabilities": []}', "'probabilities' must be an object"),
    ('{"places": ["1"], "probabilities": {"2": 1.0}}', "state mentions unknown places ['2']"),
    ('{"places": ["1"], "probabilities": {"1": 0.5, "1,1": 0.5}}', "duplicate subset '1,1' in state file"),
])
def test_state_file_names_its_fault(text, message):
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        parse_state(text)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_and_predicate_refuse_non_finite_entries(bad):
    wiring = Wiring(("1",))
    with pytest.raises(InferenceError, match=r"of \{1\} is .*not finite"):
        State(wiring, np.array([0.5, bad]))
    with pytest.raises(InferenceError, match=r"of \{\} is .*not finite"):
        Predicate(wiring, np.array([bad, 1.0]))


def test_place_marginal_adds_in_index_order():
    # the marked entries, summed one at a time in index order: bitwise
    # what a loop over the subsets gives
    rng = np.random.default_rng(5)
    for i in range(200):
        wiring = Wiring(tuple(f"p{k}" for k in range(1 + i % 10)))
        weights = rng.random(wiring.size) ** 3
        state = State(wiring, weights / weights.sum())
        for place in wiring.places:
            expected = 0.0
            for k, p in enumerate(state.probs.tolist()):
                if place in wiring.subset_at(k):
                    expected += p
            assert state.place_marginal(place).hex() == expected.hex()
    with pytest.raises(WiringError, match="'q' is not wired"):
        state.place_marginal("q")


def test_format_state_and_place_marginal_match_the_entry_by_entry_loops():
    # states with zero entries, which the text leaves out: the same text,
    # and bitwise the same marginals
    rng = np.random.default_rng(35)
    for i in range(300):
        wiring = Wiring(tuple(f"p{k}" for k in range(i % 9)))
        weights = rng.random(wiring.size) * (rng.random(wiring.size) < 0.6)
        weights[rng.integers(wiring.size)] += 1.0
        state = State(wiring, weights / weights.sum())
        assert format_state(state) == references.format_state(state)
        for place in wiring.places:
            assert state.place_marginal(place).hex() == references.place_marginal(state, place).hex()

"""Bayesian reasoning over compiled arrows: marginalization, forward
state push, predicate pullback, and conditioning.

States are distributions over the subsets of a wired interface;
predicates assign each subset a value in [0,1] (sharp events are the 0/1
special case).  Forward inference pushes a state through an arrow,
backward inference pulls a predicate back, and conditioning reweighs a
state by a predicate, normalising by the validity.

numpy is imported inside the functions that build or read an array, as
in ``kleisli``: ``cellnet`` imports this module for every command, and
the commands that never build a matrix should not pay numpy's import.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import FileFormatError, InferenceError
from .kleisli import TOLERANCE, KleisliArrow, Wiring, json_number, subset_index
from .nets import PlaceId, _Value

if TYPE_CHECKING:
    import numpy as np


class State(_Value):
    """A distribution over the subsets of a wired place set.  States
    compare and hash by identity."""

    __slots__ = _fields = ("wiring", "probs")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, wiring: Wiring, probs: np.ndarray) -> None:
        import numpy as np

        probs = np.asarray(probs, dtype=float)
        if probs.shape != (wiring.size,):
            raise InferenceError(
                f"state vector of length {probs.shape} does not match wiring "
                f"{wiring.places}"
            )
        _check_finite(wiring, probs, "state probability")
        if probs.min(initial=0.0) < -1e-12:
            raise InferenceError(f"state has a negative probability: {probs.min()}")
        if abs(float(probs.sum()) - 1.0) > TOLERANCE:
            raise InferenceError(f"state probabilities sum to {probs.sum()}, expected 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "wiring", wiring)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_mapping(cls, wiring: Wiring, table: Mapping[frozenset[PlaceId], float]) -> "State":
        import numpy as np

        probs = np.zeros(wiring.size)
        for subset, p in table.items():
            probs[wiring.index(subset)] += p
        return cls(wiring, probs)

    @classmethod
    def point(cls, wiring: Wiring, subset: Iterable[PlaceId]) -> "State":
        import numpy as np

        probs = np.zeros(wiring.size)
        probs[wiring.index(subset)] = 1.0
        return cls(wiring, probs)

    def prob(self, subset: Iterable[PlaceId]) -> float:
        return float(self.probs[self.wiring.index(subset)])

    def place_marginal(self, place: PlaceId) -> float:
        """Probability that the given place is marked."""
        # Python's sum, not numpy's pairwise one: the marked entries are
        # added one at a time, in index order
        marked = subset_index(self.wiring, Wiring((place,))) == 1
        return float(sum(self.probs[marked].tolist()))


class Predicate(_Value):
    """A [0,1]-valued function on the subsets of a wired place set;
    subsets not mentioned at construction default to 0.  Predicates
    compare and hash by identity."""

    __slots__ = _fields = ("wiring", "values")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, wiring: Wiring, values: np.ndarray) -> None:
        import numpy as np

        values = np.asarray(values, dtype=float)
        if values.shape != (wiring.size,):
            raise InferenceError(
                f"predicate vector of length {values.shape} does not match wiring "
                f"{wiring.places}"
            )
        _check_finite(wiring, values, "predicate value")
        if values.min(initial=0.0) < -1e-12 or values.max(initial=0.0) > 1.0 + 1e-12:
            raise InferenceError("predicate values must lie in [0,1]")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "wiring", wiring)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_mapping(cls, wiring: Wiring, table: Mapping[frozenset[PlaceId], float]) -> "Predicate":
        import numpy as np

        values = np.zeros(wiring.size)
        for subset, v in table.items():
            values[wiring.index(subset)] = v
        return cls(wiring, values)

    @classmethod
    def always(cls, wiring: Wiring) -> "Predicate":
        import numpy as np

        return cls(wiring, np.ones(wiring.size))

    @classmethod
    def from_evidence(cls, wiring: Wiring, evidence: Mapping[PlaceId, bool]) -> "Predicate":
        """The sharp predicate holding exactly on subsets that agree
        with the observed presence/absence of tokens."""
        import numpy as np

        agree = np.ones(wiring.size, dtype=bool)
        for place, present in evidence.items():
            agree &= subset_index(wiring, Wiring((place,))) == bool(present)
        return cls(wiring, agree.astype(float))

    def value(self, subset: Iterable[PlaceId]) -> float:
        return float(self.values[self.wiring.index(subset)])


def _check_finite(wiring: Wiring, vector: np.ndarray, what: str) -> None:
    """Refuse a NaN or infinite entry, naming the subset it belongs to."""
    import numpy as np

    bad = np.flatnonzero(~np.isfinite(vector))
    if bad.size:
        k = int(bad[0])
        subset = ",".join(sorted(wiring.subset_at(k)))
        raise InferenceError(f"{what} of {{{subset}}} is {vector[k]}, not finite")


def marginalize(arrow: KleisliArrow, keep: Iterable[PlaceId]) -> KleisliArrow:
    """Discard the output wires outside ``keep``, summing the columns
    that agree on the kept places."""
    import numpy as np

    keep = frozenset(keep)
    stray = keep - arrow.out_wiring.place_set
    if stray:
        raise InferenceError(f"cannot keep unknown output places {sorted(stray)}")
    new_out = Wiring(tuple(p for p in arrow.out_wiring.places if p in keep))
    matrix = np.zeros((arrow.in_wiring.size, new_out.size))
    # unbuffered, in column order: each sum is accumulated left to right
    np.add.at(matrix, (slice(None), subset_index(arrow.out_wiring, new_out)), arrow.matrix)
    return KleisliArrow(arrow.in_wiring, new_out, matrix)


def forward(state: State, arrow: KleisliArrow) -> State:
    """Push a state through an arrow (vector-matrix product)."""
    if state.wiring != arrow.in_wiring:
        raise InferenceError(
            f"state wiring {state.wiring.places} does not match arrow input "
            f"{arrow.in_wiring.places}"
        )
    return State(arrow.out_wiring, state.probs @ arrow.matrix)


def pullback(arrow: KleisliArrow, predicate: Predicate) -> Predicate:
    """Pull a predicate on the outputs back to a predicate on the
    inputs: the expected value of the predicate under each row."""
    if predicate.wiring != arrow.out_wiring:
        raise InferenceError(
            f"predicate wiring {predicate.wiring.places} does not match arrow output "
            f"{arrow.out_wiring.places}"
        )
    return Predicate(arrow.in_wiring, arrow.matrix @ predicate.values)


def validity(state: State, predicate: Predicate) -> float:
    """Expected value of the predicate under the state (ω ⊨ p)."""
    if state.wiring != predicate.wiring:
        raise InferenceError("state and predicate are wired differently")
    return float(state.probs @ predicate.values)


def condition(state: State, predicate: Predicate) -> State:
    """Condition a state on a predicate: reweigh pointwise and divide by
    the validity.  Fails when the validity is zero."""
    norm = validity(state, predicate)
    if norm <= 0.0:
        raise InferenceError("cannot condition on a predicate of zero validity")
    return State(state.wiring, state.probs * predicate.values / norm)


# --------------------------------------------------------------------- #
# State file format
# --------------------------------------------------------------------- #

def parse_state(text: str) -> State:
    """State file: {"places": [...], "probabilities": {"p,q": 0.5, ...}}
    with subsets keyed by comma-joined place ids ("" for the empty
    subset) and the wiring taken from the ``places`` order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"places", "probabilities"}:
        raise FileFormatError("state file needs exactly 'places' and 'probabilities'")
    places = doc["places"]
    probs = doc["probabilities"]
    if not isinstance(places, list) or not all(isinstance(p, str) and p for p in places):
        raise FileFormatError("'places' must be a list of non-empty strings")
    if not isinstance(probs, dict):
        raise FileFormatError("'probabilities' must be an object")
    wiring = Wiring(tuple(places))
    table: dict[frozenset[str], float] = {}
    for label, value in probs.items():
        subset = frozenset(label.split(",")) if label else frozenset()
        stray = subset - wiring.place_set
        if stray:
            raise FileFormatError(f"state mentions unknown places {sorted(stray)}")
        if subset in table:
            raise FileFormatError(f"duplicate subset {label!r} in state file")
        table[subset] = json_number(value, f"state probability of {{{label}}}")
    try:
        return State.from_mapping(wiring, table)
    except InferenceError as exc:
        raise FileFormatError(str(exc)) from exc


def load_state(path: str) -> State:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_state(handle.read())


def format_state(state: State) -> str:
    lines = []
    for k, v in enumerate(state.probs):
        if v > 0:
            label = ",".join(sorted(state.wiring.subset_at(k)))
            lines.append(f"{{{label}}}: {float(v):.12g}")
    return "\n".join(lines) + "\n"

"""Stochastic-matrix semantics for terms.

An interface of n places, once given a wiring (a total order on the
places), indexes the 2^n subsets of the interface: the first wired place
is the least-significant bit, so for places p < q the induced order is
{}, {p}, {q}, {p,q}.  A Kleisli arrow is then a row-stochastic matrix
from input subsets to output subsets.

Interpreting a term is one walk that pushes rows through it instead of
building its layers: the identity on the term's inputs is carried
through each ``;`` in turn, and through each ``+`` one factor at a time,
contracting the factor's matrix into the bit axes of the places it
consumes.  Only cell constants (one row driven by the δ table's
distribution over their transactions), dead wires and sums (one row per
input subset, each the branch pushed from the empty cut by the same
walk) build matrices of their own, so no Kronecker product or whole
layer is ever formed.  The empty cut, the monoidal unit ``I{}``, holds
no matrix until its first factor, which by the unit law becomes the cut
as it is: a term with no inputs and every sum branch start from their
first factor, and nothing is contracted into the identity on no places.
Each cut is checked against the width cap before anything is allocated
for it.  One column gather relabels the result to the requested wiring.

numpy is imported inside the functions that build or read an array,
not at the top of the module: the structural commands (``compile``,
``canon``, ``cells`` and the others that never build a matrix) import
this module through ``cellnet`` and should not pay numpy's import.
Once numpy is loaded, each such import is a lookup in ``sys.modules``.
"""

from __future__ import annotations

import json
import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from .errors import DeltaError, FileFormatError, InterfaceWidthError, WiringError
from .nets import PlaceId, Process, Walk, _Value, run
from .terms import (
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

if TYPE_CHECKING:
    import numpy as np

DEFAULT_WIDTH_CAP = 20
TOLERANCE = 1e-9  # how far a row, state or distribution may sum from 1

Places = tuple[PlaceId, ...]  # a wiring's places, without the Wiring checks


class Wiring(_Value):
    """A repetition-free total order on a set of places."""

    __slots__ = _fields = ("places",)

    def __init__(self, places: tuple[PlaceId, ...]) -> None:
        places = tuple(places)
        if len(set(places)) != len(places):
            raise WiringError(f"wiring repeats places: {places}")
        object.__setattr__(self, "places", places)

    @property
    def place_set(self) -> frozenset[PlaceId]:
        return frozenset(self.places)

    def __len__(self) -> int:
        return len(self.places)

    @property
    def size(self) -> int:
        """Number of indexed subsets, 2^|places|."""
        return 1 << len(self.places)

    def position(self, place: PlaceId) -> int:
        """1-based position of a place in the wiring."""
        try:
            return self.places.index(place) + 1
        except ValueError:
            raise WiringError(f"place {place!r} is not wired by {self.places}") from None

    def index(self, subset: Iterable[PlaceId]) -> int:
        """Subset index: sum of 2^(position-1) over the members."""
        total = 0
        for place in set(subset):
            total += 1 << (self.position(place) - 1)
        return total

    def subset_at(self, index: int) -> frozenset[PlaceId]:
        if not 0 <= index < self.size:
            raise WiringError(f"subset index {index} out of range for {self.places}")
        return frozenset(p for bit, p in enumerate(self.places) if index >> bit & 1)

    def subsets(self) -> Iterator[frozenset[PlaceId]]:
        """All subsets in index order."""
        for k in range(self.size):
            yield self.subset_at(k)


def lex_wiring(places: Iterable[PlaceId]) -> Wiring:
    """The default wiring: lexicographic order on place identifiers."""
    return Wiring(tuple(sorted(places)))


class Dist(Mapping):
    """An immutable finite probability distribution.

    Outcomes may be any hashable values (place subsets, transaction
    sets, configurations).  Probabilities must be non-negative and sum
    to one within 1e-9; zero-probability outcomes are dropped, so
    iterating yields exactly the support.
    """

    __slots__ = ("_table",)

    def __init__(self, table: Mapping[Hashable, float]) -> None:
        cleaned: dict[Hashable, float] = {}
        for outcome, prob in table.items():
            prob = float(prob)
            if not math.isfinite(prob):
                raise DeltaError(f"probability {prob} for {outcome!r} is not finite")
            if prob < -1e-12:
                raise DeltaError(f"negative probability {prob} for {outcome!r}")
            if prob > 0:
                cleaned[outcome] = prob
        total = sum(cleaned.values())
        if abs(total - 1.0) > TOLERANCE:
            raise DeltaError(f"probabilities sum to {total}, expected 1")
        self._table = cleaned

    def __getitem__(self, outcome: Hashable) -> float:
        return self._table[outcome]

    def prob(self, outcome: Hashable) -> float:
        return self._table.get(outcome, 0.0)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def support(self) -> frozenset[Hashable]:
        return frozenset(self._table)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v:.6g}" for k, v in sorted(self._table.items(), key=repr))
        return f"Dist({{{inner}}})"


def uniform_dist(outcomes: Iterable[Hashable]) -> Dist:
    outcomes = list(outcomes)
    if not outcomes:
        raise DeltaError("cannot build a uniform distribution over nothing")
    return Dist({o: 1.0 / len(outcomes) for o in outcomes})


class KleisliArrow(_Value):
    """A row-stochastic matrix from input subsets to output subsets,
    together with the wirings that fix the subset indexing.  Arrows
    compare and hash by identity."""

    __slots__ = _fields = ("in_wiring", "out_wiring", "matrix")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, in_wiring: Wiring, out_wiring: Wiring, matrix: np.ndarray) -> None:
        import numpy as np

        matrix = np.asarray(matrix, dtype=float)
        expected = (in_wiring.size, out_wiring.size)
        if matrix.shape != expected:
            raise WiringError(f"matrix shape {matrix.shape} does not match interfaces {expected}")
        _check_stochastic(matrix)
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "in_wiring", in_wiring)
        object.__setattr__(self, "out_wiring", out_wiring)
        object.__setattr__(self, "matrix", matrix)

    def entry(self, inp: Iterable[PlaceId], out: Iterable[PlaceId]) -> float:
        return float(self.matrix[self.in_wiring.index(inp), self.out_wiring.index(out)])


def _check_stochastic(matrix: np.ndarray) -> None:
    """Refuse a matrix with a non-finite entry, or with a negative entry
    or a row that does not sum to one, both within ``TOLERANCE``.

    A valid matrix costs one pass: its row sums, their worst error (NaN
    or infinite when an entry is not finite, so it fails the test) and
    its least entry.  Only a refused matrix is looked at again, to name
    the first fault in that order."""
    import numpy as np

    sums = matrix.sum(axis=1)
    worst = float(np.abs(sums - 1.0).max(initial=0.0))
    if worst <= TOLERANCE and matrix.min(initial=0.0) >= -TOLERANCE:
        return
    if not np.isfinite(sums).all():  # a NaN or infinite entry spoils its row's sum
        row = int(np.flatnonzero(~np.isfinite(sums))[0])
        col = int(np.argmax(~np.isfinite(matrix[row])))
        raise WiringError(f"matrix entry ({row}, {col}) is {matrix[row, col]}, not finite")
    if matrix.min(initial=0.0) < -TOLERANCE:
        raise WiringError(f"matrix has a negative entry: {matrix.min()}")
    raise WiringError(f"matrix is not row-stochastic (worst row error {worst:.3e})")


def permutation_arrow(source: Wiring, target: Wiring) -> KleisliArrow:
    """The 0/1 arrow relabelling subset indices between two wirings of
    the same place set: one column gather of the identity."""
    import numpy as np

    if source.place_set != target.place_set:
        raise WiringError(f"wirings order different sets: {source.places} vs {target.places}")
    return KleisliArrow(source, target, np.eye(source.size)[:, subset_index(target, source)])


def subset_index(wiring: Wiring, kept: Wiring) -> np.ndarray:
    """Index vector r with r[k] = kept.index(wiring.subset_at(k) & kept's
    places), for a wiring ``kept`` of some of the wiring's places: bit b
    of r[k] is the bit of k at the wiring's position of kept's b-th
    place.  When both wire one set, r relabels subset indices."""
    import numpy as np

    k = np.arange(wiring.size)
    index = np.zeros(wiring.size, dtype=np.intp)
    for bit, place in enumerate(kept.places):
        index |= (k >> (wiring.position(place) - 1) & 1) << bit
    return index


class DeltaTable(_Value):
    """Distributions over transactions, keyed by constant signature.

    Strict tables refuse to interpret a constant they do not cover;
    non-strict tables fall back to the uniform distribution over the
    constant's transactions.  The table keeps a read-only view of a
    copy of ``entries``.
    """

    __slots__ = _fields = ("entries", "strict")

    def __init__(self, entries: Mapping[str, Dist] = {}, strict: bool = True) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(entries)))
        object.__setattr__(self, "strict", strict)

    def __reduce__(self) -> tuple[type, tuple]:
        return DeltaTable, (dict(self.entries), self.strict)

    def distribution_for(self, key: ConstantKey) -> Dist:
        dist = self.entries.get(key.signature)
        if dist is None:
            if self.strict:
                raise DeltaError(f"no δ entry for constant {key.signature!r}")
            return uniform_dist(p.transitions for p in key.transactions)
        labels = _stray_labels(key, dist)
        if labels:
            raise DeltaError(
                f"δ for {key.signature!r} assigns probability outside the "
                f"transactions: {labels}"
            )
        return dist


def _stray_labels(key: ConstantKey, dist: Dist) -> list[str]:
    """Sorted labels of the transition sets ``dist`` gives probability
    to that are not transactions of the constant."""
    allowed = {p.transitions for p in key.transactions}
    return sorted(",".join(sorted(s)) for s in dist.support - allowed)


class DeltaProblem(_Value):
    __slots__ = _fields = ("signature", "kind", "detail")

    def __init__(self, signature: str, kind: str, detail: str) -> None:
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "kind", kind)  # "missing" | "support"
        object.__setattr__(self, "detail", detail)

    def __str__(self) -> str:
        return f"{self.kind} [{self.signature}]: {self.detail}"


class DeltaReport(_Value):
    __slots__ = _fields = ("problems", "filled_uniform")

    def __init__(self, problems: tuple[DeltaProblem, ...], filled_uniform: tuple[str, ...]) -> None:
        object.__setattr__(self, "problems", problems)
        object.__setattr__(self, "filled_uniform", filled_uniform)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        lines = [str(p) for p in self.problems]
        lines += [f"filled uniform [{s}]" for s in self.filled_uniform]
        return "\n".join(lines) if lines else "OK"


def validate_delta(delta: DeltaTable, needed: Iterable[ConstantKey]) -> DeltaReport:
    """Check that a δ table covers every needed constant with a
    well-formed distribution over its transactions.  In non-strict mode
    missing entries are reported as filled with the uniform distribution
    instead of as errors."""
    problems: list[DeltaProblem] = []
    filled: list[str] = []
    for key in sorted(needed, key=lambda k: k.signature):
        dist = delta.entries.get(key.signature)
        if dist is None:
            if delta.strict:
                problems.append(DeltaProblem(key.signature, "missing", "no entry"))
            else:
                filled.append(key.signature)
            continue
        labels = _stray_labels(key, dist)
        if labels:
            problems.append(
                DeltaProblem(key.signature, "support", f"unknown transactions {labels}")
            )
    return DeltaReport(tuple(problems), tuple(filled))


def load_delta(text: str, *, strict: bool = True) -> DeltaTable:
    """Parse the δ file format: a JSON list of entries

        {"signature": "e,g|e,h|f", "probabilities": {"f": 0.5, ...}}

    where each probability is keyed by a transaction's transition set
    (comma-joined, sorted).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"δ file is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise FileFormatError("δ file must contain a JSON list of entries")
    entries: dict[str, Dist] = {}
    for item in doc:
        if not isinstance(item, dict) or set(item) != {"signature", "probabilities"}:
            raise FileFormatError("each δ entry needs exactly 'signature' and 'probabilities'")
        signature = item["signature"]
        probs = item["probabilities"]
        if not isinstance(signature, str) or not isinstance(probs, dict):
            raise FileFormatError(f"malformed δ entry for {signature!r}")
        if signature in entries:
            raise FileFormatError(f"duplicate δ entry for {signature!r}")
        table: dict[frozenset[str], float] = {}
        labels: dict[frozenset[str], str] = {}
        for label, p in probs.items():
            outcome = frozenset(label.split(",")) if label else frozenset()
            if outcome in labels:
                raise FileFormatError(
                    f"bad δ entry for {signature!r}: labels {labels[outcome]!r} and {label!r} "
                    "name the same transition set"
                )
            labels[outcome] = label
            table[outcome] = json_number(p, f"bad δ entry for {signature!r}: probability of {label!r}")
        try:
            entries[signature] = Dist(table)
        except DeltaError as exc:
            raise FileFormatError(f"bad δ entry for {signature!r}: {exc}") from exc
    return DeltaTable(entries, strict=strict)


def json_number(value: object, what: str) -> float:
    """A JSON number read from a file, as a float; a FileFormatError
    naming ``what`` for anything else (``true`` and ``"0"`` included)
    and for an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{what} is not a number: {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise FileFormatError(f"{what} is too large for a float: {value}") from None


def dump_delta(delta: DeltaTable) -> str:
    doc = [
        {
            "signature": signature,
            "probabilities": {
                ",".join(sorted(outcome)): prob for outcome, prob in sorted(
                    dist.items(), key=lambda kv: sorted(kv[0])
                )
            },
        }
        for signature, dist in sorted(delta.entries.items())
    ]
    return json.dumps(doc, indent=2) + "\n"


def interpret(
    term: Term,
    delta: DeltaTable,
    in_wiring: Wiring | None = None,
    out_wiring: Wiring | None = None,
    *,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> KleisliArrow:
    """Interpret a well-typed term as a Kleisli arrow.

    ``in_wiring``/``out_wiring`` must wire the term's input/output
    interfaces (default: lexicographic).  The identity on the inputs, in
    their lexicographic wiring, is pushed through the term by one walk
    (see :func:`_push`); no Kronecker product, layer matrix or
    permutation matrix is built.  A term with no inputs starts from the
    empty cut, which holds no matrix: its first factor becomes the cut,
    and a term that builds none (an identity on no places) is the 1×1
    matrix [[1]].  The result is relabelled to the requested wirings
    once, by one row and one column gather.  By the
    permutation-conjugation property, interpreting under other wirings
    gives the same arrow up to that relabelling.

    ``width_cap`` bounds the term's interface and every cut the pushed
    rows range over, each checked before anything is allocated for it;
    since a subterm's inputs lie in the cut before it and its outputs in
    the cut after it, that bounds every subterm's interface too.  Every
    intermediate matrix must be non-negative and row-stochastic within
    ``TOLERANCE``; the returned arrow checks itself, as every arrow does.
    """
    import numpy as np

    ty = typecheck(term)
    if in_wiring is None:
        in_wiring = lex_wiring(ty.inputs)
    if out_wiring is None:
        out_wiring = lex_wiring(ty.outputs)
    if in_wiring.place_set != ty.inputs:
        raise WiringError(
            f"input wiring {in_wiring.places} does not wire the term inputs {sorted(ty.inputs)}"
        )
    if out_wiring.place_set != ty.outputs:
        raise WiringError(
            f"output wiring {out_wiring.places} does not wire the term outputs {sorted(ty.outputs)}"
        )
    _check_width(max(len(ty.inputs), len(ty.outputs)), width_cap)
    ins = tuple(sorted(ty.inputs))
    start = np.eye(1 << len(ins)) if ins else None  # None: the empty cut
    matrix, places = run(_push(start, ins, term, delta, width_cap))
    if matrix is None:  # the term is an identity on no places
        matrix = np.ones((1, 1))
    rows = subset_index(in_wiring, Wiring(ins))
    cols = subset_index(out_wiring, Wiring(places))
    return KleisliArrow(in_wiring, out_wiring, matrix[np.ix_(rows, cols)])


def _check_width(width: int, cap: int) -> None:
    if width > cap:
        raise InterfaceWidthError(
            f"interface of width {width} exceeds the cap {cap}: the dense matrix "
            f"would have 2^{width} columns (exponential blowup); raise the cap "
            "explicitly if this is intended"
        )


def _push(
    matrix: np.ndarray | None, places: Places, term: Term, delta: DeltaTable, cap: int
) -> Walk[tuple[np.ndarray | None, Places]]:
    """Push rows through a term: ``matrix``'s columns range over the
    subsets of a cut of places, wired by ``places`` (first place
    lowest), that includes the term's inputs; after the term they range
    over the cut with those inputs replaced by the term's outputs.

    ``;`` pushes its first part, then its second, and ``+`` its factors
    one after another, narrowing ones first, so that the cut through one
    layer never grows beyond the wider end of that layer; identity wires
    stay where they are, with no walk of their own.  A dead wire, a
    constant (one row driven by the δ table's distribution over its
    transactions) and a sum (one row per input subset, in
    ``subsets_lex`` order, each its branch pushed from the empty cut and
    gathered to the sum's output wiring where the branch wires them
    otherwise) build a matrix of their own, once the cut they leave is
    checked against the cap, and it is contracted into the cut by
    :func:`_contract`.

    The empty cut before its first factor is ``matrix=None`` with no
    places: the first factor pushed into it is the cut as it is, with no
    contraction and no second check, and a walk that builds no factor
    returns ``None``.  Every factor and every contraction's result is
    checked by :func:`_check_stochastic`.
    """
    if isinstance(term, Seq):
        for part in (term.first, term.second):
            if not isinstance(part, Identity):  # an identity leaves the cut as it is
                matrix, places = yield _push(matrix, places, part, delta, cap)
        return matrix, places
    if isinstance(term, Par):
        for factor in _narrowing_first(term):
            matrix, places = yield _push(matrix, places, factor, delta, cap)
        return matrix, places
    if isinstance(term, Identity):
        return matrix, places
    import numpy as np

    ty = typecheck(term)
    ins, outs = tuple(sorted(ty.inputs)), tuple(sorted(ty.outputs))
    _check_width(len(places) - len(ins) + len(outs), cap)
    if isinstance(term, Sum):
        rows = []
        for m in subsets_lex(ty.inputs):
            row, got = yield _push(None, (), term.branch(m), delta, cap)
            if row is None:  # the branch is an identity on no places
                row = np.ones((1, 1))
            rows.append(row if got == outs else row[:, subset_index(Wiring(outs), Wiring(got))])
        factor = np.vstack(rows)
    else:
        factor = np.zeros((1, 1 << len(outs)))
        if isinstance(term, Dead):
            factor[0, 0] = 1.0
        else:  # a constant
            dist, wiring = delta.distribution_for(term.key), Wiring(outs)
            # sorted so that float accumulation is reproducible across runs
            for proc in sorted(term.key.transactions, key=Process.sort_key):
                factor[0, wiring.index(proc.final_places)] += dist.prob(proc.transitions)
    _check_stochastic(factor)
    if matrix is None:  # the empty cut: by the unit law, the factor is the cut
        return factor, outs
    matrix, places = _contract(matrix, places, factor, ins, outs)
    _check_stochastic(matrix)
    return matrix, places


def _narrowing_first(term: Par) -> list[Term]:
    """The factors of a ``+`` tree, stably sorted by how many places each
    adds to the cut (outputs minus inputs).  Identities, which leave the
    cut as it is, are left out."""
    factors: list[Term] = []
    pending: list[Term] = [term]
    while pending:
        t = pending.pop()
        if isinstance(t, Par):
            pending += (t.right, t.left)
        elif not isinstance(t, Identity):
            factors.append(t)

    def growth(factor: Term) -> int:
        ty = typecheck(factor)
        return len(ty.outputs) - len(ty.inputs)

    return sorted(factors, key=growth)


def _contract(
    matrix: np.ndarray, places: Places, factor: np.ndarray, ins: Places, outs: Places
) -> tuple[np.ndarray, Places]:
    """Contract ``factor`` (rows wired by ``ins``, columns by ``outs``)
    into the cut: split the columns into one size-2 axis per place, move
    the inputs' axes last in their wiring's bit order, multiply once,
    and let the outputs take the low bits."""
    n = len(places)
    consumed = set(ins)
    rest = tuple(p for p in places if p not in consumed)
    axis = {p: n - bit for bit, p in enumerate(places)}  # axis 0 holds the rows
    order = [0] + [axis[p] for p in reversed(rest)] + [axis[p] for p in reversed(ins)]
    rows = matrix.shape[0]
    cut = matrix.reshape((rows,) + (2,) * n).transpose(order).reshape(-1, factor.shape[0])
    return (cut @ factor).reshape(rows, -1), outs + rest


# --------------------------------------------------------------------- #
# Matrix export
# --------------------------------------------------------------------- #

def arrow_to_json(arrow: KleisliArrow) -> str:
    doc = {
        "inputs": [sorted(s) for s in arrow.in_wiring.subsets()],
        "outputs": [sorted(s) for s in arrow.out_wiring.subsets()],
        "rows": [[float(v) for v in row] for row in arrow.matrix],
    }
    return json.dumps(doc, indent=2) + "\n"


def arrow_to_csv(arrow: KleisliArrow) -> str:
    header = [""] + [render_place_set(s) for s in arrow.out_wiring.subsets()]
    lines = [",".join('"%s"' % h for h in header)]
    for k, row in enumerate(arrow.matrix):
        label = render_place_set(arrow.in_wiring.subset_at(k))
        lines.append(",".join(['"%s"' % label] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def format_arrow(arrow: KleisliArrow) -> str:
    """Human-readable table with subset-labelled rows and columns."""
    col_labels = [render_place_set(s) for s in arrow.out_wiring.subsets()]
    row_labels = [render_place_set(s) for s in arrow.in_wiring.subsets()]
    cells = [[f"{float(v):.6g}" for v in row] for row in arrow.matrix]
    widths = [
        max(len(col_labels[j]), *(len(cells[i][j]) for i in range(len(cells))))
        for j in range(len(col_labels))
    ]
    label_width = max(len(label) for label in row_labels)
    lines = [
        " ".join([" " * label_width] + [col_labels[j].rjust(widths[j]) for j in range(len(widths))])
    ]
    for i, row in enumerate(cells):
        lines.append(
            " ".join([row_labels[i].ljust(label_width)] + [row[j].rjust(widths[j]) for j in range(len(widths))])
        )
    return "\n".join(lines) + "\n"

"""The typed intermediate language that occurrence nets compile into.

Terms are built from identity wires, dead outputs, parallel and
sequential composition, cell constants (a fully-marked cell described by
its set of transactions) and marking-indexed sums (one branch per subset
of a cell's unmarked inputs).  A term's type is the triple
(inputs, nodes, outputs); typing is unique and ill-formed combinations
are rejected.

Normalization returns a canonical representative modulo the axioms of
the commutative monoidal pre-category (associativity/commutativity of +
with unit I{}, associativity and identity laws of ;, functoriality, and
the dead-wire laws Bot{} = I{} and Bot{s∪s'} = Bot{s} + Bot{s'}): the
term is decomposed into its atomic blocks, which are restratified into
layers by place dataflow and reassembled in a fixed order.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple

from .cells import stratify
from .errors import TermError, TermSyntaxError
from .nets import PlaceId, Process, Walk, _Value, run


def render_place_set(places: Iterable[str]) -> str:
    return "{" + ",".join(sorted(places)) + "}"


def subsets_lex(places: Iterable[str]) -> list[frozenset[str]]:
    """All subsets of a place set, in binary-counting order with the
    lexicographically first place as the least-significant bit."""
    out = [frozenset()]
    for p in sorted(places):  # each place doubles the list: the subsets without it, then with it
        out += [s | {p} for s in out]
    return out


class ConstantKey(_Value):
    """Identity of a cell constant: the marked input places, the output
    places, and the set of transactions δ distributes over."""

    # the signature is kept outside the fields, so that equality,
    # hashing and repr are those of the three fields
    __slots__ = ("marked", "outputs", "transactions", "_signature")
    _fields = ("marked", "outputs", "transactions")

    def __init__(self, marked: frozenset[PlaceId], outputs: frozenset[PlaceId],
                 transactions: frozenset[Process]) -> None:
        marked, outputs, transactions = frozenset(marked), frozenset(outputs), frozenset(transactions)
        if not transactions:
            raise TermError("a cell constant needs at least one transaction")
        if len({p.transitions for p in transactions}) < len(transactions):
            labels = sorted(p.label for p in transactions)
            twice = next(a for a, b in zip(labels, labels[1:]) if a == b)
            raise TermError(f"constant has two transactions on the transition set {{{twice}}}")
        finals = frozenset().union(*(p.final_places for p in transactions))
        if finals != outputs:
            raise TermError(
                f"constant outputs {sorted(outputs)} do not match the union "
                f"of transaction final places {sorted(finals)}"
            )
        for proc in transactions:
            if not proc.initial_places <= marked:
                raise TermError(
                    f"transaction {proc.label} consumes unmarked places "
                    f"{sorted(proc.initial_places - marked)}"
                )
        object.__setattr__(self, "marked", marked)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "transactions", transactions)
        object.__setattr__(self, "_signature", "|".join(sorted(p.label for p in transactions)))

    @property
    def signature(self) -> str:
        """Canonical rendering of the transaction sets, e.g. ``e,g|e,h|f``."""
        return self._signature

    @property
    def nodes(self) -> frozenset[str]:
        acc = frozenset(self.marked)
        for proc in self.transactions:
            acc |= proc.nodes
        return acc


_HASH = "_hash"  # the instance attribute that holds a node's hash


class Term(_Value):
    """Base class of the term AST.  The nodes are immutable values whose
    equality and hashing are this class's.

    Equality and hashing are structural: two terms are equal when they
    are nodes of one kind with equal fields.  Both walk the term with a
    list instead of recursing, so a term nested past Python's recursion
    limit compares and hashes.  A node's hash is computed once and kept
    on the node, outside its fields, as :func:`typecheck` keeps its
    type."""

    def _parts(self) -> tuple[tuple, tuple[Term, ...]]:
        """The node's fields that are not terms, and its subterms."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            own_a, subs_a = a._parts()
            own_b, subs_b = b._parts()
            if own_a != own_b or len(subs_a) != len(subs_b):
                return False
            pending.extend(zip(subs_a, subs_b))
        return True

    def __hash__(self) -> int:
        pending = [self]  # each node is hashed after its subterms
        while pending:
            t = pending[-1]
            if _HASH in t.__dict__:
                pending.pop()
                continue
            own, subs = t._parts()
            unhashed = [sub for sub in subs if _HASH not in sub.__dict__]
            if unhashed:
                pending += unhashed
                continue
            pending.pop()
            below = tuple(sub.__dict__[_HASH] for sub in subs)
            t.__dict__[_HASH] = hash((type(t).__name__, own, below))
        return self.__dict__[_HASH]


class Identity(Term):
    _fields = ("places",)

    def __init__(self, places: frozenset[PlaceId]) -> None:
        self.__dict__["places"] = frozenset(places)

    def _parts(self) -> tuple[tuple, tuple[Term, ...]]:
        return (self.places,), ()


class Dead(Term):
    _fields = ("places",)

    def __init__(self, places: frozenset[PlaceId]) -> None:
        self.__dict__["places"] = frozenset(places)

    def _parts(self) -> tuple[tuple, tuple[Term, ...]]:
        return (self.places,), ()


class Par(Term):
    _fields = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        self.__dict__.update(left=left, right=right)

    def _parts(self) -> tuple[tuple, tuple[Term, ...]]:
        return (), (self.left, self.right)


class Seq(Term):
    _fields = ("first", "second")

    def __init__(self, first: Term, second: Term) -> None:
        self.__dict__.update(first=first, second=second)

    def _parts(self) -> tuple[tuple, tuple[Term, ...]]:
        return (), (self.first, self.second)


class Constant(Term):
    _fields = ("key",)

    def __init__(self, key: ConstantKey) -> None:
        self.__dict__["key"] = key

    def _parts(self) -> tuple[tuple, tuple[Term, ...]]:
        return (self.key,), ()


class Sum(Term):
    """Case split over the subsets of ``inputs``; branches are stored
    sorted by subset so structurally equal sums compare equal."""

    _fields = ("inputs", "branches")

    def __init__(self, inputs: frozenset[PlaceId],
                 branches: tuple[tuple[frozenset[PlaceId], Term], ...]) -> None:
        normalized = tuple(
            sorted(
                ((frozenset(m), t) for m, t in branches),
                key=lambda item: (len(item[0]), sorted(item[0])),
            )
        )
        # the branch table is kept outside the fields, like the stored type
        self.__dict__.update(inputs=frozenset(inputs), branches=normalized, _by_subset=dict(normalized))

    def branch(self, m: frozenset[PlaceId]) -> Term:
        try:
            return self._by_subset[frozenset(m)]
        except KeyError:
            raise TermError(f"sum has no branch for {render_place_set(m)}") from None

    def _parts(self) -> tuple[tuple, tuple[Term, ...]]:
        return (self.inputs, tuple(m for m, _ in self.branches)), tuple(t for _, t in self.branches)


def make_sum(inputs: Iterable[PlaceId], branches: Mapping[frozenset[PlaceId], Term]) -> Sum:
    return Sum(frozenset(inputs), tuple(branches.items()))


def par_all(terms: list[Term]) -> Term:
    """Parallel composition of the terms in order, as a balanced tree:
    neighbours are paired level by level, so the + nesting is about
    log2(len(terms)) deep and up to three terms nest to the left."""
    while len(terms) > 1:
        paired = [Par(a, b) for a, b in zip(terms[::2], terms[1::2])]
        terms = paired + terms[len(paired) * 2:]
    return terms[0]


class TermType(_Value):
    """(inputs, nodes, outputs): unmarked input places, every place and
    transition mentioned, and output places."""

    __slots__ = _fields = ("inputs", "nodes", "outputs")

    def __init__(self, inputs: frozenset[str], nodes: frozenset[str], outputs: frozenset[str]) -> None:
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "outputs", outputs)


class _TypecheckInfo(NamedTuple):
    """What :func:`typecheck` has done in this process: ``misses`` is
    the number of term nodes whose type it computed."""

    misses: int


_TYPE = "_type"  # the instance attribute that holds a node's type
_types_computed = 0


def typecheck(term: Term) -> TermType:
    """Infer the unique type of a term, rejecting ill-formed ones:
    overlapping node sets under +, interface mismatches under ;, and sums
    with missing or inconsistently-typed branches or an input as output.

    Each node's type is computed once, bottom-up, and kept on the node
    itself (outside its fields, so equality and hashing do not
    change): typing a term again, or a larger term that contains
    it, reads the stored types instead of walking the subterm.  No
    global table holds terms.  Children are typed left to right, so an
    ill-typed term raises the same error however deep it is, and a node
    that fails stores nothing.
    """
    return _known_type(term) or run(_typing(term))


typecheck.cache_info = lambda: _TypecheckInfo(_types_computed)  # type: ignore[attr-defined]


def _known_type(term: Term) -> TermType | None:
    return term.__dict__.get(_TYPE) if isinstance(term, Term) else None


def _typing(term: Term) -> Walk[TermType]:
    """The typing rule of one node, as a walk over the children whose
    type is not stored yet; stores the type it computes."""
    global _types_computed
    if isinstance(term, Identity):
        ty = TermType(term.places, term.places, term.places)
    elif isinstance(term, Dead):
        ty = TermType(frozenset(), term.places, term.places)
    elif isinstance(term, Par):
        t1 = _known_type(term.left) or (yield _typing(term.left))
        t2 = _known_type(term.right) or (yield _typing(term.right))
        overlap = t1.nodes & t2.nodes
        if overlap:
            raise TermError(f"parallel terms share nodes {sorted(overlap)}")
        ty = TermType(t1.inputs | t2.inputs, t1.nodes | t2.nodes, t1.outputs | t2.outputs)
    elif isinstance(term, Seq):
        t1 = _known_type(term.first) or (yield _typing(term.first))
        t2 = _known_type(term.second) or (yield _typing(term.second))
        if t1.outputs != t2.inputs:
            raise TermError(
                "sequential interface mismatch: "
                f"uncovered outputs {sorted(t1.outputs - t2.inputs)}, "
                f"unfed inputs {sorted(t2.inputs - t1.outputs)}"
            )
        middle = t1.nodes & t2.nodes
        if middle != t1.outputs:
            raise TermError(
                f"sequential terms share nodes beyond the interface: {sorted(middle ^ t1.outputs)}"
            )
        ty = TermType(t1.inputs, t1.nodes | t2.nodes, t2.outputs)
    elif isinstance(term, Constant):
        key = term.key
        ty = TermType(frozenset(), key.marked | key.nodes, key.outputs)
    elif isinstance(term, Sum):
        for (m, _), (n, _) in zip(term.branches, term.branches[1:]):
            if m == n:  # branches are sorted by subset, so a repeat is adjacent
                raise TermError(f"sum has two branches for {render_place_set(m)}")
        expected = set(subsets_lex(term.inputs))
        present = {m for m, _ in term.branches}
        missing = expected - present
        if missing:
            rendered = sorted(render_place_set(m) for m in missing)
            raise TermError(f"sum is missing branches for {rendered}")
        extra = present - expected
        if extra:
            rendered = sorted(render_place_set(m) for m in extra)
            raise TermError(f"sum has branches outside its input set: {rendered}")
        outputs: frozenset[str] | None = None
        nodes = frozenset(term.inputs)
        for m, sub in term.branches:
            sub_ty = _known_type(sub) or (yield _typing(sub))
            if sub_ty.inputs:
                raise TermError(
                    f"sum branch {render_place_set(m)} has unfed inputs {sorted(sub_ty.inputs)}"
                )
            if outputs is None:
                outputs = sub_ty.outputs
            elif sub_ty.outputs != outputs:
                raise TermError(
                    f"sum branch {render_place_set(m)} outputs {sorted(sub_ty.outputs)} "
                    f"disagree with {sorted(outputs)}"
                )
            nodes |= sub_ty.nodes
        assert outputs is not None
        if term.inputs & outputs:
            raise TermError(f"sum inputs {sorted(term.inputs & outputs)} are also its outputs")
        ty = TermType(term.inputs, nodes, outputs)
    else:
        raise TermError(f"not a term: {term!r}")
    term.__dict__[_TYPE] = ty
    _types_computed += 1
    return ty


def constants_of(term: Term) -> frozenset[ConstantKey]:
    """The cell constants occurring in the term, one per signature: the
    schema a δ table must cover.  δ is keyed by signature, which renders
    the transaction sets, so keys of one signature share one
    distribution over the same transition sets, and the first met, left
    to right, stands for them all.  It lists, and does not typecheck."""
    found: dict[str, ConstantKey] = {}
    pending = [term]  # a stack, so children go on it right to left
    while pending:
        t = pending.pop()
        if isinstance(t, Constant):
            found.setdefault(t.key.signature, t.key)
        pending += reversed(t._parts()[1])
    return frozenset(found.values())


# --------------------------------------------------------------------- #
# Normalization
# --------------------------------------------------------------------- #

def _atoms(term: Term) -> Walk[list[Term]]:
    if isinstance(term, Identity):
        return []
    if isinstance(term, Dead):
        return [Dead(frozenset({p})) for p in sorted(term.places)]
    if isinstance(term, (Par, Seq)):
        first, second = term._parts()[1]
        return (yield _atoms(first)) + (yield _atoms(second))
    if isinstance(term, Constant):
        return [term]
    if isinstance(term, Sum):
        branches = {}
        for m, sub in term.branches:
            branches[m] = yield _normal_form(sub)
        return [make_sum(term.inputs, branches)]
    raise TermError(f"not a term: {term!r}")


def normalize(term: Term) -> Term:
    """Canonical representative of the term modulo the monoidal axioms.

    The atomic blocks (constants, sums with normalized branches, and
    singleton dead wires) are extracted, stratified greedily by place
    dataflow, and reassembled layer by layer with identity padding, the
    blocks within a layer ordered by their rendering.  Idempotent, type
    preserving, and interpretation preserving.
    """
    return run(_normal_form(term))


def _normal_form(term: Term) -> Walk[Term]:
    ty = typecheck(term)
    # stratify keeps the given order within a layer, so one sort orders every layer
    atoms = sorted((yield _atoms(term)), key=render_term)
    return stratify([(a.inputs, a.outputs) for a in map(typecheck, atoms)], ty.inputs, atoms,
                    Identity, par_all, Seq)


# --------------------------------------------------------------------- #
# Textual form
# --------------------------------------------------------------------- #
#
# term     := 'I' placeset | 'Bot' placeset
#           | '(' term '+' term ')' | '(' term ';' term ')'
#           | 'cell' '[' placeset '>' placeset ':' process (';' process)* ']'
#           | 'sum' placeset '[' branch (',' branch)* ']'
# branch   := placeset ':' term
# process  := idset ':' placeset '>' placeset ('|' placeset)?
# placeset := '{' (id (',' id)*)? '}'

def _render_process(proc: Process) -> str:
    body = (
        f"{render_place_set(proc.transitions)}:"
        f"{render_place_set(proc.initial_places)}>"
        f"{render_place_set(proc.final_places)}"
    )
    if proc.internal_places:
        body += f"|{render_place_set(proc.internal_places)}"
    return body


def render_term(term: Term) -> str:
    """The term's text in the grammar above."""
    pieces: list[str] = []
    run(_emit(term, pieces))
    return "".join(pieces)


def _emit(t: Term, pieces: list[str]) -> Walk[None]:
    if isinstance(t, Identity):
        pieces.append(f"I{render_place_set(t.places)}")
    elif isinstance(t, Dead):
        pieces.append(f"Bot{render_place_set(t.places)}")
    elif isinstance(t, (Par, Seq)):
        first, second = t._parts()[1]
        pieces.append("(")
        yield _emit(first, pieces)
        pieces.append(" + " if isinstance(t, Par) else " ; ")
        yield _emit(second, pieces)
        pieces.append(")")
    elif isinstance(t, Constant):
        key = t.key
        processes = "; ".join(
            _render_process(p) for p in sorted(key.transactions, key=Process.sort_key)
        )
        pieces.append(
            f"cell[{render_place_set(key.marked)}>"
            f"{render_place_set(key.outputs)}: {processes}]"
        )
    elif isinstance(t, Sum):
        pieces.append(f"sum{render_place_set(t.inputs)}[")
        for i, m in enumerate(subsets_lex(t.inputs)):
            pieces.append(f"{', ' if i else ''}{render_place_set(m)}: ")
            yield _emit(t.branch(m), pieces)
        pieces.append("]")
    else:
        raise TermError(f"not a term: {t!r}")


_IDENTIFIER = re.compile(r"[A-Za-z0-9_.\-]+")  # a place or transition, here and in net files
_TOKEN = re.compile(r"\s*([{}()\[\]+;:>,|]|" + _IDENTIFIER.pattern + ")")


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None:
                if text[pos:].strip():
                    raise TermSyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
                break
            tokens.append(match.group(1))
            pos = match.end()
        return tokens

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise TermSyntaxError(f"unexpected end of input (wanted {expected or 'a token'})")
        if expected is not None and tok != expected:
            raise TermSyntaxError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def place_set(self) -> frozenset[str]:
        self.take("{")
        items = []
        if self.peek() != "}":
            items.append(self.take())
            while self.peek() == ",":
                self.take(",")
                items.append(self.take())
        self.take("}")
        for item in items:
            if item in "{}()[]+;:>,|":
                raise TermSyntaxError(f"expected an identifier, found {item!r}")
        if len(set(items)) != len(items):
            raise TermSyntaxError(f"duplicate identifiers in {{{','.join(items)}}}")
        return frozenset(items)

    def process(self) -> Process:
        transitions = self.place_set()
        self.take(":")
        initial = self.place_set()
        self.take(">")
        final = self.place_set()
        internal: frozenset[str] = frozenset()
        if self.peek() == "|":
            self.take("|")
            internal = self.place_set()
        return Process(transitions, initial, final, internal)

    def term(self) -> Walk[Term]:
        tok = self.peek()
        if tok == "I":
            self.take()
            return Identity(self.place_set())
        if tok == "Bot":
            self.take()
            return Dead(self.place_set())
        if tok == "(":
            self.take("(")
            left = yield self.term()
            op = self.take()
            if op not in "+;":
                raise TermSyntaxError(f"expected '+' or ';', found {op!r}")
            right = yield self.term()
            self.take(")")
            return Par(left, right) if op == "+" else Seq(left, right)
        if tok == "cell":
            self.take()
            self.take("[")
            marked = self.place_set()
            self.take(">")
            outputs = self.place_set()
            self.take(":")
            processes = [self.process()]
            while self.peek() == ";":
                self.take(";")
                processes.append(self.process())
            self.take("]")
            try:
                key = ConstantKey(marked, outputs, frozenset(processes))
            except TermError as exc:
                raise TermSyntaxError(str(exc)) from exc
            return Constant(key)
        if tok == "sum":
            self.take()
            inputs = self.place_set()
            self.take("[")
            branches: dict[frozenset[str], Term] = {}
            while True:
                m = self.place_set()
                if m in branches:
                    raise TermSyntaxError(f"sum has two branches for {render_place_set(m)}")
                self.take(":")
                branches[m] = yield self.term()
                if self.peek() == ",":
                    self.take(",")
                    continue
                break
            self.take("]")
            return make_sum(inputs, branches)
        raise TermSyntaxError(f"cannot start a term with {tok!r}")


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    term = run(parser.term())
    if parser.peek() is not None:
        raise TermSyntaxError(f"trailing input starting at {parser.peek()!r}")
    return term

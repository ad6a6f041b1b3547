import re

import pytest

from cellnet import (
    Constant,
    ConstantKey,
    Dead,
    Identity,
    MarkedNet,
    Net,
    Par,
    Process,
    Seq,
    Sum,
    TermError,
    TermSyntaxError,
    TermType,
    compile_net,
    constants_of,
    make_sum,
    normalize,
    parse_term,
    render_term,
    typecheck,
)
from cellnet.compiler import _compile
from cellnet.terms import render_place_set, subsets_lex

fs = frozenset


def key_ab():
    return ConstantKey(
        marked=fs({"1"}),
        outputs=fs({"4", "5"}),
        transactions=fs(
            {
                Process(fs({"a"}), fs({"1"}), fs({"4"})),
                Process(fs({"b"}), fs({"1"}), fs({"5"})),
            }
        ),
    )


def key_cd():
    return ConstantKey(
        marked=fs({"2"}),
        outputs=fs({"6"}),
        transactions=fs(
            {
                Process(fs({"c"}), fs({"2"}), fs({"6"})),
                Process(fs({"d"}), fs({"2"}), fs()),
            }
        ),
    )


def test_identity_type():
    ty = typecheck(Identity(fs({"x", "y"})))
    assert (ty.inputs, ty.nodes, ty.outputs) == (fs({"x", "y"}),) * 3


def test_dead_type():
    ty = typecheck(Dead(fs({"x"})))
    assert ty.inputs == fs() and ty.outputs == fs({"x"})


def test_constant_type():
    ty = typecheck(Constant(key_ab()))
    assert ty.inputs == fs()
    assert ty.outputs == fs({"4", "5"})
    assert ty.nodes == fs({"1", "a", "b", "4", "5"})


def test_par_overlap_rejected():
    with pytest.raises(TermError) as err:
        typecheck(Par(Identity(fs({"4"})), Dead(fs({"4", "5"}))))
    assert "4" in str(err.value)


def test_seq_interface_mismatch():
    with pytest.raises(TermError):
        typecheck(Seq(Identity(fs({"x"})), Identity(fs({"y"}))))


def test_sum_missing_branch_rejected():
    with pytest.raises(TermError) as err:
        typecheck(make_sum({"1"}, {fs(): Dead(fs({"4", "5"}))}))
    assert "missing" in str(err.value)


def test_sum_branch_output_disagreement():
    with pytest.raises(TermError):
        typecheck(
            make_sum({"1"}, {fs(): Dead(fs({"4"})), fs({"1"}): Dead(fs({"5"}))})
        )


def test_sum_repeated_branch_rejected():
    # a sum built directly may list a subset twice; neither branch wins
    term = Sum(fs({"1"}), ((fs(), Dead(fs({"4"}))), (fs({"1"}), Dead(fs({"4"}))), (fs(), Dead(fs({"4"})))))
    with pytest.raises(TermError, match=r"two branches for \{\}"):
        typecheck(term)


def test_sum_refuses_an_input_among_its_outputs():
    # typed {a} -> {a}, s ; s would have two producers of a, and
    # normalize would lay both copies of s side by side
    s = make_sum({"a"}, {fs(): Dead(fs({"a"})), fs({"a"}): Dead(fs({"a"}))})
    for check in (typecheck, normalize):
        with pytest.raises(TermError, match=r"^sum inputs \['a'\] are also its outputs$"):
            check(Seq(s, s))


def test_compiled_term_type(three_cells):
    ty = typecheck(compile_net(three_cells))
    assert ty.inputs == fs({"1"})
    assert ty.outputs == fs({"5", "7", "8", "9", "10"})
    assert ty.nodes == three_cells.net.nodes


def test_constant_key_invariants():
    with pytest.raises(TermError):
        ConstantKey(fs({"1"}), fs({"9"}), fs({Process(fs({"a"}), fs({"1"}), fs({"4"}))}))
    with pytest.raises(TermError):
        ConstantKey(fs(), fs({"4"}), fs({Process(fs({"a"}), fs({"1"}), fs({"4"}))}))
    # δ is indexed by transition set, so two transactions may not share one
    twice = fs({Process(fs({"t"}), fs({"1"}), fs({"4"})), Process(fs({"t"}), fs({"1"}), fs({"5"}))})
    with pytest.raises(TermError, match=r"transition set \{t\}"):
        ConstantKey(fs({"1"}), fs({"4", "5"}), twice)


def test_signature_rendering():
    key = ConstantKey(
        marked=fs({"3", "4", "6"}),
        outputs=fs({"7", "8", "9", "10"}),
        transactions=fs(
            {
                Process(fs({"f"}), fs({"3", "4", "6"}), fs({"8"})),
                Process(fs({"e", "g"}), fs({"3", "6"}), fs({"7", "9"})),
                Process(fs({"e", "h"}), fs({"3", "6"}), fs({"7", "10"})),
            }
        ),
    )
    assert key.signature == "e,g|e,h|f"


def test_normalize_par_commutative():
    a = Constant(key_ab())
    b = Constant(key_cd())
    assert normalize(Par(a, b)) == normalize(Par(b, a))


def test_normalize_dead_empty_is_identity_empty():
    assert normalize(Dead(fs())) == Identity(fs())


def test_normalize_strips_identity_composition():
    a = Constant(key_ab())
    assert normalize(Seq(a, Identity(fs({"4", "5"})))) == normalize(a)
    assert normalize(Par(a, Identity(fs()))) == normalize(a)


def test_normalize_splits_dead_wires():
    term = normalize(Dead(fs({"x", "y"})))
    assert term == Par(Dead(fs({"x"})), Dead(fs({"y"})))


def test_normalize_idempotent(three_cells, confusion):
    for marked in (three_cells, confusion):
        term = compile_net(marked)
        once = normalize(term)
        assert normalize(once) == once


def test_normalize_preserves_type(three_cells):
    term = compile_net(three_cells)
    assert typecheck(normalize(term)) == typecheck(term)


def gate(inp, transition, out):
    """A one-input/one-output stage: a sum selecting between a dead
    output and a single-transition cell."""
    key = ConstantKey(
        fs({inp}), fs({out}), fs({Process(fs({transition}), fs({inp}), fs({out}))})
    )
    return make_sum({inp}, {fs(): Dead(fs({out})), fs({inp}): Constant(key)})


def test_normalize_functoriality():
    # (A ; B) + (C ; D)  and  (A + C) ; (B + D) share one normal form.
    a = gate("p", "t", "q")
    b = gate("q", "u", "r")
    c = gate("x", "v", "y")
    d = gate("y", "w", "z")
    lhs = Par(Seq(a, b), Seq(c, d))
    rhs = Seq(Par(a, c), Par(b, d))
    assert typecheck(lhs) == typecheck(rhs)
    assert normalize(lhs) == normalize(rhs)


def test_constants_of_running_term(three_cells):
    term = compile_net(three_cells)
    signatures = sorted(k.signature for k in constants_of(term))
    assert signatures == ["a|b", "c|d", "e", "e,g|e,h|f", "g|h"]


def test_constants_of_identity():
    assert constants_of(Identity(fs({"x"}))) == fs()


def test_constants_of_single_choice_cell(three_cells):
    from cellnet import compile_cell, scells

    cells = scells(three_cells.net, three_cells.marking)
    nc1 = next(c for c in cells if "a" in c.members).subnet
    keys = constants_of(compile_cell(nc1))
    assert len(keys) == 1
    assert next(iter(keys)).signature == "a|b"


def test_constants_of_c3_sum(three_cells):
    from cellnet import compile_cell, scells

    cells = scells(three_cells.net, three_cells.marking)
    nc3 = next(c for c in cells if "f" in c.members).subnet
    term = compile_cell(nc3)
    signatures = sorted(k.signature for k in constants_of(term))
    # the single-e constant occurs in three branches but is one key
    assert signatures == ["e", "e,g|e,h|f", "g|h"]


def test_render_parse_round_trip(three_cells, confusion):
    for marked in (three_cells, confusion):
        term = compile_net(marked)
        text = render_term(term)
        assert parse_term(text) == term
        assert render_term(parse_term(text)) == text


def test_parse_small_forms():
    assert parse_term("I{}") == Identity(fs())
    assert parse_term("Bot{x,y}") == Dead(fs({"x", "y"}))
    assert parse_term("(I{a} ; I{a})") == Seq(Identity(fs({"a"})), Identity(fs({"a"})))


def test_parse_rejects_garbage():
    for bad in ("", "I", "I{", "(I{a} ? I{a})", "cell[]", "sum{a}[]", "I{a} I{b}"):
        with pytest.raises(TermSyntaxError):
            parse_term(bad)


@pytest.mark.parametrize("text, message", [
    ("I{(}", "expected an identifier, found '('"),
    ("I{a,a}", "duplicate identifiers in {a,a}"),
    ("(I{a} I{a})", "expected '+' or ';', found 'I'"),
])
def test_parse_names_the_syntax_error(text, message):
    with pytest.raises(TermSyntaxError, match=f"^{re.escape(message)}$"):
        parse_term(text)


def test_typecheck_refuses_sequential_terms_sharing_nodes_beyond_the_interface():
    # the interface is {o}; m is a node of the constant and the ⊥ after it
    term = parse_term("(cell[{m}>{o}:{t}:{m}>{o}] ; (I{o} + Bot{m}))")
    with pytest.raises(TermError, match=r"^sequential terms share nodes beyond the interface: \['m'\]$"):
        typecheck(term)


def _wide_net(n, prefix="w"):
    """n independent one-transition cells, every other one marked."""
    places = fs(f"{prefix}{x}{i}" for i in range(n) for x in "ab")
    flow = fs((f"{prefix}a{i}", f"{prefix}t{i}") for i in range(n)) | fs(
        (f"{prefix}t{i}", f"{prefix}b{i}") for i in range(n))
    return MarkedNet(Net(places, fs(f"{prefix}t{i}" for i in range(n)), flow),
                     fs(f"{prefix}a{i}" for i in range(0, n, 2)))


def test_typecheck_equal_distinct_wide_terms():
    # a remembered compile and one past the memo: equal terms, distinct
    # objects, of 400 cells in parallel
    marked = _wide_net(400)
    first = compile_net(marked)
    second = _compile(marked)
    assert first is not second
    assert first == second
    assert render_term(first) == render_term(second)
    assert typecheck(first) == typecheck(second)
    assert typecheck(first).outputs == fs(f"wb{i}" for i in range(400))


def test_typed_term_is_not_kept_alive():
    import gc
    import weakref

    term = Par(Identity(fs({"x"})), Constant(key_ab()))
    assert typecheck(term).nodes == fs({"x", "1", "a", "b", "4", "5"})
    ref = weakref.ref(term)
    del term
    gc.collect()
    assert ref() is None


def test_typecheck_counts_computed_types():
    before = typecheck.cache_info().misses
    term = Seq(Identity(fs({"y"})), Par(Identity(fs({"y"})), Dead(fs({"z"}))))
    typecheck(term)
    typecheck(term)
    assert typecheck.cache_info().misses - before == 5   # one per node, once


def _reference_typecheck(term):
    """The type of a term by the typing rules, recursively and with no
    memo: the order in which it checks is the order errors must come in."""
    if isinstance(term, Identity):
        return TermType(term.places, term.places, term.places)
    if isinstance(term, Dead):
        return TermType(fs(), term.places, term.places)
    if isinstance(term, Par):
        t1 = _reference_typecheck(term.left)
        t2 = _reference_typecheck(term.right)
        overlap = t1.nodes & t2.nodes
        if overlap:
            raise TermError(f"parallel terms share nodes {sorted(overlap)}")
        return TermType(t1.inputs | t2.inputs, t1.nodes | t2.nodes, t1.outputs | t2.outputs)
    if isinstance(term, Seq):
        t1 = _reference_typecheck(term.first)
        t2 = _reference_typecheck(term.second)
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
        return TermType(t1.inputs, t1.nodes | t2.nodes, t2.outputs)
    if isinstance(term, Constant):
        return TermType(fs(), term.key.marked | term.key.nodes, term.key.outputs)
    assert isinstance(term, Sum)
    expected = set(subsets_lex(term.inputs))
    present = {m for m, _ in term.branches}
    if expected - present:
        rendered = sorted(render_place_set(m) for m in expected - present)
        raise TermError(f"sum is missing branches for {rendered}")
    if present - expected:
        rendered = sorted(render_place_set(m) for m in present - expected)
        raise TermError(f"sum has branches outside its input set: {rendered}")
    outputs = None
    nodes = fs(term.inputs)
    for m, sub in term.branches:
        ty = _reference_typecheck(sub)
        if ty.inputs:
            raise TermError(f"sum branch {render_place_set(m)} has unfed inputs {sorted(ty.inputs)}")
        if outputs is None:
            outputs = ty.outputs
        elif ty.outputs != outputs:
            raise TermError(
                f"sum branch {render_place_set(m)} outputs {sorted(ty.outputs)} "
                f"disagree with {sorted(outputs)}"
            )
        nodes |= ty.nodes
    if term.inputs & outputs:
        raise TermError(f"sum inputs {sorted(term.inputs & outputs)} are also its outputs")
    return TermType(term.inputs, nodes, outputs)


def _positions(term, path=()):
    yield path, term
    if isinstance(term, Par):
        children = (term.left, term.right)
    elif isinstance(term, Seq):
        children = (term.first, term.second)
    elif isinstance(term, Sum):
        children = tuple(sub for _, sub in term.branches)
    else:
        children = ()
    for i, child in enumerate(children):
        yield from _positions(child, path + (i,))


def _replaced(term, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(term, Par):
        parts = [term.left, term.right]
        parts[i] = _replaced(parts[i], rest, new)
        return Par(*parts)
    if isinstance(term, Seq):
        parts = [term.first, term.second]
        parts[i] = _replaced(parts[i], rest, new)
        return Seq(*parts)
    branches = list(term.branches)
    branches[i] = (branches[i][0], _replaced(branches[i][1], rest, new))
    return Sum(term.inputs, tuple(branches))


def _mutated(term, rng):
    """The term with one random local fault: a sum branch dropped (from a
    sum of two or more, so that every sum keeps a branch) or added, a
    node put twice under +, the two sides of a ; swapped, or a node
    replaced by another node of the term."""
    positions = list(_positions(term))
    path, node = rng.choice(positions)
    kind = rng.choice(["drop", "add", "twice", "swap", "graft"])
    if kind == "drop" and isinstance(node, Sum) and len(node.branches) > 1:
        branches = list(node.branches)
        branches.pop(rng.randrange(len(branches)))
        new = Sum(node.inputs, tuple(branches))
    elif kind == "add" and isinstance(node, Sum):
        new = Sum(node.inputs, node.branches + ((fs({"zz"}), node.branches[0][1]),))
    elif kind == "swap" and isinstance(node, Seq):
        new = Seq(node.second, node.first)
    elif kind == "graft":
        new = rng.choice(positions)[1]
    else:
        new = Par(node, node)
    return _replaced(term, path, new)


def _outcome(check, term):
    try:
        ty = check(term)
    except TermError as exc:
        return str(exc)
    return (sorted(ty.inputs), sorted(ty.nodes), sorted(ty.outputs))


def test_typecheck_errors_match_reference_on_mutated_terms():
    import random

    from conftest import random_occurrence_net

    rng = random.Random(20)
    messages = set()
    for _ in range(300):
        term = compile_net(random_occurrence_net(rng, 12, 9))
        for _ in range(rng.randint(1, 3)):
            term = _mutated(term, rng)
        expected = _outcome(_reference_typecheck, term)
        assert _outcome(typecheck, term) == expected
        assert _outcome(typecheck, term) == expected   # a failed check stored nothing
        if isinstance(expected, str):
            messages.add(" ".join(expected.split()[:2]))
    assert len(messages) >= 5


def test_constants_of_keeps_the_first_key_of_each_shared_signature():
    # both signatures name two keys, which δ cannot tell apart; the walk
    # meets the {} branch's keys first
    term = parse_term(
        "sum{x}[{}: (cell[{p}>{q}: {a}:{p}>{q}] + cell[{r}>{s}: {b}:{r}>{s}]), "
        "{x}: (cell[{p,p2}>{q}: {a}:{p}>{q}] + cell[{r,r2}>{s}: {b}:{r}>{s}])]"
    )
    keys = sorted(constants_of(term), key=lambda key: key.signature)
    assert [(key.signature, key.marked) for key in keys] == [("a", fs({"p"})), ("b", fs({"r"}))]


def test_wide_sum_renders_and_interprets_every_branch():
    # 12 inputs, 4,096 branches: branch k is Bot{y} when k % 3 == 0 and
    # otherwise a constant that marks y with probability 1/4
    from cellnet import DeltaTable, Dist, interpret

    inputs = [f"x{i:02d}" for i in range(12)]
    key = ConstantKey(
        fs({"c"}), fs({"y"}),
        fs({Process(fs({"t"}), fs({"c"}), fs({"y"})), Process(fs({"u"}), fs({"c"}), fs())}),
    )
    subsets = subsets_lex(inputs)
    branches = {m: Dead(fs({"y"})) if k % 3 == 0 else Constant(key) for k, m in enumerate(subsets)}
    term = make_sum(inputs, branches)
    constant = "cell[{c}>{y}: {t}:{c}>{y}; {u}:{c}>{}]"
    expected = ", ".join(
        f"{render_place_set(m)}: {'Bot{y}' if k % 3 == 0 else constant}"
        for k, m in enumerate(subsets)
    )
    assert render_term(term) == f"sum{render_place_set(inputs)}[{expected}]"
    delta = DeltaTable({"t|u": Dist({fs({"t"}): 0.25, fs({"u"}): 0.75})})
    rows = interpret(term, delta).matrix.tolist()
    assert rows == [[1.0, 0.0] if k % 3 == 0 else [0.75, 0.25] for k in range(len(subsets))]

"""Invariant suites over random inputs: subset indexing, permutation
coherence, net relations, enumeration, and canonical-form round-trips on
randomly generated occurrence nets."""

import json
import random
from itertools import islice
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellnet import (
    CellLeaf,
    CompileError,
    Constant,
    ConstantKey,
    Dead,
    DeltaTable,
    Dist,
    Identity,
    IdentityLeaf,
    InterfaceWidthError,
    MarkedNet,
    Net,
    OccurrenceError,
    PES,
    Par,
    ParNode,
    Process,
    Seq,
    SeqNode,
    Sum,
    Term,
    Wiring,
    canonical_form,
    cell_order,
    check_correspondence,
    compile_cell,
    compile_net,
    enumerate_outcome_distribution,
    enumerate_transactions,
    fold_tree,
    interpret,
    isolated_places,
    lex_wiring,
    load_delta,
    load_net,
    make_sum,
    max_places,
    maximal_r_stopped,
    min_places,
    normalize,
    parse_net,
    permutation_arrow,
    pes_of_net,
    r_stopped_configs,
    scells,
    typecheck,
    validate_occurrence,
)
from cellnet.cells import _fold_nodes, cell_leaves
from cellnet.compiler import _compile
from cellnet.nets import NetIndex, subnet_of, topological_order
from cellnet.terms import par_all, subsets_lex
import references
from references import (
    at_marking,
    closure,
    compose_arrows,
    constant_arrow,
    copair,
    covers,
    dead_arrow,
    dependents,
    descendants,
    flow_tables,
    identity_arrow,
    maximal_firing_outcomes,
    net_pes,
    play,
    relabel,
    remove_places,
    restrict,
    scell_preorder,
    tensor,
    widest_cut,
)
from conftest import (
    build_three_cell_net,
    confusion_chain,
    confusion_delta,
    deep_doc,
    disjoint_copies,
    random_delta,
    random_occurrence_net,
    three_cell_delta,
    wide_doc,
)

fs = frozenset
NETS = Path(__file__).resolve().parent.parent / "nets"

places_strategy = st.lists(
    st.text(alphabet="abcdefgh123", min_size=1, max_size=3), min_size=0, max_size=5, unique=True
)


@given(places_strategy, st.randoms())
def test_subset_index_round_trip(places, rng):
    order = list(places)
    rng.shuffle(order)
    wiring = Wiring(tuple(order))
    for k in range(wiring.size):
        subset = wiring.subset_at(k)
        assert wiring.index(subset) == k


@given(places_strategy)
def test_subset_index_formula(places):
    wiring = Wiring(tuple(places))
    for subset in wiring.subsets():
        expected = sum(1 << (wiring.position(p) - 1) for p in subset)
        assert wiring.index(subset) == expected


@given(st.permutations(["w", "x", "y", "z"]), st.permutations(["w", "x", "y", "z"]),
       st.permutations(["w", "x", "y", "z"]))
@settings(max_examples=40, deadline=None)
def test_permutation_coherence(first, second, third):
    ab = permutation_arrow(Wiring(tuple(first)), Wiring(tuple(second)))
    bc = permutation_arrow(Wiring(tuple(second)), Wiring(tuple(third)))
    ac = permutation_arrow(Wiring(tuple(first)), Wiring(tuple(third)))
    np.testing.assert_array_equal(compose_arrows(ab, bc).matrix, ac.matrix)


def _random_nets(seed, count):
    rng = random.Random(seed)
    return [random_occurrence_net(rng) for _ in range(count)]


def test_safety_on_random_nets():
    # firing from the fully marked initial places never doubles a token
    for marked in _random_nets(6, 25):
        fully = MarkedNet(marked.net, min_places(marked.net) - _isolated(marked.net))
        seen = set()
        stack = [fully.marking]
        while stack:
            m = stack.pop()
            if m in seen:
                continue
            seen.add(m)
            for t in sorted(fully.net.transitions):
                pre = fully.net.pre(t)
                if pre <= m:
                    post = fully.net.post(t)
                    assert not (post & (m - pre)), "token collision: net is unsafe"
                    stack.append((m - pre) | post)


def _isolated(net):
    from cellnet import isolated_places

    return isolated_places(net)


def test_transactions_are_maximal_conflict_free_downward_closed():
    for marked in _random_nets(7, 20):
        net = marked.net
        fully = MarkedNet(net, min_places(net) - _isolated(net))
        transactions = enumerate_transactions(fully)
        assert transactions
        if any(net.pre(t) <= fully.marking for t in net.transitions):
            assert all(p.transitions for p in transactions)
        for proc in transactions:
            chosen = proc.transitions
            for t in chosen:
                for u in chosen:
                    assert not _conflict(net, t, u)
                # downward closure over causality restricted to transitions
                for u in net.transitions:
                    if u != t and u in _transition_causes(net, t):
                        assert u in chosen
            # maximality: no compatible transition can be added
            for extra in sorted(net.transitions - chosen):
                candidate = chosen | {extra}
                compatible = all(not _conflict(net, extra, t) for t in chosen)
                closed = _transition_causes(net, extra) <= candidate
                assert not (compatible and closed), (
                    f"{sorted(chosen)} is not maximal: {extra} fits"
                )


def _transition_causes(net, t):
    return fs(
        u for u in net.transitions if u != t and t in descendants(net)[u]
    )


def _conflict(net, t, u):
    """t # u: distinct causes of t and u, each one or the other itself,
    that share a pre-place."""
    below_t = _transition_causes(net, t) | {t}
    below_u = _transition_causes(net, u) | {u}
    return any(a != b and net.pre(a) & net.pre(b) for a in below_t for b in below_u)


def test_transaction_replay_reaches_final_places():
    # firing a transaction from its own initial places, in any causal
    # order, ends exactly on its final places
    from cellnet.nets import fire_at

    for marked in _random_nets(13, 20):
        net = marked.net
        fully = MarkedNet(net, min_places(net) - _isolated(net))
        for proc in enumerate_transactions(fully):
            marking = proc.initial_places
            remaining = set(proc.transitions)
            while remaining:
                t = min(t for t in remaining if net.pre(t) <= marking)
                marking = fire_at(net, marking, t)
                remaining.discard(t)
            assert marking == proc.final_places


def test_maximal_firing_outcomes_match_transactions():
    for marked in _random_nets(14, 15):
        net = marked.net
        fully = MarkedNet(net, min_places(net) - _isolated(net))
        expected = set()
        for proc in enumerate_transactions(fully):
            consumed = fs().union(*(net.pre(t) for t in proc.transitions)) if proc.transitions else fs()
            expected.add(proc.final_places | (fully.marking - consumed))
        assert maximal_firing_outcomes(fully) == fs(expected)


def test_canonical_round_trip_on_random_nets():
    for marked in _random_nets(8, 60):
        assert fold_tree(canonical_form(marked)) == marked


def _subtrees(tree):
    nodes, pending = [], [tree]
    while pending:
        node = pending.pop()
        nodes.append(node)
        if isinstance(node, ParNode):
            pending += node.children
        elif isinstance(node, SeqNode):
            pending += (node.first, node.second)
    return nodes


def _interface_of_leaves(tree):
    """Inputs and outputs of the net the leaves of ``tree`` form: its
    places no leaf produces, less the marked ones, and its places no
    leaf consumes."""
    places, produced, consumed, marking = set(), set(), set(), set()
    for leaf in _subtrees(tree):
        if isinstance(leaf, CellLeaf):
            net = leaf.cell.subnet.net
            places |= net.places
            produced |= {q for t in net.transitions for q in net.post(t)}
            consumed |= {p for t in net.transitions for p in net.pre(t)}
            marking |= leaf.cell.subnet.marking
        elif isinstance(leaf, IdentityLeaf):
            places |= leaf.places
    return fs(places - produced - marking), fs(places - consumed)


def test_tree_nodes_carry_the_interface_of_their_leaves():
    for marked in _random_nets(21, 60):
        tree = canonical_form(marked)
        assert (tree.inputs, tree.outputs) == (marked.inputs, marked.outputs)
        for node in _subtrees(tree):
            assert (node.inputs, node.outputs) == _interface_of_leaves(node)


def _layers(tree):
    layers = []
    while isinstance(tree, SeqNode):
        layers.insert(0, tree.second)
        tree = tree.first
    return [tree] + layers


def test_canonical_layers_are_longest_paths_in_cell_order():
    # a predecessor in the (transitive) cell order has fewer predecessors,
    # so sorting by their number gives a topological order
    for marked in _random_nets(17, 60):
        cells = scells(marked.net, marked.marking)
        order = closure(cell_order(marked.net, cells))
        preds = {i: [j for j, k in order if k == i] for i in range(len(cells))}
        depth = {}
        for i in sorted(preds, key=lambda i: len(preds[i])):
            depth[i] = 1 + max((depth[j] for j in preds[i]), default=0)
        found = {
            leaf.cell.members: j
            for j, layer in enumerate(_layers(canonical_form(marked)), start=1)
            for leaf in cell_leaves(layer)
        }
        assert found == {cells[i].members: depth[i] for i in depth}


def test_cells_are_indecomposable_on_random_nets():
    for marked in _random_nets(9, 30):
        for cell in scells(marked.net, marked.marking):
            fully = MarkedNet(cell.subnet.net, min_places(cell.subnet.net))
            tree = canonical_form(fully)
            assert isinstance(tree, CellLeaf)
            assert tree.cell.subnet.net == cell.subnet.net


def test_compiled_terms_typecheck_on_random_nets():
    for marked in _random_nets(10, 25):
        term = compile_net(marked)
        ty = typecheck(term)
        assert ty.inputs == marked.inputs
        assert ty.outputs == marked.outputs


def test_compiling_is_the_homomorphic_image_of_the_canonical_form():
    # compile_net and canonical_form layer the same cells with the same
    # stratify, so folding the tree into terms gives the compiled term;
    # deep(1000) nests 1000 deep, which _fold_nodes walks without recursion
    nets = [load_net(str(path)) for path in sorted(NETS.glob("*.net"))]
    nets += [disjoint_copies(build_three_cell_net(), 3), confusion_chain(9)]
    nets += [parse_net(json.dumps(make(n))) for make, n in ((wide_doc, 300), (deep_doc, 1000))]
    rng = random.Random(29)
    nets += [random_occurrence_net(rng, 12, 9) for _ in range(400)]
    for marked in nets:
        image = _fold_nodes(
            canonical_form(marked),
            lambda leaf: compile_cell(leaf.cell.subnet),
            lambda leaf: Identity(leaf.places),
            par_all,
            Seq,
        )
        assert image == compile_net(marked)


def _outcome(compile_: Callable[[], Term]) -> Term | str:
    """The term compiled, or the message of the CompileError raised."""
    try:
        return compile_()
    except CompileError as exc:
        return str(exc)


def test_full_arrival_branch_is_the_cell_itself_on_random_nets():
    # compile_cell compiles the branch where every input arrives as the
    # cell with all its initial places marked; the restriction path it
    # replaces gives the same branch
    rng = random.Random(67)
    pending = [random_occurrence_net(rng, 12, 9) for _ in range(150)]
    cases = 0
    while pending:
        marked = pending.pop()
        for cell in scells(marked.net, marked.marking):
            sub = cell.subnet
            if not sub.inputs:
                continue
            views = [at_marking(sub, arriving).marked for arriving in subsets_lex(sub.inputs)]
            pending += [view for view in views if view.net.transitions]
            new = compile_cell(sub)
            assert isinstance(new, Sum) and new.branch(sub.inputs) == _compile(views[-1])
            cases += 1
    assert cases > 200


def test_interpretation_stochastic_on_random_nets():
    rng = random.Random(11)
    for marked in _random_nets(12, 15):
        term = compile_net(marked)
        ty = typecheck(term)
        if max(len(ty.inputs), len(ty.outputs)) > 10:
            continue
        arrow = interpret(term, random_delta(marked, rng))
        sums = arrow.matrix.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9


def test_correspondence_on_random_nets():
    # exercises input places threaded through identity padding into
    # deeper layers, which the worked examples never hit
    rng = random.Random(15)
    for _ in range(15):
        marked = random_occurrence_net(rng, max_places=7, max_transitions=5)
        if len(marked.inputs) > 4:
            continue
        report = check_correspondence(marked)
        assert report.ok, str(report)


def test_oracle_matches_matrix_on_every_input_row():
    rng = random.Random(16)
    for _ in range(10):
        marked = random_occurrence_net(rng, max_places=7, max_transitions=5)
        term = compile_net(marked)
        ty = typecheck(term)
        if max(len(ty.inputs), len(ty.outputs)) > 8:
            continue
        delta = random_delta(marked, rng)
        arrow = interpret(term, delta)
        for k in range(arrow.in_wiring.size):
            arriving = arrow.in_wiring.subset_at(k)
            outcome = enumerate_outcome_distribution(marked, delta, arriving)
            matrix_row = arrow.matrix[arrow.in_wiring.index(arriving)]
            row = {arrow.out_wiring.subset_at(k): float(v) for k, v in enumerate(matrix_row) if v > 0}
            for key in set(outcome.markings.support) | set(row):
                assert abs(outcome.markings.prob(key) - row.get(key, 0.0)) < 1e-9


def _any_net(rng):
    """A small random net, often no occurrence net: its flow may have
    cycles, places with two producers and causes in conflict."""
    places = [f"p{i}" for i in range(rng.randint(1, 9))]
    transitions = [f"t{i}" for i in range(rng.randint(1, 8))]
    flow = set()
    for t in transitions:
        flow.update((p, t) for p in rng.sample(places, rng.randint(1, min(3, len(places)))))
        flow.update((t, p) for p in rng.sample(places, rng.randint(0, min(2, len(places)))))
    return Net(fs(places), fs(transitions), fs(flow))


def _reference_report(net):
    """The occurrence-net report straight from the definitions, on the
    pre- and post-sets read off the flow: flow reachability by search,
    and each transition's self-conflict witness as the first conflicting
    pair of its sorted causes."""
    pre, post = flow_tables(net)
    below = {}
    for x in net.nodes:
        seen, stack = {x}, [x]
        while stack:
            for y in post[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        below[x] = seen
    on_cycle = [x for x in sorted(net.nodes) if any(x in below[y] for y in post[x])]
    lines = [f"cycle at {x}: node lies on a flow cycle" for x in on_cycle]
    for p in sorted(net.places):
        if len(pre[p]) > 1:
            lines.append(f"backward-conflict at {p}: multiple producers {sorted(pre[p])}")
    if not on_cycle:
        for t in sorted(net.transitions):
            causes = sorted(u for u in net.transitions if t in below[u])
            pairs = [
                (a, b) for i, a in enumerate(causes) for b in causes[i + 1:]
                if pre[a] & pre[b]
            ]
            if pairs:
                lines.append(f"self-conflict at {t}: conflicting causes {pairs[0][0]} #0 {pairs[0][1]}")
    return "\n".join(lines) or "OK"


def test_validation_matches_reference_on_random_nets():
    # self-conflicts are read off the descendants of the net's index
    rng = random.Random(18)
    verdicts = set()
    for _ in range(3000):
        net = _any_net(rng)
        report = str(validate_occurrence(net))
        assert report == _reference_report(net)
        verdicts.update(line.split()[0] for line in report.splitlines())
    assert verdicts == {"OK", "cycle", "backward-conflict", "self-conflict"}


def _index_cases():
    rng = random.Random(71)
    for _ in range(1000):
        yield random_occurrence_net(rng, 12, 9).net
    for _ in range(4000):
        yield _any_net(rng)  # maybe with cycles, backward conflicts and self-conflicts


def test_net_index_masks_match_the_frozenset_references():
    occurrence = acyclic = cyclic = 0
    for net in _index_cases():
        index, (pre, post) = NetIndex(net), flow_tables(net)
        names, position = index.names, {x: b.bit_length() - 1 for x, b in index.bit.items()}
        assert index.order == (*sorted(net.transitions), *sorted(net.places))
        assert names(index.transitions) == net.transitions and names(index.places) == net.places
        for x, i in position.items():
            assert names(index.pre[i]) == pre[x] and names(index.post[i]) == post[x]
            assert (net.pre(x), net.post(x)) == (pre[x], post[x])
        for t in net.transitions:  # the consumers of its pre- and post-places
            assert names(index.neighbours[position[t]]) == fs().union(*(post[p] for p in pre[t] | post[t]))
        # the flow keeps the transitions that Kahn's algorithm on the frozenset
        # tables reaches: none on a cycle or after one
        order = topological_order(post)
        assert index.acyclic == (len(order) == len(net.nodes))
        assert sorted(index.order[t] for t in index.flow) == sorted(net.transitions.intersection(order))
        if not index.acyclic:
            cyclic += 1
            continue
        closure = descendants(net)
        rank = {index.order[t]: k for k, t in enumerate(index.flow)}  # a topological order of them all
        assert rank.keys() == net.transitions and len(index.flow) == len(rank)
        assert all(rank[t] <= rank[u] for t in net.transitions for u in closure[t] & net.transitions)
        for t in net.transitions:
            assert names(index.descendants[position[t]]) == closure[t] & net.transitions
        acyclic += 1
        if validate_occurrence(net).ok:
            pes = net_pes(net)
            for t in net.transitions:
                assert names(index.causes[position[t]]) == pes.causes[t]
                assert names(index.rivals[position[t]]) == pes.rivals[t]
            occurrence += 1
    assert occurrence >= 1000 and acyclic - occurrence > 150 and cyclic > 150


def _reference_scells(net, marking):
    """The s-cells by mutual reachability in ``scell_preorder``, each
    subnet cut out of the whole flow relation: (members, places,
    transitions, flow, marking) per cell, in ``scells`` order."""
    reach = scell_preorder(net)
    classes = {}
    for t in net.transitions:
        if t not in classes:
            cls = fs(y for y in reach[t] if t in reach[y])
            classes.update(dict.fromkeys(cls, cls))
    cells = []
    for cls in {classes[t] for t in net.transitions}:
        transitions = cls & net.transitions
        nodes = set(cls).union(*(net.post(t) for t in transitions))
        flow = fs((src, dst) for src, dst in net.flow if src in nodes and dst in nodes)
        places = fs(nodes) & net.places
        initial = places - {dst for _, dst in flow}
        cells.append((cls, places, transitions, flow, marking & initial))
    return sorted(cells, key=lambda cell: min(cell[1] & cell[0]))


def _scells_cases():
    rng = random.Random(19)
    for _ in range(150):
        marked = random_occurrence_net(rng, 12, 9)
        yield marked.net, marked.marking
    for _ in range(1500):
        net = _any_net(rng)
        if validate_occurrence(net).ok:
            markable = sorted(min_places(net) - isolated_places(net))
            yield net, fs(p for p in markable if rng.random() < 0.5)


def test_scells_match_preorder_reference_on_random_nets():
    cases = checked = 0
    for net, marking in _scells_cases():
        cases += 1
        expected = _reference_scells(net, marking)
        found = [
            (c.members, c.subnet.net.places, c.subnet.net.transitions, c.subnet.net.flow,
             c.subnet.marking)
            for c in scells(net, marking)
        ]
        assert found == expected
        # a cell's own fields, read off the net's index, are its subnet's
        for c in scells(net, marking):
            sub = c.subnet
            assert (c.transitions, c.marking) == (sub.net.transitions, sub.marking)
            assert (c.min_places, c.max_places, c.inputs) == (min_places(sub.net), sub.outputs, sub.inputs)
        # compile_cell's test for "exactly one s-cell", against the cells
        candidates = [net] + [c.subnet.net for c in scells(net)] + [
            Net(c.subnet.net.places | {"zz"}, c.subnet.net.transitions, c.subnet.net.flow)
            for c in scells(net)
        ]
        for candidate in candidates:
            cells = _reference_scells(candidate, fs())
            whole = len(cells) == 1 and (cells[0][1], cells[0][2], cells[0][3]) == (
                candidate.places, candidate.transitions, candidate.flow)
            assert [c.members for c in scells(candidate)] == [cell[0] for cell in cells]
            fully = MarkedNet(candidate, min_places(candidate) - isolated_places(candidate))
            refusal = _outcome(lambda: compile_cell(fully))
            assert (not isinstance(refusal, str)) == whole
            assert whole or refusal.startswith("not a single s-cell")
            checked += whole
    assert cases > 300 and checked > 300


def test_cell_order_matches_pairwise_preorder_on_random_nets():
    for net, marking in islice(_scells_cases(), 150):
        cells = scells(net, marking)
        reach = scell_preorder(net)
        pairwise = {
            (i, j)
            for i, a in enumerate(cells)
            for j, b in enumerate(cells)
            if i != j and next(iter(b.members)) in reach[next(iter(a.members))]
        }
        order = cell_order(net, cells)
        assert order == covers(pairwise)
        assert closure(order) == pairwise


# ------------------------------------------------------------------ #
# Maximal r-stopped configurations, one product step per future
# ------------------------------------------------------------------ #

def test_maximal_r_stopped_completes_every_enabled_cell_at_once():
    # The product search must find the maximal configurations of the
    # one-cell-at-a-time search, both with the cell tables shared across
    # input subsets, as check_correspondence shares them, and on a
    # structure rebuilt from its tables.
    rng = random.Random(43)
    cases = 0
    for _ in range(200):
        marked = random_occurrence_net(rng, 12, 9)
        lonely = isolated_places(marked.net)
        for case in check_correspondence(marked).cases:
            pes = pes_of_net(MarkedNet(marked.net, (marked.marking | case.arriving) - lonely))
            expected = fs(v for v, r in r_stopped_configs(pes).items() if r.maximal)
            assert case.from_event_structure == expected
            assert maximal_r_stopped(PES(pes.events, pes.causes, pes.rivals)) == expected
            cases += 1
    assert cases > 10000


class _DrawnDelta:
    """δ weights drawn for each constant on first use: enough for the
    term player, with no check of the constants' signatures."""

    def __init__(self, rng):
        self.rng, self.dists = rng, {}

    def distribution_for(self, key):
        if key not in self.dists:
            outcomes = sorted((p.transitions for p in key.transactions), key=sorted)
            weights = [self.rng.random() + 1e-3 for _ in outcomes]
            self.dists[key] = Dist({o: w / sum(weights) for o, w in zip(outcomes, weights)})
        return self.dists[key]


def test_mask_searches_and_player_match_the_frozenset_references():
    # For every input subset of each net: the check's event-structure
    # side (cell tables shared across subsets by future) and term side,
    # and the enumerated joint, which must hold the same floats in the
    # same order.  test_oracle.py compares the public searches on each
    # subset's own structure.
    rng = random.Random(67)
    subsets = 0
    for _ in range(1000):
        marked = random_occurrence_net(rng, 12, 9)
        net, term, delta = marked.net, compile_net(marked), _DrawnDelta(rng)
        lonely = isolated_places(net)
        whole = pes_of_net(MarkedNet(net, marked.marking | marked.inputs - lonely))
        assert whole.events == net.transitions
        tables, memo, weighted_memo = {}, {}, {}

        def weighted(key):
            dist = delta.distribution_for(key)
            for proc in sorted(key.transactions, key=lambda p: p.sort_key()):
                yield proc, dist.prob(proc.transitions)

        for case in check_correspondence(marked).cases:
            arriving = case.arriving
            live = restrict(whole, net.transitions - dependents(net, marked.inputs - arriving))
            expected = references.maximal_r_stopped(live, tables)
            assert case.from_event_structure == expected
            assert case.from_term == fs(v for v, _fin in play(term, arriving, _one_each, memo))
            joint = enumerate_outcome_distribution(marked, delta, arriving).joint
            assert list(joint.items()) == list(Dist(play(term, arriving, weighted, weighted_memo)).items())
            subsets += 1
    assert subsets > 50000


def _one_each(key):
    return ((proc, 1.0) for proc in key.transactions)


# ------------------------------------------------------------------ #
# Derived subnets inherit their parent's occurrence check
# ------------------------------------------------------------------ #

def _derived_nets(marked):
    """(parent, subnet, kept classes or None) for every net derived from
    ``marked`` without a check of its own: each s-cell's subnet, that
    cell restricted by the references' ``remove_places`` and
    ``at_marking`` (the compiler's restriction, built as a subnet) to every
    subset of its inputs, and, as ``compile_cell`` does, the same again
    inside each restriction of a cell with inputs (which shrinks it)."""
    pending = [marked]
    while pending:
        marked = pending.pop()
        for cell in scells(marked.net, marked.marking):
            sub = cell.subnet
            yield marked.net, sub.net, (cell.members,)
            for arriving in subsets_lex(sub.inputs):
                yield sub.net, remove_places(sub, sub.inputs - arriving).net, None
                view = at_marking(sub, arriving).marked
                yield sub.net, view.net, None
                if sub.inputs:
                    pending.append(view)


def _soundness_cases():
    rng = random.Random(23)
    yield from (random_occurrence_net(rng, 12, 9) for _ in range(150))
    yield from (load_net(f"nets/{name}.net") for name in ("three_cells", "confusion"))
    yield disjoint_copies(build_three_cell_net(), 2)
    yield confusion_chain(9)
    yield from (parse_net(json.dumps(make(30))) for make in (wide_doc, deep_doc))


def test_derived_subnets_are_the_occurrence_nets_they_claim_to_be():
    derived = 0
    for marked in _soundness_cases():
        for parent, sub, classes in _derived_nets(marked):
            derived += 1
            # rebuilt through the public, fully checked constructor from
            # the parent's flow between the subnet's nodes
            nodes = sub.places | sub.transitions
            flow = fs(arc for arc in parent.flow if arc[0] in nodes and arc[1] in nodes)
            copy = Net(sub.places, sub.transitions, flow)
            assert validate_occurrence(copy).ok
            assert copy == sub
            assert all(parent.pre(t) <= sub.places for t in sub.transitions)
            if classes is not None:  # a cell's subnet is that one cell
                assert [c.members for c in scells(copy)] == list(classes)
                assert [cell[0] for cell in _reference_scells(copy, fs())] == list(classes)
            # the subnet inherits the parent's check, and its pre- and
            # post-sets are the checked copy's, read off its flow
            assert sub._occurrence_report is parent._occurrence_report
            pre, post = flow_tables(copy)
            assert all((sub.pre(x), sub.post(x)) == (pre[x], post[x]) for x in nodes)
            assert min_places(sub) == min_places(copy)
            assert max_places(sub) == max_places(copy)
            closure = descendants(copy)
            for p in sub.places:
                assert dependents(sub, {p}) == closure[p]
            dead = min_places(sub)
            assert dependents(sub, dead) == fs().union(*(closure[p] for p in dead))
    assert derived > 2000


def _reference_dead(net, dead):
    """The places and transitions that die when the places ``dead`` never
    receive a token, by saturation: a transition with a dead pre-place
    dies, and so does a place whose producers all died."""
    places, transitions = set(dead), set()
    changed = True
    while changed:
        changed = False
        for t in net.transitions - transitions:
            if net.pre(t) & places:
                transitions.add(t)
                changed = True
        for p in net.places - places:
            if net.pre(p) and net.pre(p) <= transitions:
                places.add(p)
                changed = True
    return fs(places), fs(transitions)


def test_remove_places_and_live_events_kill_what_saturation_kills():
    rng = random.Random(61)
    cases = 0
    for _ in range(150):
        marked = random_occurrence_net(rng, 12, 9)
        for cell in scells(marked.net, marked.marking):
            sub = cell.subnet
            for arriving in subsets_lex(sub.inputs):
                dead = sub.inputs - arriving
                places, transitions = _reference_dead(sub.net, dead)
                survivor = remove_places(sub, dead).net
                assert sub.net.transitions - survivor.transitions == transitions
                # check_correspondence kills the dependents of each absent input
                killed = fs().union(*(dependents(sub.net, {p}) for p in dead))
                assert killed & sub.net.transitions == transitions
                # the rest of what goes is junk: places no survivor consumes
                removed_places = sub.net.places - survivor.places
                assert places <= removed_places
                for p in removed_places - places:
                    assert sub.net.post(p) <= transitions
                cases += 1
    assert cases > 1000


def test_a_subnet_of_a_non_occurrence_net_is_refused():
    cyclic = Net(fs({"p", "q"}), fs({"t"}), fs([("p", "t"), ("t", "q"), ("q", "t")]))
    two_producers = Net(
        fs({"p", "r", "q"}), fs({"t", "u"}), fs([("p", "t"), ("r", "u"), ("t", "q"), ("u", "q")])
    )
    for net in (cyclic, two_producers):
        with pytest.raises(OccurrenceError):
            subnet_of(net, fs({"p"}), fs())
        with pytest.raises(OccurrenceError):
            scells(net)


# ------------------------------------------------------------------ #
# interpret: row pushing against the Kronecker interpreter it replaced
# ------------------------------------------------------------------ #

def _kronecker_interpret(term, delta):
    """The term's arrow between the lexicographic wirings of its type,
    built layer by layer: + as a Kronecker product relabelled by
    gathers, ; as a matrix product, a sum as its stacked branch rows."""
    ty = typecheck(term)
    pi, rho = lex_wiring(ty.inputs), lex_wiring(ty.outputs)
    if isinstance(term, Identity):
        return identity_arrow(pi)
    if isinstance(term, Dead):
        return dead_arrow(term.places, rho)
    if isinstance(term, Constant):
        return constant_arrow(term.key, delta, rho)
    if isinstance(term, Par):
        left = _kronecker_interpret(term.left, delta)
        right = _kronecker_interpret(term.right, delta)
        return relabel(tensor(left, right), pi, rho)
    if isinstance(term, Seq):
        first = _kronecker_interpret(term.first, delta)
        second = _kronecker_interpret(term.second, delta)
        return compose_arrows(first, second)
    assert isinstance(term, Sum)
    rows = [_kronecker_interpret(term.branch(pi.subset_at(k)), delta) for k in range(pi.size)]
    return copair(rows, pi)


def _lone_leaves():
    """A term that is one dead wire, one constant or one sum, with a δ
    table: the leaves that interpret builds a matrix for."""
    key = ConstantKey(
        fs({"p"}), fs({"x", "y"}), fs({Process(fs({"t"}), fs({"p"}), fs({"x"})),
                                      Process(fs({"u"}), fs({"p"}), fs({"y"}))})
    )
    delta = DeltaTable({key.signature: Dist({fs({"t"}): 0.3, fs({"u"}): 0.7})})
    dead = Dead(fs({"x", "y"}))
    branches = {fs(): dead, fs({"i"}): Constant(key), fs({"j"}): Par(Dead(fs({"x"})), Dead(fs({"y"}))),
                fs({"i", "j"}): Seq(Constant(key), Identity(fs({"x", "y"})))}
    for term in (dead, Constant(key), make_sum({"i", "j"}, branches)):
        yield term, delta


def _interpreter_cases():
    from conftest import build_confusion_net, build_three_cell_net

    rng = random.Random(21)
    yield from _lone_leaves()
    yield compile_net(build_three_cell_net()), three_cell_delta()
    yield compile_net(build_confusion_net()), confusion_delta()
    for marked in (disjoint_copies(build_three_cell_net(), 2), confusion_chain(9)):
        yield compile_net(marked), random_delta(marked, rng)
    for _ in range(80):
        marked = random_occurrence_net(rng, 10, 8)
        yield compile_net(marked), random_delta(marked, rng)


def test_interpret_matches_kronecker_reference():
    rng = random.Random(22)
    compared = 0
    for term, delta in _interpreter_cases():
        for t in (term, normalize(term)):
            expected = _kronecker_interpret(t, delta)
            ins, outs = list(expected.in_wiring.places), list(expected.out_wiring.places)
            rng.shuffle(ins)
            rng.shuffle(outs)
            for w_in, w_out in ((None, None), (Wiring(tuple(ins)), Wiring(tuple(outs)))):
                arrow = interpret(t, delta, w_in, w_out)
                want = relabel(expected, arrow.in_wiring, arrow.out_wiring)
                np.testing.assert_allclose(arrow.matrix, want.matrix, rtol=0, atol=1e-12)
                compared += 1
    assert compared > 250


def _empty_cut_cases():
    """Compiled nets and hand-built terms whose walks start from the
    empty cut: the whole term where it has no inputs, and every sum
    branch.  No factor in them consumes a whole cut and leaves it empty,
    so an empty cut can only be one no factor has been pushed into."""
    rng = random.Random(24)
    for path in sorted(NETS.glob("*.net")):
        delta = load_delta(path.with_suffix(".delta").read_text(encoding="utf-8"))
        yield compile_net(load_net(str(path))), delta
    for marked in (disjoint_copies(build_three_cell_net(), 2), confusion_chain(9)):
        yield compile_net(marked), random_delta(marked, rng)
    both = ConstantKey(
        fs({"p"}), fs({"x", "y"}), fs({Process(fs({"t"}), fs({"p"}), fs({"x"})),
                                      Process(fs({"u"}), fs({"p"}), fs({"y"}))})
    )
    only_y = ConstantKey(fs({"q"}), fs({"y"}), fs({Process(fs({"v"}), fs({"q"}), fs({"y"}))}))
    delta = DeltaTable({both.signature: Dist({fs({"t"}): 0.3, fs({"u"}): 0.7}),
                        only_y.signature: Dist({fs({"v"}): 1.0})})
    branches = {fs(): Dead(fs({"x", "y"})), fs({"i"}): Constant(both),
                fs({"j"}): Par(Dead(fs({"x"})), Constant(only_y)),
                fs({"i", "j"}): Par(Constant(only_y), Dead(fs({"x"})))}
    yield make_sum({"i", "j"}, branches), delta
    yield Par(Constant(both), Dead(fs({"z"}))), delta
    # branches that are identities on no places: I{} and + of two of them
    nothing = Identity(fs())
    yield make_sum({"i"}, {fs(): nothing, fs({"i"}): Par(nothing, nothing)}), delta


def test_interpret_contracts_nothing_into_the_empty_cut(monkeypatch):
    import cellnet.kleisli as kleisli

    cuts = []
    contract = kleisli._contract

    def recording(matrix, places, factor, ins, outs):
        cuts.append(places)
        return contract(matrix, places, factor, ins, outs)

    monkeypatch.setattr(kleisli, "_contract", recording)
    for term, delta in _empty_cut_cases():
        arrow = interpret(term, delta)
        np.testing.assert_allclose(
            arrow.matrix, _kronecker_interpret(term, delta).matrix, rtol=0, atol=1e-12
        )
    assert cuts and () not in cuts


def _drain(inputs, outputs):
    """A sum over ``inputs`` whose every branch is the dead term on
    ``outputs``: it consumes more places than it produces."""
    return make_sum(inputs, {m: Dead(fs(outputs)) for m in subsets_lex(inputs)})


def test_interpret_pushes_narrowing_factors_first():
    # left to right, the cut would hold x1..x3 and i1..i3 at once: six
    # places against a cap of three that every type respects
    term = Par(Dead(fs({"x1", "x2", "x3"})), _drain({"i1", "i2", "i3"}, ()))
    assert max(len(typecheck(term).inputs), len(typecheck(term).outputs)) == 3
    arrow = interpret(term, DeltaTable({}), width_cap=3)
    np.testing.assert_array_equal(arrow.matrix, _kronecker_interpret(term, DeltaTable({})).matrix)


def test_interpret_refuses_a_cut_wider_than_the_cap():
    # each factor opens three places and closes them into two, so pushing
    # the second one holds 2 + 3 places although no type is wider than 4
    first = Seq(Dead(fs({"m1", "m2", "m3"})), _drain({"m1", "m2", "m3"}, ("a1", "a2")))
    second = Seq(Dead(fs({"n1", "n2", "n3"})), _drain({"n1", "n2", "n3"}, ("b1", "b2")))
    term = Par(first, second)
    assert interpret(term, DeltaTable({}), width_cap=5).matrix.shape == (1, 16)
    with pytest.raises(InterfaceWidthError, match="width 5 exceeds the cap 4"):
        interpret(term, DeltaTable({}), width_cap=4)


def _width_cases():
    rng = random.Random(23)
    for path in sorted(NETS.glob("*.net")):
        delta = load_delta(path.with_suffix(".delta").read_text(encoding="utf-8"))
        yield compile_net(load_net(str(path))), delta
    for marked in (disjoint_copies(build_three_cell_net(), 2), confusion_chain(9)):
        yield compile_net(marked), random_delta(marked, rng)
    for _ in range(200):
        marked = random_occurrence_net(rng, 12, 9)
        yield compile_net(marked), random_delta(marked, rng)


def test_interpret_refuses_exactly_the_pushes_wider_than_the_cap():
    # interpret checks only the term's interface and each cut it pushes
    # through; the reference also bounds every subterm's interface
    verdicts = {"refused": 0, "accepted": 0}
    for term, delta in _width_cases():
        full = interpret(term, delta).matrix
        widest = widest_cut(term)
        for cap in range(2, 9):
            if widest > cap:
                with pytest.raises(InterfaceWidthError):
                    interpret(term, delta, width_cap=cap)
                verdicts["refused"] += 1
            else:
                assert interpret(term, delta, width_cap=cap).matrix.tobytes() == full.tobytes()
                verdicts["accepted"] += 1
    assert sum(verdicts.values()) == 7 * 204 and min(verdicts.values()) > 100

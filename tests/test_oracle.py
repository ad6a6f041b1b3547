import math
import random
import re

import pytest

from cellnet import (
    MarkedNet,
    Net,
    NetError,
    PES,
    State,
    Wiring,
    check_correspondence,
    compile_net,
    conf_of_term,
    enumerate_outcome_distribution,
    forward,
    interpret,
    isolated_places,
    maximal_r_stopped,
    pes_of_net,
    r_stopped_configs,
    sample_outcome_distribution,
)
from cellnet.oracle import _cell_table, _minimal, _stopping_prefixes
from conftest import confusion_delta, random_occurrence_net, three_cell_delta
from references import cell_table as reference_cell_table
from references import at_marking, descendants, future, initial_stopping_prefixes, restrict

fs = frozenset


@pytest.fixture(scope="module")
def pes_full(three_cells):
    return pes_of_net(MarkedNet(three_cells.net, fs({"1", "2", "3"})))


def test_pes_of_fully_marked_net(pes_full):
    assert pes_full.events == fs("a b c d e f g h".split())
    assert pes_full.in_conflict("a", "b")
    assert pes_full.in_conflict("c", "d")
    assert pes_full.in_conflict("e", "f")
    assert pes_full.in_conflict("d", "f")     # inherited: c #0 d, c ≼ f
    assert pes_full.in_conflict("b", "f")     # inherited: a #0 b, a ≼ f
    assert not pes_full.in_conflict("e", "g")
    assert "a" in pes_full.down("f")
    assert "c" in pes_full.down("g")


def test_pes_restricts_unmarked_inputs(three_cells):
    pes = pes_of_net(three_cells)              # place 1 unmarked: a, b, f die
    assert pes.events == fs({"c", "d", "e", "g", "h"})
    assert pes.in_conflict("c", "d")
    assert not any(e in pes.events for e in ("a", "b", "f"))


def test_pes_conflict_free_net():
    net = Net(fs({"p", "q"}), fs({"t"}), fs([("p", "t"), ("t", "q")]))
    pes = pes_of_net(MarkedNet(net, fs({"p"})))
    assert pes.rivals == {"t": fs()}


def test_pes_tables_are_read_only_copies():
    causes, rivals = {"t": fs({"t"}), "u": fs({"u"})}, {"t": fs({"u"}), "u": fs({"t"})}
    pes = PES(fs({"t", "u"}), causes, rivals)
    assert pes.immediate_conflicts("t") == fs({"u"})   # builds the searches' index
    for table in (pes.causes, pes.rivals):
        with pytest.raises(TypeError):
            table["t"] = fs()
        with pytest.raises(TypeError):
            del table["t"]
    causes["t"], rivals["t"] = fs(), fs()              # the caller's dicts are copied
    assert pes.causes["t"] == fs({"t"}) and pes.rivals["t"] == fs({"u"})
    assert pes.immediate_conflicts("t") == fs({"u"})
    assert pes == PES(pes.events, dict(pes.causes), dict(pes.rivals))


@pytest.mark.parametrize("events, causes, rivals, message", [
    ({"t"}, {}, {"t": set()}, "causes and rivals must map exactly the events"),
    ({"t"}, {"t": set()}, {"t": set()}, "the causes of t must be events including t, its rivals events"),
    ({"t"}, {"t": {"t"}}, {"t": {"t"}}, "conflict must be irreflexive, got t # t"),
    ({"t", "u"}, {"t": {"t"}, "u": {"u"}}, {"t": {"u"}, "u": set()}, "conflict must be symmetric, missing u # t"),
    ({"t", "u", "v"}, {"t": {"t"}, "u": {"u"}, "v": {"t", "v"}}, {"t": {"u"}, "u": {"t"}, "v": set()},
     "conflict not inherited: u # t ≼ v but not u # v"),
])
def test_pes_refuses_a_structure_that_is_not_one(events, causes, rivals, message):
    with pytest.raises(NetError, match=f"^{re.escape(message)}$"):
        PES(fs(events), {e: fs(c) for e, c in causes.items()}, {e: fs(r) for e, r in rivals.items()})


def reference_pes(marked):
    """The PES of a marked net straight from the definitions: remove the
    unmarked inputs with everything depending on them, then take the
    flow order and the shared-precondition conflict inherited along it."""
    if marked.inputs:
        marked = at_marking(marked, fs()).marked
    net = marked.net
    events = net.transitions
    closure = descendants(net)
    leq = fs((t, u) for t in events for u in events if u in closure[t])
    conflict = set()
    for t1 in events:
        for t2 in events:
            if t1 != t2 and net.pre(t1) & net.pre(t2):
                above1 = [x for x in events if (t1, x) in leq]
                above2 = [y for y in events if (t2, y) in leq]
                conflict |= {(x, y) for x in above1 for y in above2 if x != y}
    return events, leq, fs(conflict)


def pairs(pes):
    """A PES as the (events, leq, conflict) pair sets of its tables."""
    leq = fs((x, e) for e in pes.events for x in pes.down(e))
    conflict = fs((e, f) for e in pes.events for f in pes.rivals[e])
    return pes.events, leq, conflict


def assert_immediate_conflicts_match_scan(pes):
    _events, _leq, conflict = pairs(pes)
    for e in pes.events:
        immediate = fs(
            f for f in pes.events
            if {(x, y) for x in pes.down(e) for y in pes.down(f)
                if (x, y) in conflict} == {(e, f)}
        )
        assert pes.immediate_conflicts(e) == immediate


def reference_stopping_prefixes(pes):
    """The minimal non-empty event sets closed under causes and immediate
    conflicts, by trying every subset."""
    events = sorted(pes.events)
    subsets = (
        fs(e for i, e in enumerate(events) if bits >> i & 1) for bits in range(1, 2 ** len(events))
    )
    minimal = []
    for block in sorted(subsets, key=len):
        closed = all(pes.down(e) | pes.immediate_conflicts(e) <= block for e in block)
        if closed and not any(m < block for m in minimal):
            minimal.append(block)
    return fs(minimal)


def test_restricted_pes_matches_definition_on_random_nets():
    rng = random.Random(31)
    for size in [(8, 6)] * 60 + [(12, 9)] * 15:
        marked = random_occurrence_net(rng, *size)
        lonely = isolated_places(marked.net)
        report = check_correspondence(marked)
        for case in report.cases:
            extended = MarkedNet(marked.net, (marked.marking | case.arriving) - lonely)
            pes = pes_of_net(extended)
            assert pairs(pes) == reference_pes(extended)
            assert case.from_event_structure == maximal_r_stopped(pes)
            assert_immediate_conflicts_match_scan(pes)
            for e in pes.events:                # restricted again, to a future
                fut = future(pes, pes.down(e))
                assert_immediate_conflicts_match_scan(fut)
                for f in fut.events:            # and a future of that future
                    again = future(fut, fut.down(f))
                    assert_immediate_conflicts_match_scan(again)
                    # the searches cut the parent's immediate conflicts down to a future
                    for g in again.events:
                        assert again.immediate_conflicts(g) == fut.immediate_conflicts(g) & again.events
            index, tables = pes._index, {}      # one index, its tables shared by every future
            for v in r_stopped_configs(pes):
                fut = future(pes, v)
                assert stopping_prefixes(fut) == initial_stopping_prefixes(fut) == reference_stopping_prefixes(fut)
                fresh = PES(fut.events, fut.causes, fut.rivals)
                table = _cell_table(index, index.mask(fut.events), tables)
                assert [[index.names(w) for w, _rivals in ways] for ways in table] == [
                    list(ways) for ways in reference_cell_table(fresh, fs(), {})
                ]
                for ways in table:              # each way carries its rivals
                    assert all(index.names(r) == fs().union(*map(pes.rivals.get, index.names(w)))
                               for w, r in ways)


def reference_restrict(reference, keep):
    events, leq, conflict = reference
    kept = lambda pairs: fs((x, y) for x, y in pairs if x in keep and y in keep)
    return events & keep, kept(leq), kept(conflict)


def test_every_pes_is_its_checked_tables_on_random_nets():
    # Each structure pes_of_net, future and restrict build is the one the
    # public constructor checks and builds from its tables, and it cuts
    # the definition's pair sets down to its events.
    rng = random.Random(59)
    built = 0
    for _ in range(150):
        marked = random_occurrence_net(rng, 12, 9)
        fully = MarkedNet(marked.net, marked.marking | marked.inputs - isolated_places(marked.net))
        structures = []
        for m in (marked, fully):
            pes, reference = pes_of_net(m), reference_pes(m)
            _events, _leq, conflict = reference
            structures.append((pes, reference))
            for e in sorted(pes.events):
                v = pes.down(e)
                rest = fs(f for f in pes.events - v if not any((x, f) in conflict for x in v))
                structures.append((future(pes, v), reference_restrict(reference, rest)))
                rest = pes.events - {e}
                structures.append((restrict(pes, rest), reference_restrict(reference, rest)))
        for structure, expected in structures:
            assert PES(structure.events, dict(structure.causes), dict(structure.rivals)) == structure
            assert pairs(structure) == expected
            built += 1
    assert built > 1000


def stopping_prefixes(pes):
    """The initial stopping prefixes that the oracle's search finds, on
    the structure's index, as event sets."""
    index = pes._index
    return fs(map(index.names, _stopping_prefixes(index, index.all, _minimal(index, index.all))))


def test_initial_stopping_prefixes(pes_full):
    assert stopping_prefixes(pes_full) == fs({fs({"a", "b"}), fs({"c", "d"})})


def branching_cells(pes, v):
    """The branching cells enabled after v: initial stopping prefixes of
    the future of v."""
    return stopping_prefixes(future(pes, v))


def test_branching_cells_after_a(pes_full):
    assert branching_cells(pes_full, fs({"a"})) == fs({fs({"c", "d"})})


def test_branching_cell_after_a_c(pes_full):
    assert branching_cells(pes_full, fs({"a", "c"})) == fs({fs({"e", "f", "g", "h"})})


def test_branching_cells_after_b(pes_full):
    # after b, the e-versus-f interference is gone: e is a cell by itself
    assert branching_cells(pes_full, fs({"b"})) == fs({fs({"c", "d"}), fs({"e"})})


def test_future_of_maximal_configuration_is_empty(pes_full):
    assert future(pes_full, fs({"a", "c", "e", "g"})).events == fs()


def test_future_requires_configuration(pes_full):
    with pytest.raises(NetError):
        future(pes_full, fs({"a", "b"}))       # conflicting
    with pytest.raises(NetError):
        future(pes_full, fs({"f"}))            # not downward closed


def test_r_stopped_configs(pes_full):
    info = r_stopped_configs(pes_full)
    assert fs() in info
    assert fs({"a", "c", "e", "g"}) in info
    assert info[fs({"a", "c", "e", "g"})].maximal
    assert fs({"a", "c", "e"}) not in info     # e alone is not maximal in its cell
    assert fs({"a", "c"}) in info and not info[fs({"a", "c"})].maximal
    chain = info[fs({"a", "c", "e", "g"})].chain
    assert {step for step in chain} == {fs({"a"}), fs({"c"}), fs({"e", "g"})}
    # every prefix of the witnessing chain is itself recursively stopped
    acc = fs()
    for step in chain:
        acc |= step
        assert acc in info


def test_maximal_r_stopped_running(pes_full):
    expected = {
        fs({"a", "c", "f"}), fs({"a", "c", "e", "g"}), fs({"a", "c", "e", "h"}),
        fs({"a", "d", "e"}),
        fs({"b", "c", "e", "g"}), fs({"b", "c", "e", "h"}), fs({"b", "d", "e"}),
    }
    assert maximal_r_stopped(pes_full) == fs(expected)


def test_conf_of_term_running(three_cells):
    term = compile_net(three_cells)
    assert conf_of_term(term, {"1"}) == fs(
        {
            fs({"a", "c", "f"}), fs({"a", "c", "e", "g"}), fs({"a", "c", "e", "h"}),
            fs({"a", "d", "e"}),
            fs({"b", "c", "e", "g"}), fs({"b", "c", "e", "h"}), fs({"b", "d", "e"}),
        }
    )
    assert conf_of_term(term, fs()) == fs(
        {fs({"c", "e", "g"}), fs({"c", "e", "h"}), fs({"d", "e"})}
    )
    with pytest.raises(NetError):
        conf_of_term(term, {"4"})


def test_conf_of_identity_and_constant(three_cells):
    from cellnet import Identity, compile_cell, scells

    assert conf_of_term(Identity(fs({"s"})), {"s"}) == fs({fs()})
    cells = scells(three_cells.net, three_cells.marking)
    nc2 = next(c for c in cells if "c" in c.members).subnet
    assert conf_of_term(compile_cell(nc2), fs()) == fs({fs({"c"}), fs({"d"})})


def test_check_correspondence_running(three_cells):
    report = check_correspondence(three_cells)
    assert report.ok
    assert len(report.cases) == 2              # j ⊆ {1}


def test_check_correspondence_confusion(confusion):
    report = check_correspondence(confusion)
    assert report.ok
    assert len(report.cases) == 1              # no unmarked inputs


def test_correspondence_case_lists_what_each_side_has_alone():
    from cellnet import CorrespondenceCase

    case = CorrespondenceCase(fs({"1"}), fs({fs({"a"}), fs({"b", "c"})}),
                              fs({fs({"a"}), fs({"e"}), fs({"d"})}))
    assert not case.ok
    assert str(case) == "inputs {1}: MISMATCH (only event structure: ['{b,c}']; only term: ['{d}', '{e}'])"


def test_check_correspondence_with_isolated_input():
    # an isolated place is a legitimate input wire but may not be
    # marked; the event-structure side ignores tokens arriving there
    net = Net(fs({"p", "q", "lone"}), fs({"t"}), fs([("p", "t"), ("t", "q")]))
    report = check_correspondence(MarkedNet(net, fs()))
    assert report.ok
    assert len(report.cases) == 4              # j ⊆ {p, lone}


def test_single_cell_conf_is_transactions():
    net = Net(fs({"p", "q", "r"}), fs({"t", "u"}),
              fs([("p", "t"), ("p", "u"), ("t", "q"), ("u", "r")]))
    marked = MarkedNet(net, fs({"p"}))
    term = compile_net(marked)
    assert conf_of_term(term, fs()) == fs({fs({"t"}), fs({"u"})})
    assert maximal_r_stopped(pes_of_net(marked)) == fs({fs({"t"}), fs({"u"})})


def test_outcome_distribution_running(three_cells):
    outcome = enumerate_outcome_distribution(three_cells, three_cell_delta())
    assert outcome.place_marginal("7") == pytest.approx(0.91, abs=1e-12)
    # maximal configurations carry the branching-cell run probabilities
    p_acf = 0.3 * 0.6 * 0.5
    assert outcome.configurations.prob(fs({"a", "c", "f"})) == pytest.approx(p_acf, abs=1e-12)
    assert sum(outcome.configurations.values()) == pytest.approx(1.0, abs=1e-12)
    assert set(outcome.configurations.support) == set(
        conf_of_term(compile_net(three_cells), three_cells.inputs)
    )


def test_outcome_distribution_confusion(confusion):
    pa, pc = 0.25, 0.4
    outcome = enumerate_outcome_distribution(confusion, confusion_delta(pa=pa, pc=pc))
    assert outcome.place_marginal("6") == pytest.approx(pa * (1 - pc), abs=1e-12)
    assert outcome.place_marginal("5") == pytest.approx((1 - pa) + pa * pc, abs=1e-12)


def test_outcome_distribution_deterministic_point_mass():
    net = Net(fs({"p", "q"}), fs({"t"}), fs([("p", "t"), ("t", "q")]))
    marked = MarkedNet(net, fs({"p"}))
    from conftest import uniform_delta

    outcome = enumerate_outcome_distribution(marked, uniform_delta(marked))
    assert outcome.markings.prob(fs({"q"})) == pytest.approx(1.0)


def test_outcome_matches_matrix_row_by_row(three_cells):
    delta = three_cell_delta()
    term = compile_net(three_cells)
    arrow = interpret(term, delta, Wiring(("1",)))
    for arriving in (fs(), fs({"1"})):
        outcome = enumerate_outcome_distribution(three_cells, delta, arriving)
        matrix_row = arrow.matrix[arrow.in_wiring.index(arriving)]
        row = {arrow.out_wiring.subset_at(k): float(v) for k, v in enumerate(matrix_row) if v > 0}
        assert set(outcome.markings.support) == set(row)
        for subset, p in row.items():
            assert outcome.markings.prob(subset) == pytest.approx(p, abs=1e-12)


def test_sampling_mode_matches_exact(three_cells):
    delta = three_cell_delta()
    summary = sample_outcome_distribution(three_cells, delta, samples=4000, seed=11)
    exact = enumerate_outcome_distribution(three_cells, delta)
    p = exact.place_marginal("7")
    q = summary.place_marginal("7")
    se = math.sqrt(q * (1.0 - q) / summary.samples)   # the estimate's standard error
    assert se < 0.02
    assert math.isclose(q, p, abs_tol=5 * max(se, 1e-3))


def test_sampling_is_seeded(three_cells):
    delta = three_cell_delta()
    a = sample_outcome_distribution(three_cells, delta, samples=500, seed=3)
    b = sample_outcome_distribution(three_cells, delta, samples=500, seed=3)
    assert a.marking_counts == b.marking_counts


def test_oracle_backend_equivalence_random_deltas(three_cells, confusion):
    rng = random.Random(2024)
    for marked in (three_cells, confusion):
        term = compile_net(marked)
        from conftest import random_delta

        for _ in range(10):
            delta = random_delta(marked, rng)
            arrow = interpret(term, delta)
            state = forward(State.point(arrow.in_wiring, arrow.in_wiring.place_set), arrow)
            outcome = enumerate_outcome_distribution(marked, delta)
            for place in sorted(arrow.out_wiring.place_set):
                lhs = outcome.place_marginal(place)
                rhs = state.place_marginal(place)
                assert abs(lhs - rhs) < 1e-9

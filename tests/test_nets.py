import pytest

from cellnet import (
    MarkedNet,
    Net,
    NetError,
    OccurrenceError,
    enumerate_transactions,
    fire,
    identity_net,
    isolated_places,
    max_places,
    min_places,
    validate_occurrence,
)

fs = frozenset


def test_example_net_is_valid_occurrence(three_cells):
    assert validate_occurrence(three_cells.net).ok


def test_backward_conflict_reported():
    net = Net(fs({"p", "q", "r"}), fs({"t1", "t2"}),
              fs([("q", "t1"), ("r", "t2"), ("t1", "p"), ("t2", "p")]))
    report = validate_occurrence(net)
    assert not report.ok
    assert any(v.kind == "backward-conflict" and v.node == "p" for v in report.violations)


def test_cycle_reported():
    net = Net(fs({"p"}), fs({"t"}), fs([("p", "t"), ("t", "p")]))
    report = validate_occurrence(net)
    assert any(v.kind == "cycle" for v in report.violations)


def test_self_conflict_reported():
    # t needs both outputs of the conflicting pair t1/t2.
    net = Net(
        fs({"s", "x", "y", "z"}),
        fs({"t1", "t2", "t"}),
        fs([("s", "t1"), ("s", "t2"), ("t1", "x"), ("t2", "y"),
            ("x", "t"), ("y", "t"), ("t", "z")]),
    )
    report = validate_occurrence(net)
    assert any(v.kind == "self-conflict" and v.node == "t" for v in report.violations)


def _net_of(arcs):
    """The net with these arcs: nodes whose names start with 'p' are
    places, the others transitions."""
    nodes = {x for arc in arcs for x in arc}
    places = {x for x in nodes if x.startswith("p")}
    return Net(fs(places), fs(nodes - places), fs(arcs))


def test_self_conflict_witness_is_the_least_pair_over_all_places():
    # pa feeds u1, u3, u4 and pb feeds u2, u5.  Below t, pa's least pair
    # is (u3, u4) and pb's is (u2, u5): the least comes from pb, the place
    # that sorts second.  Below s, pa's (u1, u3) beats pb's (u2, u5), so
    # whichever place is met first, keeping its pair loses one witness.
    arcs = [("pa", u) for u in ("u1", "u3", "u4")] + [("pb", u) for u in ("u2", "u5")]
    arcs += [(u, "p" + u) for u in ("u1", "u2", "u3", "u4", "u5")]
    arcs += [("p" + u, "t") for u in ("u2", "u3", "u4", "u5")]
    arcs += [("p" + u, "s") for u in ("u1", "u2", "u3", "u5")]
    assert str(validate_occurrence(_net_of(arcs))) == (
        "self-conflict at s: conflicting causes u1 #0 u3\n"
        "self-conflict at t: conflicting causes u2 #0 u5"
    )


def test_a_consumer_below_a_rival_of_its_own_place_is_its_own_witness():
    # u and v both consume p, and v also consumes what u produces.
    net = _net_of([("p", "u"), ("p", "v"), ("u", "pu"), ("pu", "v"), ("v", "pv")])
    assert str(validate_occurrence(net)) == "self-conflict at v: conflicting causes u #0 v"


def test_self_conflicts_are_reported_in_sorted_order():
    # z joins the conflicting a and b, and y follows z.
    net = _net_of([("p", "a"), ("p", "b"), ("a", "pa"), ("b", "pb"),
                   ("pa", "z"), ("pb", "z"), ("z", "pz"), ("pz", "y")])
    assert str(validate_occurrence(net)) == (
        "self-conflict at y: conflicting causes a #0 b\n"
        "self-conflict at z: conflicting causes a #0 b"
    )


def test_the_flow_closure_is_built_only_for_a_place_with_two_consumers():
    chain = _net_of([("p0", "t0"), ("t0", "p1"), ("p1", "t1"), ("t1", "p2")])
    wide = _net_of([(f"p{i}", f"t{i}") for i in range(5)] + [(f"t{i}", f"pq{i}") for i in range(5)])
    for net in (chain, wide):
        assert validate_occurrence(net).ok
        assert "descendants" not in net._index.__dict__
    shared = _net_of([("p", "a"), ("p", "b"), ("a", "pa")])
    assert validate_occurrence(shared).ok
    index = shared.__dict__["_index"]   # only the descendants are worked out
    assert "descendants" in index.__dict__ and "rivals" not in index.__dict__


def test_empty_preset_rejected():
    with pytest.raises(NetError):
        Net(fs({"p"}), fs({"t"}), fs([("t", "p")]))


def test_the_least_bad_arc_and_unfed_transition_are_named():
    with pytest.raises(NetError, match=r"flow arc \('q', 'p'\) does not connect"):
        Net(fs({"p"}), fs({"t"}), fs([("p", "t"), ("y", "t"), ("x", "t"), ("q", "p")]))
    with pytest.raises(NetError, match="transition 'a' has an empty pre-set"):
        Net(fs({"p"}), fs({"c", "a", "b"}), fs([("c", "p")]))


def test_pre_and_post_of_an_unknown_node_are_refused():
    net = _net_of([("p", "t"), ("t", "pq")])
    assert (net.pre("t"), net.post("t"), net.pre("p"), net.post("pq")) == (fs({"p"}), fs({"pq"}), fs(), fs())
    for lookup in (net.pre, net.post):
        with pytest.raises(NetError, match="unknown node 'nope'"):
            lookup("nope")


def test_namespace_overlap_rejected():
    with pytest.raises(NetError):
        Net(fs({"x"}), fs({"x"}), fs())


def test_interface_queries(three_cells):
    net = three_cells.net
    assert min_places(net) == fs({"1", "2", "3"})
    assert max_places(net) == fs({"5", "7", "8", "9", "10"})
    assert isolated_places(net) == fs()


def test_identity_net_interfaces():
    ident = identity_net({"s1", "s2"})
    assert min_places(ident.net) == fs({"s1", "s2"})
    assert max_places(ident.net) == fs({"s1", "s2"})
    assert isolated_places(ident.net) == fs({"s1", "s2"})


def test_interface_sets_are_kept(three_cells):
    # the interface sets are computed once per net, not on every read
    ident = identity_net({"s1", "s2"})
    assert isolated_places(ident.net) is isolated_places(ident.net)
    partly = MarkedNet(three_cells.net, fs({"2"}))
    assert partly.inputs == fs({"1", "3"})
    assert partly.inputs is partly.inputs


def test_fire(three_cells):
    fully = MarkedNet(three_cells.net, fs({"1", "2", "3"}))
    assert fire(fully, "a") == fs({"2", "3", "4"})
    with pytest.raises(NetError):
        fire(MarkedNet(three_cells.net, fs({"2", "3"})), "a")


def test_fire_self_loop_keeps_marking():
    from cellnet.nets import fire_at

    net = Net(fs({"p", "q"}), fs({"t"}), fs([("p", "t"), ("t", "p"), ("q", "t"), ("t", "q")]))
    assert not validate_occurrence(net).ok   # cyclic, so only the raw token game applies
    assert fire_at(net, fs({"p", "q"}), "t") == fs({"p", "q"})


def test_marking_validation(three_cells):
    with pytest.raises(OccurrenceError):
        MarkedNet(three_cells.net, fs({"4"}))       # not initial
    with pytest.raises(OccurrenceError):
        MarkedNet(three_cells.net, fs({"zz"}))      # unknown
    with pytest.raises(OccurrenceError):
        MarkedNet(identity_net({"s"}).net, fs({"s"}))  # isolated


def test_transactions_of_cell_c3():
    sub = Net(
        fs("3 4 6 7 8 9 10".split()),
        fs({"e", "f", "g", "h"}),
        fs([("3", "e"), ("e", "7"), ("3", "f"), ("4", "f"), ("6", "f"),
            ("f", "8"), ("6", "g"), ("g", "9"), ("6", "h"), ("h", "10")]),
    )
    marked = MarkedNet(sub, fs({"3", "4", "6"}))
    transactions = enumerate_transactions(marked)
    by_transitions = {p.transitions: p for p in transactions}
    assert set(by_transitions) == {fs({"f"}), fs({"e", "g"}), fs({"e", "h"})}
    theta1 = by_transitions[fs({"f"})]
    assert theta1.initial_places == fs({"3", "4", "6"})
    assert theta1.final_places == fs({"8"})
    theta2 = by_transitions[fs({"e", "g"})]
    assert theta2.initial_places == fs({"3", "6"})
    assert theta2.final_places == fs({"7", "9"})


def test_transactions_of_cell_c1():
    sub = Net(fs({"1", "4", "5"}), fs({"a", "b"}),
              fs([("1", "a"), ("a", "4"), ("1", "b"), ("b", "5")]))
    transactions = enumerate_transactions(MarkedNet(sub, fs({"1"})))
    assert {p.transitions for p in transactions} == {fs({"a"}), fs({"b"})}


def test_transactions_single_transition():
    net = Net(fs({"p", "q"}), fs({"t"}), fs([("p", "t"), ("t", "q")]))
    transactions = enumerate_transactions(MarkedNet(net, fs({"p"})))
    assert {p.transitions for p in transactions} == {fs({"t"})}


def test_transactions_require_full_marking(three_cells):
    with pytest.raises(OccurrenceError):
        enumerate_transactions(three_cells)  # place 1 unmarked


def test_each_net_is_validated_once(monkeypatch):
    import cellnet.nets
    from cellnet import compile_cell, load_net, scells

    calls = []

    def counted(net):
        calls.append(net)
        return validate_occurrence(net)

    monkeypatch.setattr(cellnet.nets, "validate_occurrence", counted)
    flow = fs([("p", "t"), ("t", "q")])
    net = Net(fs({"p", "q"}), fs({"t"}), flow)
    MarkedNet(net, fs({"p"}))
    MarkedNet(net, fs())
    scells(net)
    assert [n is net for n in calls] == [True]   # its cell's subnet inherits the check
    bad = Net(fs({"p", "q"}), fs({"t"}), flow | {("q", "t")})
    for _ in range(2):
        with pytest.raises(OccurrenceError):
            MarkedNet(bad)
    assert calls[1:] == [bad]
    # a parsed net is checked once; its cells, and each cell restricted
    # to every subset of its inputs, are derived without a check
    del calls[:]
    marked = load_net("nets/three_cells.net")
    for cell in scells(marked.net, marked.marking):
        compile_cell(cell.subnet)
    assert [n is marked.net for n in calls] == [True]

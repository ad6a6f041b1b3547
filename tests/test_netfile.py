import json
import re

import pytest

from cellnet import FileFormatError, load_net, parse_net, render_net
from conftest import build_confusion_net, build_three_cell_net


def test_round_trip_examples():
    for marked in (build_three_cell_net(), build_confusion_net()):
        assert parse_net(render_net(marked)) == marked


def test_shipped_files_parse():
    running = load_net("nets/three_cells.net")
    assert running == build_three_cell_net()
    assert load_net("nets/confusion.net") == build_confusion_net()


def test_minimal_document():
    marked = parse_net(
        '{"places": ["p", "q"], '
        '"transitions": [{"id": "t", "pre": ["p"], "post": ["q"]}]}'
    )
    assert marked.marking == frozenset()
    assert marked.net.transitions == {"t"}


def test_rejections():
    bad_documents = [
        "[]",                                                        # not an object
        '{"places": ["p", "p"], "transitions": []}',                 # duplicate place
        '{"places": ["p"], "transitions": [{"id": "p", "pre": ["p"], "post": []}]}',
        '{"places": ["p"], "transitions": [{"id": "t", "pre": ["q"], "post": []}]}',
        '{"places": ["p"], "transitions": [], "marking": ["q"]}',    # dangling marking
        '{"places": ["p"], "transitions": [], "marking": ["p", "p"]}',
        '{"places": ["p"], "transitions": [], "extra": 1}',
        '{"places": ["p"], "transitions": [{"id": "t", "pre": [], "post": ["p"]}]}',
        "not json",
    ]
    for text in bad_documents:
        with pytest.raises(FileFormatError):
            parse_net(text)


@pytest.mark.parametrize("places, transitions", [(["p"], ["t", "t"]), (["p", "t"], ["t"])])
def test_duplicate_transition_identifier(places, transitions):
    # a transition id that repeats an earlier transition's, or a place's
    doc = {"places": places, "transitions": [{"id": t, "pre": ["p"]} for t in transitions]}
    with pytest.raises(FileFormatError, match=r"^duplicate identifier 't'$"):
        parse_net(json.dumps(doc))


@pytest.mark.parametrize("places, transition", [(["a,b", "q"], "t"), (["p", "q"], "a,b"), (["p q", "q"], "t")])
def test_identifier_outside_the_term_syntax(places, transition):
    # a comma or a space would split the identifier in a term or a δ signature
    doc = {"places": places, "transitions": [{"id": transition, "pre": [places[0]], "post": ["q"]}]}
    bad = transition if transition == "a,b" else places[0]
    with pytest.raises(FileFormatError, match=rf"^identifier {bad!r} may hold only ASCII letters, digits"):
        parse_net(json.dumps(doc))


@pytest.mark.parametrize("doc, message", [
    ({"transitions": []}, "missing field 'places'"),
    ({"places": ["p"], "transitions": [{"id": "t", "post": ["p"]}]}, "missing field 'pre' of transition 't'"),
    # a field present as null is no list, whether it is required or not
    ({"places": None, "transitions": []}, "'places' must be a list of non-empty strings"),
    ({"places": ["p"], "transitions": [{"id": "t", "pre": None}]},
     "'pre' of transition 't' must be a list of non-empty strings"),
    ({"places": ["p"], "transitions": [{"id": "t", "pre": ["p"], "post": None}]},
     "'post' of transition 't' must be a list of non-empty strings"),
    ({"places": ["p"], "transitions": [], "marking": None}, "'marking' must be a list of non-empty strings"),
    ({"places": ["p"], "transitions": [{"id": "t", "pre": ["p", ""]}]},
     "'pre' of transition 't' must be a list of non-empty strings"),
])
def test_missing_and_null_fields(doc, message):
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        parse_net(json.dumps(doc))


def test_absent_optional_fields_are_empty():
    marked = parse_net('{"places": ["p"], "transitions": [{"id": "t", "pre": ["p"]}]}')
    assert marked.marking == frozenset() and marked.net.post("t") == frozenset()


@pytest.mark.parametrize("transition, message", [
    # the first undeclared place along pre, then post, before any repeat
    ({"id": "t", "pre": ["x", "p"], "post": ["y"]}, "transition 't' references undeclared place 'x'"),
    ({"id": "t", "pre": ["p"], "post": ["q", "z", "y"]}, "transition 't' references undeclared place 'z'"),
    ({"id": "t", "pre": ["p", "p", "x"]}, "transition 't' references undeclared place 'x'"),
    ({"id": "t", "pre": ["p", "p"]}, "transition 't' lists a place twice"),
    ({"id": "t", "pre": ["p"], "post": ["q", "q"]}, "transition 't' lists a place twice"),
    ({"id": "t", "pre": ["p"], "zz": 1, "aa": 2}, "unknown transition fields: ['aa', 'zz']"),
])
def test_transition_checks_name_the_first_fault(transition, message):
    doc = {"places": ["p", "q"], "transitions": [transition]}
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        parse_net(json.dumps(doc))


@pytest.mark.parametrize("transitions, message", [
    ({}, "'transitions' must be a list"),
    (["t"], "each transition must be an object with id/pre/post"),
    ([{"id": "", "pre": ["p"]}], "transition id must be a non-empty string, got ''"),
])
def test_transition_list_names_its_fault(transitions, message):
    doc = {"places": ["p"], "transitions": transitions}
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        parse_net(json.dumps(doc))


def test_marking_names_its_first_undeclared_place():
    doc = {"places": ["p"], "transitions": [], "marking": ["p", "z", "y", "z"]}
    with pytest.raises(FileFormatError, match=r"^marking references undeclared place 'z'$"):
        parse_net(json.dumps(doc))

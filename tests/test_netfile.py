import json

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

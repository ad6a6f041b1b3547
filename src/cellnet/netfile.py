"""Net file format: one JSON document per marked net.

Grammar (documented in the README):

    {
      "places":      ["p", ...],
      "transitions": [{"id": "t", "pre": ["p", ...], "post": ["q", ...]}, ...],
      "marking":     ["p", ...]
    }

``marking`` is optional and defaults to empty.  The parser rejects
duplicate identifiers, undeclared references and identifiers no term
can carry.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FileFormatError, NetError
from .nets import MarkedNet, Net
from .terms import _IDENTIFIER

_NET_FIELDS = frozenset({"places", "transitions", "marking"})
_TRANSITION_FIELDS = frozenset({"id", "pre", "post"})
_ABSENT = object()  # the value of a field a document leaves out


def parse_net_parts(text: str) -> tuple[Net, frozenset[str]]:
    """Parse a net file into the raw net and marking, applying only the
    format-level checks (well-formed JSON, no duplicates, no dangling
    references).  Occurrence-net validation is the caller's business."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"net file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("net file must contain a single JSON object")
    if not doc.keys() <= _NET_FIELDS:
        raise FileFormatError(f"unknown net file fields: {sorted(doc.keys() - _NET_FIELDS)}")

    places = _id_list(doc, "places")
    seen = set(places)
    if len(seen) != len(places):
        raise FileFormatError("duplicate place identifiers")

    transitions: set[str] = set()
    flow: set[tuple[str, str]] = set()
    raw_transitions = doc.get("transitions", [])
    if not isinstance(raw_transitions, list):
        raise FileFormatError("'transitions' must be a list")
    for entry in raw_transitions:
        if not isinstance(entry, dict):
            raise FileFormatError("each transition must be an object with id/pre/post")
        if not entry.keys() <= _TRANSITION_FIELDS:
            raise FileFormatError(f"unknown transition fields: {sorted(entry.keys() - _TRANSITION_FIELDS)}")
        tid = entry.get("id")
        if not isinstance(tid, str) or not tid:
            raise FileFormatError(f"transition id must be a non-empty string, got {tid!r}")
        if tid in seen or tid in transitions:
            raise FileFormatError(f"duplicate identifier {tid!r}")
        transitions.add(tid)
        pre = _id_list(entry, "pre", tid)
        post = _id_list(entry, "post", tid, default=[])
        if not (seen.issuperset(pre) and seen.issuperset(post)):
            p = next(p for p in pre + post if p not in seen)
            raise FileFormatError(f"transition {tid!r} references undeclared place {p!r}")
        arcs = len(flow) + len(pre) + len(post)
        flow.update([(p, tid) for p in pre])
        flow.update([(tid, p) for p in post])
        if len(flow) != arcs:  # no other transition's arc has this id, so a repeat
            raise FileFormatError(f"transition {tid!r} lists a place twice")

    marking = _id_list(doc, "marking", default=[])
    if not seen.issuperset(marking):
        p = next(p for p in marking if p not in seen)
        raise FileFormatError(f"marking references undeclared place {p!r}")
    if len(set(marking)) != len(marking):
        raise FileFormatError("duplicate places in marking")

    # A term or a δ signature must carry each declared identifier; none is
    # empty, so all are words of the term syntax when their concatenation is.
    declared = places + [entry["id"] for entry in raw_transitions]
    if declared and not _IDENTIFIER.fullmatch("".join(declared)):
        bad = next(x for x in declared if not _IDENTIFIER.fullmatch(x))
        raise FileFormatError(f"identifier {bad!r} may hold only ASCII letters, digits, '_', '.' and '-'")
    try:
        net = Net(frozenset(places), frozenset(transitions), frozenset(flow))
    except NetError as exc:
        raise FileFormatError(str(exc)) from exc
    return net, frozenset(marking)


def parse_net(text: str) -> MarkedNet:
    """Parse and fully validate a marked occurrence net."""
    net, marking = parse_net_parts(text)
    return MarkedNet(net, marking)


def _id_list(doc: dict, field: str, tid: str | None = None, default: Any = _ABSENT) -> list[str]:
    """``doc[field]``, a list of non-empty strings, or ``default`` when
    the field is absent; with no default the field is required.  A field
    is named, quoted, as the transition ``tid``'s when one is given."""
    value = doc.get(field, default)
    if isinstance(value, list) and all(isinstance(x, str) and x for x in value):
        return value
    what = repr(field) if tid is None else f"{field!r} of transition {tid!r}"
    if value is _ABSENT:
        raise FileFormatError(f"missing field {what}")
    raise FileFormatError(f"{what} must be a list of non-empty strings")


def render_net(marked: MarkedNet) -> str:
    """Serialize back to the file format (deterministic field order)."""
    net = marked.net
    doc = {
        "places": sorted(net.places),
        "transitions": [
            {"id": t, "pre": sorted(net.pre(t)), "post": sorted(net.post(t))}
            for t in sorted(net.transitions)
        ],
        "marking": sorted(marked.marking),
    }
    return json.dumps(doc, indent=2) + "\n"


def load_net(path: str) -> MarkedNet:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_net(handle.read())

"""Compiling a net and running a command leave no reference cycles
behind: what a call allocates is freed by reference counting when the
call returns, so the cyclic garbage collector finds nothing.

Each check runs with the collector disabled and ``gc.DEBUG_SAVEALL``
set, so that one collection afterwards keeps everything that only the
cyclic collector could have freed in ``gc.garbage``; the collector's
state is restored however the check ends."""

from __future__ import annotations

import contextlib
import gc
import io
import json
from collections import Counter

from cellnet import compile_net, parse_net
from cellnet.cli import run
from conftest import deep_doc, wide_doc

THREE, THREE_DELTA = "nets/three_cells.net", "nets/three_cells.delta"
CONF, CONF_DELTA = "nets/confusion.net", "nets/confusion.delta"
PRIOR = "nets/prior.state"


def _commands(net: str, delta: str, marginal: str) -> list[list[str]]:
    return [
        ["compile", net],
        ["canon", net],
        ["constants", net],
        ["matrix", net, delta],
        ["infer", net, delta, "--marginal", marginal],
        ["oracle-check", net, delta],
    ]


COMMANDS = [
    *_commands(THREE, THREE_DELTA, "7,8"),
    ["infer", THREE, THREE_DELTA, "--forward", PRIOR],
    ["infer", THREE, THREE_DELTA, "--posterior", "--prior", PRIOR, "--evidence", "8=1"],
    *_commands(CONF, CONF_DELTA, "5"),
]


def _cyclic_garbage(work) -> Counter:
    """The objects, by kind, that only the cyclic collector could free
    after ``work()``."""
    gc.collect()
    enabled, flags, before = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return Counter(
            " ".join([type(x).__name__, getattr(x, "__qualname__", "")]).strip()
            for x in gc.garbage[before:]
        )
    finally:
        del gc.garbage[before:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def _run_commands() -> None:
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) == 0, argv


def test_commands_leave_no_cyclic_garbage():
    # The first round builds the command-line parser, which argparse
    # leaves in reference cycles and the CLI keeps for the process.
    _run_commands()
    assert _cyclic_garbage(_run_commands) == Counter()


def test_compiling_wide_and_deep_nets_leaves_no_cyclic_garbage():
    texts = [json.dumps(wide_doc(300)), json.dumps(deep_doc(70))]

    def compile_all() -> None:
        for text in texts:
            compile_net(parse_net(text))

    assert _cyclic_garbage(compile_all) == Counter()

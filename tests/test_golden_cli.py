"""Every command's stdout, stderr and exit code on the example nets,
compared byte for byte against ``tests/golden_cli.json``.

The cases run in order through ``cli.run`` in one temporary directory,
where the extra input files below are written first; ``{tmp}`` in an
argument names that directory.  A case with a ``save`` name also writes
its stdout there, for later cases to read.  To record the outputs
again after a deliberate change, run ``PYTHONPATH=src python
tests/test_golden_cli.py`` from the repository root and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from cellnet.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")

THREE, THREE_DELTA = "nets/three_cells.net", "nets/three_cells.delta"
CONF, CONF_DELTA = "nets/confusion.net", "nets/confusion.delta"
PRIOR = "nets/prior.state"

# p1 -> t1 -> p2 -> t2 -> p1 and p3 -> t4 -> p4 -> t5 -> p3, joined by
# p2 -> t3 -> p3: t3 lies between the two cycles, on neither.
TWO_CYCLES = {
    "places": ["p1", "p2", "p3", "p4"],
    "transitions": [
        {"id": "t1", "pre": ["p1"], "post": ["p2"]},
        {"id": "t2", "pre": ["p2"], "post": ["p1"]},
        {"id": "t3", "pre": ["p2"], "post": ["p3"]},
        {"id": "t4", "pre": ["p3"], "post": ["p4"]},
        {"id": "t5", "pre": ["p4"], "post": ["p3"]},
    ],
}

FILES = {
    "two_cycles.net": json.dumps(TWO_CYCLES),
    "empty.state": json.dumps({"places": [], "probabilities": {"": 1.0}}),
}


def _net_cases(net: str, delta: str, name: str, prior: str, marginal: str, evidence: str):
    yield ["validate", net], None
    yield ["cells", net], None
    yield ["canon", net], None
    yield ["canon", "--dot", net], None
    yield ["compile", net], f"{name}.term"
    yield ["compile", "--emit-term", net], None
    yield ["compile", "--emit-constants", net], None
    yield ["constants", net], None
    yield ["check-term", f"{{tmp}}/{name}.term"], None
    yield ["configs", net], None
    yield ["diagram", net], None
    for fmt in ("text", "csv", "json"):
        yield ["matrix", net, delta, "--format", fmt], None
    yield ["matrix", net, delta, "--keep", marginal], None
    yield ["matrix", net, delta, "--keep", marginal, "--format", "json"], None
    yield ["infer", net, delta, "--marginal", marginal], None
    yield ["infer", net, delta, "--forward", prior], None
    yield ["infer", net, delta, "--posterior", "--prior", prior, "--evidence", evidence], None
    yield ["infer", net, delta, "--marginal", marginal, "--forward", prior], None
    yield ["infer", net, delta], None
    yield ["oracle-check", net, delta], None


CASES = [
    *_net_cases(THREE, THREE_DELTA, "three_cells", PRIOR, "7,8", "8=1"),
    (["matrix", THREE, THREE_DELTA, "--out-order", "9,8,7,10,5", "--keep", "8,9"], None),
    (["oracle-check", THREE, THREE_DELTA, "--in-order", "1"], None),
    *_net_cases(CONF, CONF_DELTA, "confusion", "{tmp}/empty.state", "5", "5=1"),
    (["infer", CONF, CONF_DELTA, "--forward", PRIOR], None),
    (["validate", "{tmp}/two_cycles.net"], None),
    (["configs", "{tmp}/two_cycles.net"], None),
]


def _run_cases(tmp: Path) -> dict[str, dict]:
    for name, text in FILES.items():
        (tmp / name).write_text(text)
    results = {}
    for argv, save in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([arg.replace("{tmp}", str(tmp)) for arg in argv])
        if save:
            (tmp / save).write_text(out.getvalue())
        results[" ".join(argv)] = {
            "exit": code,
            "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
            "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
        }
    return results


def test_cli_outputs_match_the_recording(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _run_cases(tmp_path)
    assert list(actual) == list(expected)
    for case, result in actual.items():
        assert result == expected[case], case


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = _run_cases(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)

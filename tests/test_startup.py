"""What a command loads when it starts, each case in a fresh interpreter:
``import cellnet`` loads neither numpy nor ``importlib.metadata``, nor
``dataclasses`` and the ``inspect`` it pulls in, the
structural commands run with numpy blocked and print what
``tests/golden_cli.json`` recorded, and ``matrix`` still runs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = json.loads((ROOT / "tests" / "golden_cli.json").read_text(encoding="utf-8"))
NETS = sorted(f"nets/{path.name}" for path in (ROOT / "nets").glob("*.net"))

# Every command that never builds a matrix, with the options that change
# what it prints; check-term reads what compile printed.
STRUCTURAL = [
    ["validate"], ["cells"], ["canon"], ["canon", "--dot"], ["compile"],
    ["compile", "--emit-constants"], ["constants"], ["configs"], ["diagram"],
]

# Runs each argv through cli.run with numpy blocked (importing it raises
# ImportError), saving compile's output as {tmp}/<net>.term for
# check-term, and prints the exit codes and outputs as JSON.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
src, tmp, cases = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, src)
from cellnet.cli import run
results = []
for argv, save in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([arg.replace("{tmp}", tmp) for arg in argv])
    if save:
        with open(f"{tmp}/{save}", "w", encoding="utf-8") as handle:
            handle.write(out.getvalue())
    results.append((code, out.getvalue(), err.getvalue()))
results.append(sorted(name for name in ("numpy", "importlib.metadata") if sys.modules.get(name)))
print(json.dumps(results))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_numpy_and_no_metadata():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import json, cellnet, cellnet.cli; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = _python("-c", code, str(SRC))
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "cellnet.kleisli" in loaded and "cellnet.inference" in loaded
    assert not {name for name in loaded if name == "numpy" or name.startswith("numpy.")}
    assert "importlib.metadata" not in loaded
    # the value classes are written out, so no class generates its methods at import
    assert not loaded & {"dataclasses", "inspect"}


def test_structural_commands_run_without_numpy(tmp_path):
    cases = []
    for net in NETS:
        name = Path(net).stem
        for command in STRUCTURAL:
            cases.append(([*command, net], f"{name}.term" if command == ["compile"] else None))
        cases.append((["check-term", f"{{tmp}}/{name}.term"], None))
    proc = _python("-c", WITHOUT_NUMPY, str(SRC), str(tmp_path), json.dumps(cases))
    assert proc.returncode == 0, proc.stderr
    *results, loaded = json.loads(proc.stdout)
    assert loaded == []
    assert len(results) == len(cases)
    compared = 0
    for (argv, _), (code, out, err) in zip(cases, results):
        case = " ".join(argv)
        assert (code, err) == (0, ""), case
        if case in GOLDEN:
            assert out.replace(str(tmp_path), "{tmp}") == GOLDEN[case]["stdout"], case
            compared += 1
    assert compared  # the example nets have recorded outputs


def test_matrix_runs_with_numpy():
    argv = ["matrix", "nets/three_cells.net", "nets/three_cells.delta", "--format", "text"]
    proc = _python("-c", "import sys; sys.path.insert(0, sys.argv.pop(1)); "
                   "from cellnet.cli import main; main()", str(SRC), *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == GOLDEN[" ".join(argv)]["stdout"]

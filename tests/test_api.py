"""The public API stays small and documented.

``cellnet.__all__`` is exactly the names README's "Python API" section
lists; every public top-level function and class under ``src/cellnet/``
is used by another module there or is one of those names; no module there
reads the environment; and every name the benchmark in ``perfbench/``
reaches still resolves, so trimming the API fails here before it can
break the benchmark.  ``perfbench/`` is only read.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import cellnet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cellnet"
PERFBENCH = ROOT / "perfbench"


def _readme_api() -> dict[str, list[str]]:
    """The names of README's Python API section, by module."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    (listing,) = [block for block in section.split("\n\n") if block.startswith("- `cellnet.")]
    bullets = re.split(r"\n(?=- `cellnet\.)", listing)
    api = {}
    for bullet in bullets:
        match = re.match(r"- `cellnet\.(\w+)`[^:]*:(.*)", bullet, re.S)
        if match:
            api[match.group(1)] = re.findall(r"`(\w+)`", match.group(2))
    return api


def test_all_is_the_readme_api():
    api = _readme_api()
    listed = sorted(name for names in api.values() for name in names)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert sorted(cellnet.__all__) == listed


def test_readme_names_the_module_each_name_comes_from():
    for module, names in _readme_api().items():
        home = importlib.import_module(f"cellnet.{module}")
        for name in names:
            assert getattr(cellnet, name) is getattr(home, name), f"{name} is not from cellnet.{module}"


def _names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_definition_is_used_or_documented():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used_by = {module: _names_used(tree) for module, tree in trees.items() if module != "__init__"}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            elsewhere = any(node.name in names for other, names in used_by.items() if other != module)
            if not elsewhere and node.name not in cellnet.__all__:
                unused.append(f"{module}.{node.name}")
    assert not unused, f"public but used nowhere else in src/ and not in the API: {unused}"


def test_no_module_reads_the_environment():
    # the library's behaviour is fixed by its arguments and input files
    for path in SRC.glob("*.py"):
        used = _names_used(ast.parse(path.read_text(encoding="utf-8")))
        assert not used & {"environ", "getenv"}, f"{path.name} reads the environment"


def _resolve(dotted: str, root=cellnet):
    target = root
    for attr in dotted.split("."):
        target = getattr(target, attr)
    return target


def test_traced_names_resolve():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    wrapped = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)
    )
    assert len(wrapped) > 20
    for module, qualname, _, _ in wrapped:
        assert callable(_resolve(qualname, importlib.import_module(f"cellnet.{module}")))
    # perfbench/run.py reads the typecheck counter
    assert isinstance(cellnet.terms.typecheck.cache_info().misses, int)


def test_names_the_benchmark_reaches_resolve():
    reached = set()
    for path in PERFBENCH.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        reached.update(re.findall(r"\b(?:cn|cellnet)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text))
    assert {"compile_net", "fold_tree", "inference.parse_state", "terms.typecheck"} <= reached
    for dotted in sorted(reached):
        _resolve(dotted)

"""DOT export of a composition tree as a string diagram: one box per
cell leaf, one labelled wire per interface place.  Identity leaves are
not drawn; their places appear as wires running straight through."""

from __future__ import annotations

from .cells import CellLeaf, TreeNode, cell_leaves


def export_diagram(tree: TreeNode) -> str:
    leaves = cell_leaves(tree)
    lines = [
        "digraph cells {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    names: dict[CellLeaf, str] = {}
    for i, leaf in enumerate(leaves):
        names[leaf] = f"cell{i}"
        label = ",".join(sorted(leaf.cell.transitions))
        lines.append(f'  cell{i} [label="{{{label}}}"];')

    producer: dict[str, CellLeaf] = {}
    consumer: dict[str, CellLeaf] = {}
    for leaf in leaves:
        for p in leaf.outputs:
            producer[p] = leaf
        for p in leaf.cell.min_places:
            consumer[p] = leaf

    ports: dict[str, None] = {}  # point nodes of boundary wires, in order of first use
    wires: list[tuple[str, str, str]] = []
    for p in sorted(tree.inputs):
        head = names[consumer[p]] if p in consumer else _port(ports, p, "out")
        tail = _port(ports, p, "in")
        wires.append((tail, head, p))
    for leaf in leaves:
        for p in sorted(leaf.outputs):
            if p in consumer and consumer[p] is not leaf:
                wires.append((names[leaf], names[consumer[p]], p))
            else:
                wires.append((names[leaf], _port(ports, p, "out"), p))
    lines += (f'  {name} [shape=point, label=""];' for name in ports)
    for tail, head, label in wires:
        lines.append(f'  {tail} -> {head} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _port(ports: dict[str, None], place: str, kind: str) -> str:
    name = f"{kind}_{_mangle(place)}"
    ports[name] = None
    return name


def _mangle(place: str) -> str:
    return "".join(c if c.isalnum() else f"_{ord(c):x}" for c in place)

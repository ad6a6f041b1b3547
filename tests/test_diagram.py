from cellnet import canonical_form, export_diagram, identity_net
from references import count_boxes, count_wires


def test_running_example_diagram(three_cells):
    dot = export_diagram(canonical_form(three_cells))
    assert count_boxes(dot) == 3
    assert count_wires(dot) == 8
    for place in ("1", "4", "5", "6", "7", "8", "9", "10"):
        assert f'label="{place}"' in dot
    # marked places are inside the boxes, not wires
    assert 'label="2"' not in dot
    assert 'label="3"' not in dot


def test_confusion_diagram(confusion):
    dot = export_diagram(canonical_form(confusion))
    assert count_boxes(dot) == 2
    assert count_wires(dot) == 3
    for place in ("4", "5", "6"):
        assert f'label="{place}"' in dot


def test_identity_net_diagram():
    dot = export_diagram(canonical_form(identity_net({"x"})))
    assert count_boxes(dot) == 0
    assert count_wires(dot) == 1


def test_diagram_is_stable(three_cells):
    tree = canonical_form(three_cells)
    assert export_diagram(tree) == export_diagram(tree)

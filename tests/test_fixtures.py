"""Bundled data files load and export cleanly."""

import pytest

from tnncells.diagrams import CauchonDiagram
from tnncells.errors import DomainError
from tnncells.fixtures import (
    DIAGRAM_NAMES,
    FLOW_NAMES,
    MATRIX_NAMES,
    export_all,
    load_diagram,
    load_flow,
    load_matrix,
)


def test_every_matrix_fixture_loads():
    for name in MATRIX_NAMES:
        M = load_matrix(name)
        assert M.m >= 1 and M.p >= 1


def test_every_diagram_fixture_loads():
    for name in DIAGRAM_NAMES:
        assert isinstance(load_diagram(name), CauchonDiagram)


def test_every_flow_fixture_loads():
    for name in FLOW_NAMES:
        path = load_flow(name)
        assert (path.m, path.p) == (2, 2)


def test_named_shapes():
    assert load_matrix("tnn_4x4").m == 4
    assert load_matrix("restore_seed_3x3").entry(1, 2) == -1
    assert (1, 2) in load_diagram("demo_diagram_3x3").black


def test_unknown_name_rejected():
    with pytest.raises(DomainError):
        load_matrix("no_such_fixture")


def test_export_all_round_trips(tmp_path):
    written = export_all(tmp_path)
    names = {w.name for w in written}
    assert "tnn_4x4.json" in names
    assert "demo_diagram_3x3.diag" in names
    from tnncells.matrices import load_matrix_text

    again = load_matrix_text((tmp_path / "tnn_4x4.json").read_text())
    assert again.equals(load_matrix("tnn_4x4"))

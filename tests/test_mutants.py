"""Mutants of the product code that the verifiers a user runs must catch.

Each mutant is a patched copy of one function's source: one text edit,
which must occur exactly once, so that a mutant whose target text has
changed fails here instead of silently testing the original.
"""

import inspect
import json

import pytest
from click.testing import CliRunner

from tnncells import cells, permutations
from tnncells.cli import main


def _mutated(module, name, old, new):
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize(
    "old, new, mismatches",
    [
        ("necklace = set(range(1, m + 1))",
         "necklace = {j for j in range(1, m + 1) if pi[j] != j}", 390),
        ("pi[x] = (k + m - 1) % n + 1", "pi[x] = (k + m) % n + 1", 1065),
        ("_crowded(m, p, i, x, seen)", "_crowded(m, p, i, x, seen + 1)", 1065),
    ],
    ids=["coloops-left-out-of-I1", "pi-shifted-by-one", "rank-bound-raised-by-one"],
)
def test_necklace_mutants_fail_both_verifiers(monkeypatch, old, new, mismatches):
    """Each necklace mutant changes the families of hundreds of 3x4 cells.

    The usual necklace step keeps a loop i out of I_{i+1}; ``minor_family``
    has no branch for it (the ``permutations`` module docstring shows why
    the extra loop changes no family), so there is no such branch to drop.
    """
    monkeypatch.setattr(cells, "minor_family", _mutated(permutations, "minor_family", old, new))
    report = cells.unifying_check(3, 4)
    assert (report.total, len(report.mismatches)) == (1066, mismatches)
    result = CliRunner().invoke(main, ["cells", "verify", "3", "4", "--format", "json"])
    assert result.exit_code == 1, result.output
    assert len(json.loads(result.output)["mismatches"]) == mismatches

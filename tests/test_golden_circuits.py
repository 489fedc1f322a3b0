"""Frozen constraint systems: the compiler's output pinned across refactors.

``tests/fixtures/golden_circuits.json`` was written by
``tests/fixtures/make_golden_circuits.py`` at the commit before linear
layers were lowered a whole layer at a time.  Every circuit listed there
must still compile to the same constraints in the same order (tags and
term maps), the same witness, the same verifying key and — under equal
CRS and blinding — the same proof bytes, with the same ``lc_terms`` /
``knit_constraints`` / ``work_units`` accounting.  Later entries name the
commit they were written at in the recipe file; the element-wise ones
also pin renumbering-invariant digests (``recipe_digests``).
"""

import json
from pathlib import Path

import pytest

from tests.fixtures import make_golden_circuits as recipe
from tests.test_circuit_spec import FAMILIES

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_circuits.json").read_text()
)


def test_fixture_covers_every_family_and_recipe_circuit():
    assert recipe.FAMILIES == FAMILIES
    assert set(GOLDEN) == set(recipe.CIRCUITS)


@pytest.mark.parametrize("name", sorted(recipe.CIRCUITS))
def test_circuit_matches_parent(name):
    assert recipe.fingerprint(name) == GOLDEN[name]

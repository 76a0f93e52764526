"""tools/mutants.py: the mutant list stays anchored in the tree."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.why)
def test_every_anchor_occurs_exactly_once_in_its_file(mutant):
    # A change that moves an anchor updates tools/mutants.py in the same diff.
    assert (ROOT / mutant.file).read_text().count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor


def test_a_mutant_is_applied_to_the_copy_alone(tmp_path):
    mutant = mutants.MUTANTS[0]
    original = (ROOT / mutant.file).read_text()
    mutants.copy_tree(tmp_path)
    mutants.apply(tmp_path, mutant)
    assert (tmp_path / mutant.file).read_text() == original.replace(mutant.anchor,
                                                                    mutant.replacement)
    assert (ROOT / mutant.file).read_text() == original
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.apply(tmp_path, mutant)

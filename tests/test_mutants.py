"""The mutation check's list stays in step with the code it mutates."""

import importlib.util
from pathlib import Path

MUTANTS_PY = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_every_mutant_text_occurs_once():
    # A refactor that rewrites a mutated line fails here, on every run, and
    # not only in the weekly mutation check.
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS_PY)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.misplaced(mutants.MUTANTS + mutants.EQUIVALENT) == []

"""Hypothesis profiles.  `mutants` (tests/mutants.py loads it) keeps every
phase but explain: under a fixed seed, explaining a failing example can take
longer than the mutant runner's timeout."""
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.explain])

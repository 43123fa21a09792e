"""Hypothesis profiles.  `mutants` (tests/mutants.py loads it) keeps every
phase but shrink and explain: a mutant needs only whether a test fails, and
under a fixed seed, shrinking or explaining a failing example can take
longer than the rest of the run (or the mutant runner's timeout)."""
from hypothesis import Phase, settings

settings.register_profile("mutants",
                          phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])

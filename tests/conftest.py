"""Test-session settings: property tests draw the same examples on every run
(derandomized, so a result never depends on an earlier run's example
database) and carry no per-example deadline (simulations vary in length)."""

from hypothesis import settings

settings.register_profile("rborch", derandomize=True, deadline=None)
settings.load_profile("rborch")

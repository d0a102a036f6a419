"""Test-suite set-up: hypothesis runs derandomised by default, so a failing
example is found again on every run, and without per-example deadlines,
whose timing would depend on the host."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

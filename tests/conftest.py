"""Settings shared by the whole test suite."""

from hypothesis import settings

# Derandomized examples make property tests reproducible from run to run, and
# no per-example deadline keeps them from failing when a shared host slows.
settings.register_profile("dirlap", derandomize=True, deadline=None)
settings.load_profile("dirlap")

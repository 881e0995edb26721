"""Shared pytest setup: the hypothesis profiles.

The "ybgates" profile, loaded here, is the default: examples are derived
from each test's source rather than drawn at random, so a failure
reproduces on rerun, and there is no per-example deadline, so a slow
machine cannot turn a passing property into a flaky one.

The "deep" profile draws fresh random examples on every run, 1500 for each
test that sets no count of its own:

    python -m pytest --hypothesis-profile deep

hypothesis's pytest plugin loads the named profile after this file is
read, so the option wins over the load_profile call below.
"""

from hypothesis import settings

settings.register_profile("ybgates", derandomize=True, deadline=None, database=None)
settings.register_profile("deep", derandomize=False, max_examples=1500, deadline=None, database=None)
settings.load_profile("ybgates")

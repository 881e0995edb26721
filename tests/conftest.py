"""Shared pytest setup: a fixed hypothesis profile.

Examples are derived from each test's source rather than drawn at random,
so a failure reproduces on rerun, and there is no per-example deadline,
so a slow machine cannot turn a passing property into a flaky one.
"""

from hypothesis import settings

settings.register_profile("ybgates", derandomize=True, deadline=None, database=None)
settings.load_profile("ybgates")

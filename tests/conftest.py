"""Test configuration shared by every module.

Property tests run under a derandomized hypothesis profile: the examples
are derived from each test's name, so every run checks the same cases and
the suite's run time stays fixed.
"""

from hypothesis import settings

settings.register_profile("mebkit", derandomize=True, deadline=None, max_examples=30, database=None)
settings.load_profile("mebkit")

"""Shared test configuration.

Property tests run under a deterministic hypothesis profile: examples are
derived from each test's own source rather than a random seed and no
example database is kept, so runs under `python` and `python -O` (and on
any machine) check the same examples.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("k3arith", derandomize=True, max_examples=40,
                              deadline=None, database=None)
    settings.load_profile("k3arith")

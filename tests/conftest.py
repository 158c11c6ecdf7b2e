"""Test-suite settings shared by every module.

Hypothesis runs under one derandomized profile: the same examples on every
run, no timing deadline, few examples, and no example database on disk, so
tier-1 stays reproducible and fast.
"""

try:
    from hypothesis import settings
except ImportError:   # the property tests skip themselves without it
    pass
else:
    settings.register_profile(
        "tier1", derandomize=True, deadline=None, max_examples=40, database=None
    )
    settings.load_profile("tier1")

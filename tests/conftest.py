"""Shared pytest configuration.

Registers the hypothesis profile ``ci``: derandomized, so every CI run
draws the same examples, and without a deadline, so a slow runner does
not fail a test on timing. Example counts stay as each test sets them.
Select it with ``--hypothesis-profile=ci``; local runs keep the default
(randomized) profile.

Derandomized examples are a function of the test and of the hypothesis
version, so the same examples on every run hold only for one version: CI
pins ``hypothesis==6.155.2`` and ``pytest==9.0.3``
(``.github/workflows/tier1.yml``). A version bump may change the drawn
examples and is made on purpose, with the suite rerun.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

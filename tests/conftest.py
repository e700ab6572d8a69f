"""Shared pytest configuration.

Registers the hypothesis profile ``ci``: derandomized, so every CI run
draws the same examples, and without a deadline, so a slow runner does
not fail a test on timing. Example counts stay as each test sets them.
Select it with ``--hypothesis-profile=ci``; local runs keep the default
(randomized) profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

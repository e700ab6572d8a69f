"""The suite's own pytest settings."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_does_not_abort_the_run(pytester):
    """Warnings are errors, yet a failing hypothesis test is reported as
    one failure and the tests after it still run. On failure hypothesis
    imports libcst, which can warn about mypy_extensions.TypedDict from
    inside pytest's report hook; left as an error, that warning ends the
    run with INTERNALERROR (exit 3)."""
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(**{"tests/test_probe": """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """})
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1

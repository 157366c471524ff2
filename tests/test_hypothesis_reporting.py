"""A failing property test reports ``FAILED``, not an ``INTERNALERROR``.

When a ``@given`` test fails, hypothesis imports its patch writer
(``hypothesis.extra._patching``, which imports libcst) to print the
failing example.  libcst's import warns with a ``DeprecationWarning``,
which the suite turns into an error, so without the filter in
``pyproject.toml`` the failure aborted the session inside pytest's
terminal summary.  Every other ``DeprecationWarning`` stays an error.
"""

import pathlib

pytest_plugins = ["pytester"]

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_failing_property_test_reports_failed(pytester):
    pytester.makefile(
        ".toml", pyproject=(ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(test_prop="""
        import warnings

        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 5

        def test_deprecated():
            warnings.warn("old surface", DeprecationWarning)
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider",
                                           "test_prop.py")
    result.assert_outcomes(failed=2)
    result.stdout.fnmatch_lines([
        "FAILED test_prop.py::test_small - *",
        "FAILED test_prop.py::test_deprecated - DeprecationWarning: *",
    ])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()

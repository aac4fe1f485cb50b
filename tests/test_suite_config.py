"""The suite's own pytest settings: a failing test is reported as a failure, not as a crash of the run."""

import sys
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="reads pyproject.toml with tomllib")
def test_failing_property_test_is_reported_as_a_failure(pytester):
    # hypothesis reports a failing @given test through code that warns on import; under the suite's
    # warning filters that must not abort the run and lose the other tests' results
    import tomllib

    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml("[tool.pytest.ini_options]\nfilterwarnings = [%s]\n"
                               % ", ".join(f"'{f}'" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()

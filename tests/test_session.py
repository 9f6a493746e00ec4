"""The tier-1 session itself: a failing property test is reported as one
failure and the session runs on, under the warning filters of
pyproject.toml (warnings are errors there)."""

from pathlib import Path

pytest_plugins = ("pytester",)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_stop_the_session(pytester, capsys):
    # hypothesis's failure report once raised a DeprecationWarning, which
    # the "error" filter turned into an INTERNALERROR that ended the session
    path = pytester.makepyfile("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(n):
            assert False

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", str(path))
    # the inner report, with its FAILED line, stays out of this session's
    report = capsys.readouterr()
    assert "INTERNALERROR" not in report.out + report.err, report.out
    result.assert_outcomes(failed=1, passed=1)

"""Marker registration for the benchmark's own tests (tests/conftest.py
does the same for the main suite; conftest files do not reach across
directories)."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test timeout (enforced by pytest-timeout"
        " when installed)")

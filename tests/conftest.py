"""Fixtures that more than one test module reads."""

from __future__ import annotations

import pytest

from fracineq.harness import default_config, run_sweep


@pytest.fixture(scope="session")
def default_result():
    """One run of the default sweep (23,760 report rows), for the tests that
    only read it."""
    return run_sweep(default_config())

"""Fixtures every test of the suite uses."""

import pytest

import mmsalloc.oracle as oracle


@pytest.fixture(autouse=True)
def fresh_exact_memo():
    """Each test starts with the process-wide memo under mms_exact empty,
    so what a test sees does not depend on the shares earlier tests asked
    for."""
    oracle._exact_memo.cache_clear()

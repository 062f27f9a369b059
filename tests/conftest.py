"""Setup shared by every test module."""

import pytest

from magrec.combinatorics import ball_one_hot


@pytest.fixture(autouse=True)
def _fresh_one_hot():
    """``ball_one_hot`` keeps its answer per channel, judged against the
    ``core.BLOCK_BYTES`` of its first call, and tests lower that budget:
    each test starts and ends with an empty cache."""
    ball_one_hot.cache_clear()
    yield
    ball_one_hot.cache_clear()

import os
import sys

import pytest

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from k3fm import arith, bqf  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Start every test with empty `proper_classes` and `prime_factors`
    memos, so that a test which patches bqf or arith internals sees them
    run, not a result an earlier test left behind."""
    bqf.proper_classes.cache_clear()
    arith.prime_factors.cache_clear()

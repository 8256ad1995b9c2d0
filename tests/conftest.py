import os
import sys

import pytest

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from k3fm import bqf  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_class_memo():
    """Start every test with an empty `proper_classes` memo, so that a test
    which patches bqf internals sees them run, not a result an earlier test
    left behind."""
    bqf.proper_classes.cache_clear()

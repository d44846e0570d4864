"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def digit_cap():
    """Python's default int/str digit cap of 4,300 digits, which holds
    outside cli.run (Python 3.11 on; earlier versions have no cap)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)

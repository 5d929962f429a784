import sys
from math import gcd

import pytest
from hypothesis import settings

# The criterion-11 gate and TestIntText call str() on integers past 4,300 digits
# themselves; tests that need the interpreter's default guard use default_str_guard.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

settings.register_profile("recurseq", deadline=None)
settings.load_profile("recurseq")


@pytest.fixture
def default_str_guard():
    """The interpreter's default 4300-digit str(int) guard, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit guard")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.fixture(autouse=True, scope="session")
def coprime_audit():
    """Every read-back that skips the gcd is checked: core._coprime_fraction must
    only see coprime pairs (num = 0 aside).  _bounded_fraction, every read-back's
    gate, finds it by global lookup, so the wrapper sees every skip; the original
    is restored."""
    from recurseq import core

    original = core._coprime_fraction

    def audited(num, den):
        assert num == 0 or gcd(num, den) == 1, "a read-back skipped the gcd of a pair with a common factor"
        return original(num, den)

    core._coprime_fraction = audited
    yield
    core._coprime_fraction = original

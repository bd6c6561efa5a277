import warnings

import pytest

from extremalcurves import PrimeField, QQ, curve_ring
from extremalcurves import groebner as _groebner

# every basis produced anywhere in the test run is re-checked against the
# Buchberger criterion
_groebner.VERIFY_PRODUCED_BASES = True

# hypothesis reports a failing example through a module that imports
# libcst, whose use of mypy_extensions.TypedDict raises a
# DeprecationWarning; under -W error that stops pytest with INTERNALERROR
# instead of a failure report, so the module is imported here once, with
# that warning ignored for this import only
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # without libcst hypothesis prints no patch
        pass


@pytest.fixture
def gf():
    return PrimeField()


@pytest.fixture
def ring(gf):
    return curve_ring(gf)


@pytest.fixture
def qring():
    return curve_ring(QQ)

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alleewaves.model import EPS_DISC, CaseKind, classify_case, discriminant

SQRT2 = math.sqrt(2.0)


class TestDiscriminant:
    def test_figure1_value(self):
        lam = (5.9 - 2.4) / SQRT2
        assert discriminant(lam, 0.2) == pytest.approx(5.325, abs=1e-12)

    def test_degenerate_value(self):
        assert discriminant(2.0, 1.0) == 0.0

    def test_figure2_value(self):
        lam = (12.2 - 6.0) / SQRT2
        assert discriminant(lam, 5.0) == pytest.approx(-0.78, abs=1e-12)

    def test_even_in_lambda(self):
        rng = np.random.RandomState(1)
        for _ in range(200):
            lam, mu = rng.uniform(-10, 10, 2)
            assert discriminant(lam, mu) == discriminant(-lam, mu)

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            discriminant(math.nan, 0.0)

    @pytest.mark.parametrize("lam, mu", [(1e200, 1e308), (1e200, 0.0),
                                         (0.0, 1e308), (0.0, -1e308)])
    def test_overflow_raises(self, lam, mu):
        with pytest.raises(ValueError, match="overflows"):
            discriminant(lam, mu)


class TestClassifyCase:
    def test_examples(self):
        assert classify_case(2.47487, 0.2) is CaseKind.HYPERBOLIC
        assert classify_case(4.38406, 5.0) is CaseKind.TRIGONOMETRIC
        assert classify_case(2.0, 1.0) is CaseKind.DEGENERATE

    def test_exhaustive_and_exclusive(self):
        rng = np.random.RandomState(4)
        for _ in range(500):
            lam, mu = rng.uniform(-5, 5, 2)
            assert classify_case(lam, mu) in CaseKind

    def test_overflowed_discriminant_raises(self):
        # lambda^2 - 4 mu is inf - inf = NaN in floats; the true sign is +
        with pytest.raises(ValueError, match="overflows"):
            classify_case(1e200, 1e308)


@st.composite
def _cases(draw):
    """(lambda, mu), half of them within a few EPS_DISC of a tie."""
    if draw(st.booleans()):
        return draw(st.floats(-1e150, 1e150)), draw(st.floats(-1e300, 1e300))
    # small lambda keeps the rounding band well inside EPS_DISC
    lam = draw(st.floats(-10.0, 10.0))
    offset = draw(st.floats(-3.0, 3.0)) * EPS_DISC
    return lam, (lam * lam - offset) / 4.0


@settings(max_examples=1000, deadline=None)
@given(case=_cases())
def test_class_matches_exact_sign(case):
    """The class follows the exact sign of lambda^2 - 4 mu.

    The computed discriminant rounds twice (the square, then the
    difference), so it lies within 2 u (lambda^2 + 4|mu|) of the exact value,
    u = 2^-53.  The band is twice that, plus the smallest subnormal for an
    underflowed square; inside it around +-EPS_DISC any class is allowed.
    """
    lam, mu = case
    exact = Fraction(lam) ** 2 - 4 * Fraction(mu)
    band = Fraction(2.0**-51 * (lam * lam + 4.0 * abs(mu))) + Fraction(2.0**-1074)
    eps = Fraction(EPS_DISC)
    got = classify_case(lam, mu)
    if exact > eps + band:
        assert got is CaseKind.HYPERBOLIC
    elif exact < -eps - band:
        assert got is CaseKind.TRIGONOMETRIC
    elif abs(exact) < eps - band:
        assert got is CaseKind.DEGENERATE

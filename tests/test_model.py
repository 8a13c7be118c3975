import math

import numpy as np
import pytest

from alleewaves.model import CaseKind, classify_case, discriminant

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


class TestClassifyCase:
    def test_examples(self):
        assert classify_case(2.47487, 0.2) is CaseKind.HYPERBOLIC
        assert classify_case(4.38406, 5.0) is CaseKind.TRIGONOMETRIC
        assert classify_case(2.0, 1.0) is CaseKind.DEGENERATE

    def test_zero_tolerance_requires_exact_tie(self):
        rng = np.random.RandomState(3)
        for _ in range(500):
            lam, mu = rng.uniform(-5, 5, 2)
            got = classify_case(lam, mu, eps_disc=0.0)
            if got is CaseKind.DEGENERATE:
                assert lam * lam == 4.0 * mu

    def test_exhaustive_and_exclusive(self):
        rng = np.random.RandomState(4)
        for _ in range(500):
            lam, mu = rng.uniform(-5, 5, 2)
            assert classify_case(lam, mu) in CaseKind

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            classify_case(1.0, 1.0, eps_disc=-1.0)

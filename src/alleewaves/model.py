"""The model and the classification of its traveling-wave regimes.

The PDE system is

    u_t = u_xx - beta*u + (k + 1/sqrt(delta))*u**2 - u**3 - u*v
    v_t = v_xx + k*u*v - beta*v - delta*v**3

obtained from the general predator-prey model under the closure relations
m = beta and k + 1/sqrt(delta) = beta + 1.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import SingularParameterError

EPS_DISC = 1e-9


class CaseKind(Enum):
    """Solution regime of the auxiliary oscillator, by sign of lambda^2 - 4*mu."""

    HYPERBOLIC = "hyperbolic"
    TRIGONOMETRIC = "trigonometric"
    DEGENERATE = "degenerate"


def discriminant(lam: float, mu: float) -> float:
    """lambda^2 - 4*mu; raises ValueError when either is not finite and
    SingularParameterError (a ValueError) when it overflows."""
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise ValueError("lambda and mu must be finite")
    disc = lam * lam - 4.0 * mu
    if not math.isfinite(disc):
        # inf - inf is NaN, which would classify as trigonometric
        raise SingularParameterError(f"lambda^2 - 4*mu overflows at lambda={lam!r}, mu={mu!r}")
    return disc


def classify_case(lam: float, mu: float) -> CaseKind:
    """Classify (lambda, mu) into the three oscillator regimes.

    Degenerate wins ties: |lambda^2 - 4*mu| <= EPS_DISC.
    """
    disc = discriminant(lam, mu)
    if abs(disc) <= EPS_DISC:
        return CaseKind.DEGENERATE
    return CaseKind.HYPERBOLIC if disc > 0 else CaseKind.TRIGONOMETRIC

"""Exception types shared across the package."""


class AlleeWavesError(Exception):
    """Base class for all package-specific errors."""


class PoleError(AlleeWavesError):
    """Evaluation requested too close to a zero of the denominator G.

    Attributes:
        xi: the offending evaluation point
        xi_pole: nearest pole location
    """

    def __init__(self, xi, xi_pole):
        self.xi = xi
        self.xi_pole = xi_pole
        super().__init__(f"denominator vanishes near xi={xi:.6g}, nearest pole at xi={xi_pole:.6g}")


class SingularParameterError(AlleeWavesError, ValueError):
    """A parameter sits on a removable-structure boundary (e.g. alpha0=0 in Set B)."""


class PoleIndexError(AlleeWavesError, ValueError):
    """The poles near some xi cannot be numbered: their index there is not finite."""


class CaseMismatchError(AlleeWavesError, ValueError):
    """The requested case tag is inconsistent with the sign of lambda^2 - 4*mu."""

    def __init__(self, case, disc, actual):
        super().__init__(f"case {case.value} inconsistent with lambda^2-4mu={disc:.6g}"
                         f" ({actual.value})")


class NonFiniteError(AlleeWavesError):
    """A sample or residual that leaves the library is not finite (NaN or inf)."""


class StabilityError(AlleeWavesError):
    """Time step violates the explicit diffusion or reaction stability bound."""


class BlowUpError(AlleeWavesError):
    """Integration produced a non-finite value."""

    def __init__(self, t, x):
        self.t = t
        self.x = x
        super().__init__(f"non-finite field value at t={t:.6g}, x={x:.6g}")


class TrackingError(AlleeWavesError):
    """Level-crossing tracker failed on a snapshot."""


class NoConvergenceError(AlleeWavesError):
    """Root finding failed from every start; carries the best residual seen.

    The package's own root search enumerates its roots and never raises this.
    """

    def __init__(self, best_residual):
        self.best_residual = best_residual
        super().__init__(f"no root converged; best residual norm {best_residual:.3e}")


class NonIsolatedRootsError(AlleeWavesError):
    """The coefficient equations hold for every lambda in one sign branch."""

    def __init__(self, alpha1, beta1):
        self.alpha1 = alpha1
        self.beta1 = beta1
        super().__init__(f"roots are not isolated in the branch alpha1={alpha1:+.6g},"
                         f" beta1={beta1:+.6g}: every lambda solves it")

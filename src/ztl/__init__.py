"""High-precision evaluation of the generalized Koshliakov function and
numerical verification of the transformation identities it satisfies."""

from .hp import PrecisionContext, PrecisionError, with_precision
from .special import (DomainError, PoleError, bernoulli, bessel_k0, divisor_sieve, gamma,
                      lambert_series, zeta)
from .mellin import QuadratureError, cauchy_derivative, line_integral
from .psi import PsiValue, psi, series_L
from .identities import (VerificationReport, bernoulli_block,
                         derivative_term, verify, verify_dixit,
                         verify_eisenstein, verify_eta, verify_lerch_general,
                         verify_main, verify_quasimodular,
                         verify_ramanujan_classical)

__version__ = "0.1.0"

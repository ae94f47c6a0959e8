"""Arbitrary-precision arithmetic contract: the precision context.

Everything downstream computes through this layer. Values are plain mpmath
mpf/mpc numbers (binary mantissa); a PrecisionContext fixes the decimal
working precision and hands out a scoped mpmath precision guard. Contexts
and values are immutable and safe to share; no context ever mutates another's
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

MIN_DIGITS = 15
# decimal guard digits on top of ``digits``; they absorb cancellation in
# residue and derivative formulas
GUARD_DIGITS = 15

# Extra bits on top of the decimal-digit request; fixed so that precision
# accounting is uniform and testable.
_EXTRA_BITS = 32
_LOG2_10 = math.log2(10)


class PrecisionError(ValueError):
    """Raised for precision requests below the supported minimum."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits.

    All tolerances derive from ``digits``; all arithmetic runs at
    ``digits + GUARD_DIGITS`` decimal digits (converted to bits with a fixed
    factor).
    """

    digits: int

    def __post_init__(self):
        if not isinstance(self.digits, int) or self.digits < MIN_DIGITS:
            raise PrecisionError(
                f"digits must be an integer >= {MIN_DIGITS}, got {self.digits!r}")

    @property
    def working_dps(self) -> int:
        return self.digits + GUARD_DIGITS

    @property
    def prec_bits(self) -> int:
        return math.ceil(self.working_dps * _LOG2_10) + _EXTRA_BITS

    def scoped(self):
        """Context manager setting mpmath working precision for a block."""
        return mp.workprec(self.prec_bits)

    def tolerance(self, slack: int = 0) -> mpf:
        """10**(-digits + slack); every module-level tolerance is one of these."""
        with self.scoped():
            return mpf(10) ** (slack - self.digits)

    def mpf(self, x) -> mpf:
        with self.scoped():
            return mpf(x)


def with_precision(digits: int) -> PrecisionContext:
    """Build a context; rejects digits < 15."""
    return PrecisionContext(digits=digits)

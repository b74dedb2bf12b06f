"""Exact rational scalars shared by the whole package.

Scalars are ``fractions.Fraction`` (``QQ``), which keeps
gcd(|numerator|, denominator) = 1 with a positive denominator and never
loses precision.  Stored coefficients (polynomial terms, structure
constants) follow one rule, :func:`exact`: a plain ``int`` when the value
is integral and a ``Fraction`` otherwise, so the common integral case runs
on machine-speed integer arithmetic.  Scalars handed out by public
methods stay ``QQ``.
"""

from __future__ import annotations

from fractions import Fraction as QQ

RATIONAL_BACKEND = "fractions"

QQ0 = QQ(0)
QQ1 = QQ(1)


def exact(q):
    """The coefficient rule: an integral ``q`` (int or Fraction) as an int, anything else unchanged."""
    return q.numerator if q.denominator == 1 else q


def qq(value, den=None):
    """Coerce ``value`` (int, rational, or 'num/den' string) to an exact rational."""
    if den is not None:
        return QQ(value, den)
    return QQ(value)


def qq_str(q) -> str:
    """Canonical 'num' or 'num/den' form of an int or a rational."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

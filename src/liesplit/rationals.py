"""Exact rational scalars: the one rule for how the package stores them.

Scalars are ``fractions.Fraction`` (``QQ``).  Every stored scalar
(polynomial coefficients, structure constants, matrix entries) follows
:func:`exact`: a plain ``int`` when integral, a ``Fraction`` otherwise, so
the common integral case runs on integer arithmetic.  Values enter through
the one coercion :func:`scalar`, which rejects ``float``, and denominators
are cleared through :func:`common_denominator`.  A true division keeps a
``QQ`` operand, so no path divides two ints.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from functools import reduce
from math import lcm

RATIONAL_BACKEND = "fractions"

QQ0 = QQ(0)
QQ1 = QQ(1)


def exact(q):
    """The storage rule: an integral ``q`` (int or Fraction) as an int, anything else unchanged."""
    return q.numerator if q.denominator == 1 else q


def scalar(value, where: str = ""):
    """The one coercion: ``value`` (int, rational, or 'num/den' string) under :func:`exact`.

    A ``float`` raises ``TypeError`` naming the value and, when given, ``where`` it occurs.
    """
    if type(value) is int:
        return value
    if isinstance(value, float):
        at = f" in {where}" if where else ""
        raise TypeError(f"float {value!r}{at} is not an exact scalar; "
                        "pass an int, a Fraction or a 'num/den' string")
    return exact(QQ(value))


def common_denominator(values) -> int:
    """The least positive d with d * v integral for every exact ``v`` in ``values``."""
    # pairwise over the distinct denominators: lcm(*...) would fill the tuple free lists
    return reduce(lcm, {v.denominator for v in values}, 1)


def qq_str(q) -> str:
    """Canonical 'num' or 'num/den' form of an int or a rational."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

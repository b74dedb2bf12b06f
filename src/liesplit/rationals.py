"""Exact rational scalars: the one rule for how the package stores them.

Scalars are ``fractions.Fraction`` (``QQ``).  A stored scalar (a structure
constant, a matrix entry, a sparse-vector entry) follows :func:`exact`: a
plain ``int`` when integral, a ``Fraction`` otherwise, so the common
integral case runs on integer arithmetic.  Polynomials go one step
further and store int coefficients over one denominator
(``liesplit.poly``), so their kernels never see a ``Fraction``.  Values
enter through the one coercion :func:`scalar`, which rejects ``float``,
and denominators are cleared through :func:`clear_denominators`.  Sparse
vectors with exact entries are combined through :func:`combine`.  A true
division keeps a ``QQ`` operand, so no path divides two ints.
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


def clear_denominators(values) -> tuple:
    """(d, [d * v for v in values]) for the :func:`common_denominator` d, all ints.

    The ints and d share no common factor when the values are reduced fractions.
    """
    values = list(values)
    d = common_denominator(values)
    return d, [v.numerator * (d // v.denominator) for v in values]


def combine(out: dict, pieces) -> dict:
    """``out`` plus sum c * src over the (sparse {key: exact scalar} src, exact c) ``pieces``.

    In place and returned; zero entries are dropped and the others follow :func:`exact`.
    """
    for src, c in pieces:
        for k, v in src.items():
            s = out.get(k, 0) + c * v
            if s:
                out[k] = s if type(s) is int else exact(s)
            else:
                out.pop(k, None)
    return out


def qq_str(q) -> str:
    """Canonical 'num' or 'num/den' form of an int or a rational."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

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

Integer inputs follow one rule: an ``int``, never a ``bool``, float or str
(:func:`_is_int`, :func:`_check_int`); a count at least 1, or 0 where none is
allowed (:func:`_check_count`), a size at least its least value
(:func:`_check_size`), an index list distinct ints in range
(:func:`_indices`); anything else raises ``ValueError`` naming the value.
Sizes follow one length rule (:func:`_check_length`): a vector, row, column or
coefficient list has the length its space asks for and a polynomial its variable
count, or a ``ValueError`` names it with both sizes; nothing is truncated or padded.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from functools import reduce
from math import lcm

RATIONAL_BACKEND = "fractions"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(name: str, value) -> None:
    """A ``ValueError`` naming ``name`` and ``value`` unless it is an ``int``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value, least: int = 1) -> None:
    """:func:`_check_int`, and a ``ValueError`` unless ``value`` is at least ``least``: a
    sampled check with no samples, or a table with no rows, would certify nothing, and a
    negative number of variables would overflow a packed exponent key."""
    _check_int(name, value)
    if value < least:
        raise ValueError(f"{name} >= {least} required, got {value}")


def _check_size(label: str, n, least: int) -> None:
    """A ``ValueError`` after ``label`` unless ``n`` is an ``int`` of at least ``least``."""
    if not _is_int(n):
        raise ValueError(f"{label} needs an integer n, got {n!r}")
    if n < least:
        raise ValueError(f"{label} needs n >= {least}, got {n}")


def _indices(label: str, items, n: int, noun: str) -> tuple:
    """``tuple(items)`` if its entries are distinct ``int``s in range(n); else a ``ValueError``
    after ``label`` naming the first entry that is not a ``noun`` in range(n) or repeats one."""
    items = tuple(items)
    seen = set()
    for i in items:
        if not (_is_int(i) and 0 <= i < n):
            raise ValueError(f"{label} {i!r} is not a {noun} in range({n})")
        if i in seen:
            raise ValueError(f"{label} {i} is listed twice")
        seen.add(i)
    return items


def _check_length(label: str, got: int, n: int, noun: str) -> None:
    """A ``ValueError`` naming ``label`` unless ``got`` (a length or a variable count) is n."""
    if got != n:
        raise ValueError(f"{label} has {got} {noun}, expected {n}")


def exact(q):
    """The storage rule: an integral ``q`` (int or Fraction) as an int, anything else unchanged."""
    return q.numerator if q.denominator == 1 else q


def scalar(value, where: str = ""):
    """The one coercion: ``value`` (int, rational, or 'num/den' string) under :func:`exact`.

    A ``float`` raises ``TypeError`` and a ``bool`` (which ``Fraction`` reads as 0 or 1)
    ``ValueError``, each naming the value and, when given, ``where`` it occurs.
    """
    if type(value) is int:
        return value
    if type(value) is QQ:  # already reduced
        return exact(value)
    if isinstance(value, (float, bool)):
        at = f" in {where}" if where else ""
        error = TypeError if isinstance(value, float) else ValueError
        raise error(f"{type(value).__name__} {value!r}{at} is not an exact scalar; "
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

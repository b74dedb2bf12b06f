"""Differential property tests: ``Polynomial`` against a naive reference.

The reference keys terms by exponent tuples and keeps every coefficient a
``Fraction``; each operation is the textbook formula.  ``Polynomial``
packs exponents into ints and stores int coefficients over one
denominator, so agreement on random inputs checks the packing, the
storage rule and every kernel path (single-term and general products,
common denominators, cancellation, reduction to primitive form).
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import or_

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from liesplit._kernels import _carry_free, axpy_terms, mul_terms  # noqa: E402
from liesplit.poly import Polynomial, _degree_reader  # noqa: E402

# derandomized, so every run checks the same examples
CHECKS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# -- the reference: {exponent tuple: Fraction} ---------------------------------


def r_clean(t):
    return {e: c for e, c in t.items() if c}


def r_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return r_clean(out)


def r_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return r_clean(out)


def r_pow(a, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = r_mul(out, a)
    return out


def r_diff(a, var):
    out = {}
    for e, c in a.items():
        if e[var]:
            e2 = list(e)
            e2[var] -= 1
            out[tuple(e2)] = c * e[var]
    return out


def r_eval(a, point):
    total = Fraction(0)
    for e, c in a.items():
        v = c
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def r_map_vars(a, images, target):
    out = {}
    for e, c in a.items():
        piece = {(0,) * target: c}
        for im, k in zip(images, e):
            for _ in range(k):
                piece = r_mul(piece, im)
        out = r_add(out, piece)
    return out


def r_last_coefficients(a):
    """{k: the coefficient of x_last^k over the other variables}."""
    out = {}
    for e, c in a.items():
        out.setdefault(e[-1], {})[e[:-1]] = c
    return out


def r_part_on(a, keep):
    """The terms on the variables ``keep`` alone, reindexed onto them."""
    return {tuple(e[v] for v in keep): c for e, c in a.items()
            if all(k == 0 or i in keep for i, k in enumerate(e))}


def r_lift(a, new_nvars):
    return {tuple(e) + (0,) * (new_nvars - len(e)): c for e, c in a.items()}


def r_to_string(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        c = a[e]
        factors = [f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k]
        coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        if not factors:
            parts.append(coeff)
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(coeff + "*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


# -- strategies and comparison -------------------------------------------------


coefficients = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 1, 2, 3, 6]))


@st.composite
def terms(draw, nvars, max_terms=5, max_exp=3):
    """A reference polynomial: a few terms, each on at most three variables."""
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = [0] * nvars
        for v in draw(st.lists(st.integers(0, nvars - 1), max_size=3)):
            e[v] = draw(st.integers(0, max_exp))
        out[tuple(e)] = out.get(tuple(e), Fraction(0)) + draw(coefficients)
    return r_clean(out)


@st.composite
def pair(draw):
    nvars = draw(st.integers(1, 29))
    return nvars, draw(terms(nvars)), draw(terms(nvars))


def ref(p):
    """The reference form of ``p``, after checking the storage rule: nonzero int terms
    over a positive int ``den`` that shares no factor with all of them, so den = 1 for
    an integral polynomial and the zero polynomial."""
    assert type(p.den) is int and p.den >= 1
    for c in p.terms.values():
        assert type(c) is int and c
    assert gcd(p.den, *p.terms.values()) == 1
    return {tuple(e): c for e, c in p.items()}


def same_form(p, q):
    """Equal values stored identically: equal terms, den and hash."""
    ref(p), ref(q)
    return p == q and p.terms == q.terms and p.den == q.den and hash(p) == hash(q)


@CHECKS
@given(pair())
def test_ring_operations_match_reference(data):
    n, a, b = data
    p, q = Polynomial(n, a), Polynomial(n, b)
    assert ref(p) == a
    assert ref(p + q) == r_add(a, b)
    assert ref(p - q) == r_add(a, b, -1)
    assert ref(p - p) == {}
    assert ref(-p) == {e: -c for e, c in a.items()}
    assert ref(p * q) == r_mul(a, b)
    # a polynomial times a single term, and a cancelling product
    for e, c in b.items():
        assert ref(p * Polynomial(n, {e: c})) == r_mul(a, {e: c})
    assert ref((p + q) * (p - q)) == r_add(r_mul(a, a), r_mul(b, b), -1)


@CHECKS
@given(pair(), st.data())
def test_equal_values_by_different_routes_are_stored_identically(data, draw):
    n, a, b = data
    p, q = Polynomial(n, a), Polynomial(n, b)
    r = Polynomial(n, draw.draw(terms(n)))
    c = draw.draw(coefficients.filter(bool))
    assert same_form((p * q) * r, p * (q * r))
    assert same_form((p + q) * r, p * r + q * r)
    assert same_form(p.scale(c).scale(1 / c), p)
    assert same_form((p + q) - q, p)
    assert same_form(p.scale(c) - p.scale(c), Polynomial.zero(n))
    assert same_form(Polynomial(n, dict(p.items())), p)
    assert same_form(sum(p.split_degree(range(n)).values(), Polynomial.zero(n)), p)
    assert same_form(p.canonical()[0].scale(p.canonical()[1]), p)
    assert len({p * q, q * p, (p * q).scale(1)}) == 1


@CHECKS
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), terms(n, max_terms=3, max_exp=2))),
       st.integers(0, 3))
def test_power_matches_reference(data, k):
    n, a = data
    assert ref(Polynomial(n, a) ** k) == r_pow(a, k, n)


@CHECKS
@given(pair(), st.data())
def test_calculus_and_evaluation_match_reference(data, draw):
    n, a, _ = data
    p = Polynomial(n, a)
    var = draw.draw(st.integers(0, n - 1))
    assert ref(p.diff(var)) == r_diff(a, var)
    point = draw.draw(st.lists(coefficients, min_size=n, max_size=n))
    value = p.eval(point)
    assert isinstance(value, Fraction) and value == r_eval(a, point)
    degree = max((sum(e) for e in a), default=None)
    assert p.degree() == degree


@CHECKS
@given(pair(), st.data())
def test_int_gradient_matches_reference(data, draw):
    n, a, _ = data
    p = Polynomial(n, a)
    # small coordinates: zeros are common, and a zero factor must not hide the others
    point = draw.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    grad = p.int_gradient(point)
    assert all(type(g) is int for g in grad)
    assert grad == [p.den * r_eval(r_diff(a, i), point) for i in range(n)]


@CHECKS
@given(pair(), st.data())
def test_last_variable_parts_and_part_on_match_reference(data, draw):
    # the coefficient of x_last^k: the part of degree k in x_last, with x_last set to 1
    n, a, _ = data
    p = Polynomial(n, a)
    at_one = [Polynomial.variable(n - 1, i) for i in range(n - 1)]
    at_one.append(Polynomial.constant(n - 1, 1))
    parts = {k: q.map_vars(at_one, n - 1) for k, q in p.split_degree([n - 1]).items()}
    assert all(q.nvars == n - 1 for q in parts.values())
    assert {k: ref(q) for k, q in parts.items()} == r_last_coefficients(a)
    keep = draw.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    part = p.part_on(keep)
    assert part.nvars == len(keep) and ref(part) == r_part_on(a, keep)


@CHECKS
@given(pair(), st.data())
def test_accumulating_product_equals_product_then_axpy(data, draw):
    n, a, b = data
    p, q = Polynomial(n, a), Polynomial(n, b)
    start = Polynomial(n, draw.draw(terms(n))).terms
    want = dict(start)
    axpy_terms(want, mul_terms(p.terms, q.terms, n), 1)
    acc = dict(start)
    assert mul_terms(p.terms, q.terms, n, acc) is acc
    assert {e: c for e, c in acc.items() if c} == want
    # an accumulator holding minus the product cancels to nothing
    acc = {e: -c for e, c in mul_terms(p.terms, q.terms, n).items()}
    mul_terms(q.terms, p.terms, n, acc)
    assert not any(acc.values())


@pytest.mark.parametrize("nvars, var", [(1, 0), (3, 1), (29, 28)])
def test_accumulating_product_keeps_the_overflow_check(nvars, var):
    x = Polynomial.variable(nvars, var)
    acc = {}
    assert mul_terms((x**127).terms, (x**128).terms, nvars, acc) == (x**255).terms
    acc = dict((x**3).terms)
    with pytest.raises(OverflowError, match="255"):
        mul_terms((x**128).terms, (x**128).terms, nvars, acc)
    assert acc == (x**3).terms  # the check runs before any product is added


@CHECKS
@given(pair(), st.data())
def test_substitutions_match_reference(data, draw):
    n, a, _ = data
    p = Polynomial(n, a)
    target = draw.draw(st.integers(1, 4))
    images = [draw.draw(terms(target, max_terms=2, max_exp=1)) for _ in range(n)]
    assert ref(p.map_vars([Polynomial(target, im) for im in images], target)) == \
        r_map_vars(a, images, target)
    extra = draw.draw(st.integers(0, 3))
    assert ref(p.lift(n + extra)) == r_lift(a, n + extra)


@CHECKS
@given(pair())
def test_canonical_and_printing_match_reference(data):
    n, a, _ = data
    p = Polynomial(n, a)
    monic, scalar = p.canonical()
    assert isinstance(scalar, Fraction)
    if a:
        lead = max(a)
        assert scalar == a[lead]
        assert ref(monic) == {e: c / a[lead] for e, c in a.items()}
    else:
        assert scalar == 1 and monic.is_zero()
    assert p.to_string() == r_to_string(a)


@pytest.mark.parametrize("nvars, var", [(1, 0), (3, 0), (3, 1), (3, 2), (29, 0), (29, 28)])
def test_exponent_127_plus_128_fits_and_128_plus_128_overflows(nvars, var):
    x = Polynomial.variable(nvars, var)
    assert dict((x**127 * x**128).items()) == {
        bytes(255 if i == var else 0 for i in range(nvars)): 1
    }
    with pytest.raises(OverflowError, match="255"):
        x**128 * x**128
    if nvars > 1:  # a full neighbouring slot neither overflows nor absorbs a carry
        y = Polynomial.variable(nvars, (var + 1) % nvars)
        full = (x**127 * y**200) * (x**128 * y**55)
        assert sorted(next(full.items())[0]) == [0] * (nvars - 2) + [255, 255]
        with pytest.raises(OverflowError, match="255"):
            (x**128 * y**200) * (x**128 * y)


@CHECKS
@given(st.data())
def test_sum_of_products_matches_the_naive_sum(draw):
    n = draw.draw(st.integers(1, 6))
    poly = terms(n).map(lambda t: Polynomial(n, t))
    products = draw.draw(st.lists(st.tuples(st.integers(-3, 3), poly, poly), max_size=5))
    taken = []

    def stream():  # records what the sum takes, so it is seen to take each product once
        for item in products:
            taken.append(item)
            yield item

    want = sum((c * (a * b) for c, a, b in products), Polynomial.zero(n))
    assert same_form(Polynomial.sum_of_products(n, stream()), want)
    assert taken == products
    # each product against its negative, the factors swapped: everything cancels
    back = [(-c, b, a) for c, a, b in products]
    assert same_form(Polynomial.sum_of_products(n, products + back), Polynomial.zero(n))


def test_sum_of_products_rescales_as_the_denominator_grows():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    half, third = x.scale(Fraction(1, 2)), y.scale(Fraction(1, 3))
    products = [(1, half, y), (-2, third, x), (0, half, third), (5, third, half)]
    got = Polynomial.sum_of_products(2, products)  # den 2, then 6, then 6
    assert same_form(got, (x * y).scale(Fraction(1, 2) - Fraction(2, 3) + Fraction(5, 6)))
    assert same_form(Polynomial.sum_of_products(2, []), Polynomial.zero(2))
    assert same_form(Polynomial.sum_of_products(2, [(1, half, half), (-1, half, half)]),
                     Polynomial.zero(2))
    with pytest.raises(ValueError, match="3 variables"):
        Polynomial.sum_of_products(2, [(1, x, Polynomial.variable(3, 0))])


@CHECKS
@given(pair(), st.data())
def test_split_degree_parts_sum_back_by_their_degree(data, draw):
    n, a, _ = data
    p = Polynomial(n, a)
    chosen = draw.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    for variables in (chosen, (), range(n)):
        parts = p.split_degree(variables)
        assert list(parts) == sorted(parts)
        assert same_form(sum(parts.values(), Polynomial.zero(n)), p)
        for k, q in parts.items():
            assert q and {sum(e[i] for i in variables) for e, _ in q.items()} == {k}
    assert p.split_degree(()) == ({0: p} if a else {})


def test_split_degree_reads_exponents_up_to_255():
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    p = x**255 * y**200 + y**255 * z + 3 * z**255
    assert p.split_degree((0, 1)) == {0: 3 * z**255, 255: y**255 * z, 455: x**255 * y**200}
    assert p.split_degree(range(3)) == {255: 3 * z**255, 256: y**255 * z, 455: x**255 * y**200}
    assert p.split_degree((2,)) == {0: x**255 * y**200, 1: y**255 * z, 255: 3 * z**255}
    with pytest.raises(ValueError, match="split_degree: 3 is not a variable index"):
        p.split_degree((0, 3))


# -- the carry rule and the degree reader, on raw exponent keys -----------------


# exponents over the whole byte, and often small enough that a product fits
exponent = st.one_of(st.integers(0, 255), st.integers(0, 70), st.sampled_from([127, 128, 255]))


@st.composite
def factors(draw, min_factors=1, max_factors=4):
    """(nvars, factors): 2-4 variables and 1-4 factors, each 1-4 exponent vectors."""
    nvars = draw(st.integers(2, 4))
    vector = st.tuples(*[exponent] * nvars)
    return nvars, draw(st.lists(st.lists(vector, min_size=1, max_size=4, unique=True),
                                min_size=min_factors, max_size=max_factors))


def key(e):
    return int.from_bytes(bytes(e), "big")


@CHECKS
@given(factors(), st.integers(0, 2))
def test_a_carry_free_bound_admits_no_carrying_product(data, linear):
    # the bound of a factor is the OR of its keys, 1 per slot for each linear factor
    nvars, fs = data
    bounds = [reduce(or_, map(key, f)) for f in fs]
    fits = _carry_free(nvars, bounds, linear)
    sums = [sum(col) + linear for col in zip(*(b.to_bytes(nvars, "big") for b in bounds))]
    assert fits == (max(sums) <= 255)
    if fits:  # brute force: one exponent vector per factor
        for pick in product(*fs):
            assert all(sum(col) + linear <= 255 for col in zip(*pick))


@CHECKS
@given(factors(2, 2), st.data())
def test_mul_terms_raises_exactly_when_a_pair_passes_255(data, draw):
    nvars, (fa, fb) = data
    nonzero = st.integers(-5, 5).filter(bool)
    a, b = ({key(e): draw.draw(nonzero) for e in f} for f in (fa, fb))
    if any(x + y > 255 for ea in fa for eb in fb for x, y in zip(ea, eb)):
        with pytest.raises(OverflowError, match="255"):
            mul_terms(a, b, nvars)
        with pytest.raises(OverflowError, match="255"):
            mul_terms(a, b, nvars, {})
        return
    want = {}
    for ea, eb in product(fa, fb):
        e = key(x + y for x, y in zip(ea, eb))
        want[e] = want.get(e, 0) + a[key(ea)] * b[key(eb)]
    assert mul_terms(a, b, nvars) == {e: c for e, c in want.items() if c}
    assert mul_terms(a, b, nvars, {}) == want


@CHECKS
@given(factors(1, 1), st.data())
def test_the_degree_reader_sums_the_decoded_exponent_bytes(data, draw):
    nvars, (vectors,) = data
    keys = [key(e) for e in vectors]
    assert _degree_reader(nvars)(keys) == [sum(k.to_bytes(nvars, "big")) for k in keys]
    chosen = tuple(draw.draw(st.lists(st.integers(0, nvars - 1), unique=True, max_size=nvars)))
    assert _degree_reader(nvars, chosen)(keys) == [sum(e[i] for i in chosen) for e in vectors]

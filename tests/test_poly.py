import random
import re

import pytest

from liesplit import QQ, Polynomial


def x_y(n=2):
    return Polynomial.variable(n, 0), Polynomial.variable(n, 1)


def random_poly(rng, nvars, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = bytes(rng.randint(0, max_exp) for _ in range(nvars))
        terms[e] = QQ(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(nvars, terms)


def test_difference_of_squares():
    x, y = x_y()
    assert (x + y) * (x - y) == x * x - y * y


def test_scale_by_zero_empties_term_map():
    x, y = x_y()
    p = (x + y) * (x - y)
    z = p.scale(0)
    assert z.terms == {}
    assert z.is_zero()
    assert z.degree() is None


def test_binomial_square():
    x, y = x_y()
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2


def test_diff_power_rule():
    x, y = x_y()
    assert (x**2 * y).diff(0) == 2 * x * y


def test_eval_direct_substitution():
    x, y = x_y()
    assert (x**2 + y).eval((2, 3)) == QQ(7)


def test_diff_constant_is_zero():
    c = Polynomial.constant(3, QQ(5, 2))
    for v in range(3):
        assert c.diff(v).is_zero()


def test_variable_count_mismatch_raises():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) * Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).eval((1,))
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).diff(5)


def test_leibniz_rule_on_random_polynomials():
    rng = random.Random(20240)
    for _ in range(40):
        n = rng.randint(1, 4)
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        v = rng.randrange(n)
        assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


def test_central_difference_telescoping_degree_three():
    # For deg <= 3 the Taylor expansion terminates:
    # (P(x+e) - P(x-e))/2 == dP(x) + dddP(x)/6, exactly.
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, max_terms=5, max_exp=3)
        p = Polynomial(
            n, {e: c for e, c in p.items() if sum(e) <= 3}
        )
        v = rng.randrange(n)
        x = [QQ(rng.randint(-5, 5)) for _ in range(n)]
        up = list(x)
        dn = list(x)
        up[v] = up[v] + 1
        dn[v] = dn[v] - 1
        central = (p.eval(up) - p.eval(dn)) / 2
        d1 = p.diff(v)
        d3 = d1.diff(v).diff(v)
        assert central == d1.eval(x) + d3.eval(x) / 6


def test_homogeneous_components_sum_back():
    rng = random.Random(99)
    p = random_poly(rng, 3, max_terms=8)
    parts = p.split_degree(range(3))  # total degree -> homogeneous part
    total = Polynomial.zero(3)
    for d, comp in parts.items():
        assert comp.is_homogeneous()
        assert comp.degree() == d
        total = total + comp
    assert total == p


def test_map_vars_linear_change():
    x, y = x_y()
    p = x**2 + y
    # x -> u + v, y -> 2v over a 2-variable target space
    u = Polynomial.variable(2, 0)
    v = Polynomial.variable(2, 1)
    q = p.map_vars([u + v, 2 * v], 2)
    assert q == u**2 + 2 * u * v + v**2 + 2 * v


def test_lift_and_restrict_round_trip():
    x, y = x_y()
    p = x**2 * y + 3 * x
    lifted = p.lift(5)
    assert lifted.nvars == 5
    assert lifted.part_on([0, 1]) == p
    assert lifted.part_on([0]) == Polynomial.variable(1, 0, 3)  # the terms using y drop


@pytest.mark.parametrize("keep, message", [
    ([0, 1, 1], "part_on: 1 is listed twice"),  # once read as x0^2*x1*x2
    ([-1], "part_on: -1 is not a variable index in range(3)"),  # once the zero polynomial
    ([5], "part_on: 5 is not a variable index in range(3)"),  # once a negative shift count
    ([0, True], "part_on: True is not a variable index in range(3)"),
    ([0.0], "part_on: 0.0 is not a variable index in range(3)"),
])
def test_part_on_names_a_bad_variable(keep, message):
    x0, x1, x2 = (Polynomial.variable(3, i) for i in range(3))
    p = x0**2 * x1 + x2
    assert p.part_on([0, 1]) == Polynomial.variable(2, 0) ** 2 * Polynomial.variable(2, 1)
    with pytest.raises(ValueError, match=re.escape(message)):
        p.part_on(keep)


def test_canonical_identifies_scalar_multiples():
    x, y = x_y()
    p = 2 * x * y + 4 * x
    q = QQ(-3, 7) * p
    assert p.canonical()[0] == q.canonical()[0]


def test_power_zero_is_one():
    x, _ = x_y()
    assert x**0 == Polynomial.constant(2, 1)


def test_exponent_past_255_raises_overflow():
    x = Polynomial.variable(1, 0)
    assert (x**255).degree() == 255
    with pytest.raises(OverflowError, match="255"):
        x**300


def test_constructor_takes_exponent_sequences_not_packed_keys():
    assert Polynomial(2, {(1, 0): 2, b"\x01\x00": QQ(1, 2)}) == Polynomial.variable(2, 0, QQ(5, 2))
    with pytest.raises(TypeError, match="sequence of 2 exponents"):
        Polynomial(2, {256: 1})
    with pytest.raises(ValueError, match="exponent vector has 3 exponents, expected 2"):
        Polynomial(2, {(1, 0, 0): 1})


@pytest.mark.parametrize("build, message", [
    (lambda: Polynomial.variable(3, 5), "variable 5 outside 0..2"),
    (lambda: Polynomial.variable(3, -1), "variable -1 outside 0..2"),
    (lambda: Polynomial.monomial(3, (1, 2, 3, 4)), "variable 3 outside 0..2"),
    (lambda: Polynomial.monomial(3, {0: 300}), "exponent 300 of variable 0 is outside 0..255"),
    (lambda: Polynomial.monomial(3, {2: -1}), "exponent -1 of variable 2 is outside 0..255"),
    (lambda: Polynomial(3, {(0, 300, 0): 1}), "exponent 300 of variable 1 is outside 0..255"),
])
def test_bad_variable_or_exponent_is_named(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_monomial_takes_only_full_exponent_sequences():
    with pytest.raises(ValueError, match="exponent vector has 2 exponents, expected 3"):
        Polynomial.monomial(3, (1, 2))
    with pytest.raises(ValueError, match="exponent vector has 0 exponents, expected 2"):
        Polynomial.monomial(2, (), 0)
    assert Polynomial.monomial(3, (0, 1, 2)) == Polynomial.monomial(3, {1: 1, 2: 2})
    assert Polynomial.constant(3, QQ(3, 2)) == Polynomial(3, {(0, 0, 0): QQ(3, 2)})
    assert Polynomial.constant(3, 0).is_zero()


def test_a_constant_hashes_as_the_value_it_equals():
    # once {Polynomial.constant(2, 3), 3} had two elements
    x = Polynomial.variable(2, 0)
    for p, c in ((Polynomial.constant(2, 3), 3), (Polynomial.zero(2), 0),
                 (Polynomial.constant(2, QQ(-5, 4)), QQ(-5, 4)), (x - x + 7, 7)):
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1 and {p: "p"}[c] == "p"
    assert len({x, x + 0, Polynomial.monomial(2, {0: 1})}) == 1
    assert len({x, 2 * x, x * x, Polynomial.constant(2, 2)}) == 4
    # a 'num/den' string spells a scalar but is not one: it equals no polynomial
    assert Polynomial.constant(2, 3) != "3" and "3" != Polynomial.constant(2, 3)
    assert len({Polynomial.constant(2, 3), "3"}) == 2
    # nor are a float, a bool, None, a list or an object, which each raised TypeError once
    one = Polynomial.constant(2, 1)
    for other in (None, 1.0, True, [1], object()):
        assert one != other and other != one
    assert one not in [None, 1.0] and len({one, 1.0}) == 2
    # zero equals 0, but not 0.0, which once passed through the `== 0` shortcut
    assert Polynomial.zero(2) == 0 and Polynomial.zero(2) != 0.0


@pytest.mark.parametrize("build", [
    lambda: Polynomial(2, {(1, 0): 0.1}),
    lambda: Polynomial.constant(2, 0.1),
    lambda: Polynomial.linear_form(2, [1, 0.1]),
    lambda: Polynomial.variable(2, 0).scale(0.1),
], ids=["constructor", "constant", "linear_form", "scale"])
def test_float_coefficients_are_rejected(build):
    with pytest.raises(TypeError, match="float 0.1 "):
        build()

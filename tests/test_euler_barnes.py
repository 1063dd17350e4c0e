import random
from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from qbarnes import (
    BarnesParams,
    ExponentAlignmentError,
    FractionalArg,
    PoleError,
    Poly,
    PreconditionError,
    QBase,
    RationalFunctionQ,
    classical_gf_coefficients,
    distribution_check,
    h_addition,
    h_carlitz,
    h_closed,
    h_rational_in_q,
    limit_q_to_1,
)
from qbarnes import euler_barnes
from qbarnes.errors import InternalError
from qbarnes.euler_barnes import _int_divexact, poly_gcd


def _params(a, u, q):
    return BarnesParams(a, F(u), QBase(F(q)))


def test_h_closed_rank_one():
    # H_0 = 1, H_1 = u/(1 - qu)
    p = _params((1,), 3, 2)
    assert h_closed(0, 0, p) == 1
    assert h_closed(1, 0, p) == F(-3, 5)
    u, q = F(5, 7), F(2, 3)
    p2 = _params((1,), u, q)
    assert h_closed(1, 0, p2) == u / (1 - q * u)


def test_h_closed_fractional_argument():
    q = F(4, 9)
    base = QBase(F(2, 3), 2)
    p = BarnesParams((1,), F(5), base)
    got = h_closed(1, FractionalArg(1, 2), p)
    # (1-u)/(1-q) * ( 1/(1-u) - q^{1/2}/(1-qu) ) with q^{1/2} = 2/3
    root = F(2, 3)
    expect = (1 - F(5)) / (1 - q) * (1 / (1 - F(5)) - root / (1 - q * F(5)))
    assert got == expect


def test_h_closed_misaligned_argument():
    p = BarnesParams((1,), F(5), QBase(F(2)))
    from qbarnes import ExponentAlignmentError

    with pytest.raises(ExponentAlignmentError):
        h_closed(1, FractionalArg(1, 2), p)


def test_h_closed_pole_reports_indices():
    # u = q^{-2} hits 1 - q^{2} u = 0 at l = 2 (a = (1,))
    p = _params((1,), F(1, 4), 2)
    with pytest.raises(PoleError) as err:
        h_closed(3, 0, p)
    assert "l=2" in str(err.value) and "j=0" in str(err.value)


def test_h_closed_permutation_invariance():
    u, q = F(3, 2), F(5, 4)
    pa = _params((1, -2, 3), u, q)
    pb = _params((3, 1, -2), u, q)
    for n in range(6):
        assert h_closed(n, 1, pa) == h_closed(n, 1, pb)


def _h_closed_reference(n, w, params):
    """The closed form as a plain loop: n+1 Fractions added one at a time."""
    if n < 0:
        raise PreconditionError("n must be >= 0", parameter="n")
    w = FractionalArg.coerce(w)
    q = params.q
    if q.value == 1:
        raise PreconditionError("q = 1; use limit_q_to_1", parameter="q")
    if q.exponent % w.denominator != 0:
        raise ExponentAlignmentError(
            f"w = {w.numerator}/{w.denominator} needs its denominator to "
            f"divide the base exponent {q.exponent}",
            parameter="w",
        )
    step = q.exponent // w.denominator
    u = params.u
    total = F(0)
    for l in range(n + 1):
        term = F(comb(n, l)) * (-1) ** l * q.power(l * w.numerator * step)
        for j, aj in enumerate(params.a):
            factor = 1 - q.power(l * aj * q.exponent) * u
            if factor == 0:
                raise PoleError(f"pole 1 - q^(l a_j) u = 0 at l={l}, j={j}", parameter="u")
            term /= factor
        total += term
    return (1 - u) ** params.r / (1 - q.value) ** n * total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PreconditionError, PoleError) as exc:
        return (type(exc).__name__, str(exc), exc.parameter)


def test_h_closed_matches_fraction_loop():
    # roots: zero, negative, |root| < 1 and > 1; u: negative, non-integer,
    # and powers of the root, which put poles at small l
    roots = [F(0), F(-1), F(2), F(-2), F(3, 2), F(-2, 3), F(1, 3), F(-5, 4), F(3, 5)]
    us = [F(-3), F(2), F(5, 2), F(-2, 5), F(3, 7), F(-7, 3)]
    rng = random.Random(7)
    seen = set()
    for _ in range(2000):
        root, e = rng.choice(roots), rng.choice((1, 2, 3))
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        u = root ** rng.randint(-4, 4) if root and rng.random() < 0.3 else rng.choice(us)
        if u in (0, 1):
            continue
        w = FractionalArg(rng.randint(-3, 3), rng.choice((1, e, e, e, 2)))
        n = rng.randint(0, 7)
        params = BarnesParams(a, u, QBase(root, e))
        want = _outcome(_h_closed_reference, n, w, params)
        assert _outcome(h_closed, n, w, params) == want, (n, w, params)
        if isinstance(want, tuple):
            seen.add(want[0] if root else "q=0 " + want[1])
        else:
            seen.add(("w<0" if w.numerator < 0 else "w>=0", w.denominator, e))
            seen.add(("mixed a" if min(a) < 0 < max(a) else "one-sign a", n == 0))
            seen.add(("root<0" if root < 0 else "root>=0", abs(root) < 1))
    assert {"PoleError", "ExponentAlignmentError", "q=0 0 cannot be raised to a negative power"} <= seen
    assert {("w<0", 2, 2), ("w<0", 3, 3), ("mixed a", True), ("mixed a", False)} <= seen
    assert {("root<0", True), ("root<0", False), ("root>=0", True)} <= seen


def test_q_one_rejected():
    with pytest.raises(PreconditionError):
        h_closed(1, 0, BarnesParams((1,), F(3), QBase(F(1), classical=True)))


def test_carlitz_first_values():
    u, q = F(7, 3), F(2)
    assert h_carlitz(0, u, q) == 1
    assert h_carlitz(1, u, q) == 1 / (u - q)
    with pytest.raises(PoleError):
        h_carlitz(2, F(4), F(2))  # u = q^2 pivot vanishes


def test_carlitz_bridges_closed_form():
    u, q = F(3), F(2)
    p = _params((1,), u, q)
    for k in range(9):
        assert h_carlitz(k, 1 / u, q) == h_closed(k, 0, p)


def test_addition_formula():
    p = _params((1, 2), F(5, 3), F(3, 2))
    for n in range(6):
        for w in range(4):
            assert h_addition(n, w, p) == h_closed(n, w, p)


def test_distribution_residual_zero():
    p = _params((1, -2), F(5, 2), F(3, 2))
    for f in (2, 3):
        for n in range(5):
            assert distribution_check(n, 1, f, p) == 0


def test_distribution_rejects_root_of_unity_u():
    p = _params((1,), F(-1), F(3, 2))
    with pytest.raises(PoleError):
        distribution_check(1, 0, 2, p)


def test_rational_in_q_evaluates_to_closed_form(monkeypatch):
    # u = c/d with d > 1 exercises the cancelled powers of d; negative w and
    # negative a_j exercise the cleared factors q and q^m - u
    cases = [
        (0, 0, (1,), F(3)),
        (2, 1, (1, 2), F(3)),
        (3, 2, (2, -1), F(3)),
        (4, 0, (1, 1, 2), F(3)),
        (5, -1, (1, -2), F(5, 2)),
        (8, 2, (2, -1), F(-2, 5)),
        (6, -2, (-1, 2, 1), F(-3, 4)),
        (7, 1, (-2,), F(5, 2)),
        (8, -1, (1, -1), F(-3, 4)),
        (3, 0, (-1, -2), F(-2, 5)),
        # u = -1: numerator and denominator share a factor, so the PRS gcd
        # and the exact division run
        (3, 1, (1,), F(-1)),
        (2, 0, (2, -1), F(-1)),
        (3, -1, (1, 1), F(-1)),
        (4, 2, (2,), F(-1)),
    ]
    # a seeded grid over mixed-sign a_j and w; a monic denominator coprime to
    # the numerator that agrees with route 1 pins the unique reduced form
    rng = random.Random(8)
    for _ in range(300):
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        d = rng.randint(2, 5)
        c = rng.choice([x for x in range(-7, 8) if x and gcd(x, d) == 1])
        u = F(-1) if rng.random() < 0.2 else F(c, d)
        # n capped lower at larger r keeps the degrees, and the test, small
        cases.append((rng.randint(0, (7, 6, 4)[len(a) - 1]), rng.randint(-3, 3), a, u))

    gcd_degrees = []
    int_gcd = euler_barnes._int_gcd

    def recording_gcd(f, g):
        result = int_gcd(f, g)
        gcd_degrees.append(len(result) - 1)
        return result

    monkeypatch.setattr(euler_barnes, "_int_gcd", recording_gcd)
    seen = set()
    for n, w, a, u in cases:
        ratfn = h_rational_in_q(n, w, len(a), a, u)
        assert ratfn.denominator.leading == 1, (n, w, a, u)
        assert poly_gcd(ratfn.numerator, ratfn.denominator).degree == 0, (n, w, a, u)
        for q in (F(2), F(5, 3), F(-1, 2), F(7)):
            try:
                want = h_closed(n, w, BarnesParams(a, u, QBase(q)))
            except PoleError:
                seen.add("pole")
                continue
            assert ratfn(q) == want, (n, w, a, u, q)
        seen.add(n == 0)
        if w < 0 and min(a) < 0:
            seen.add("w<0 and a_j<0")
    assert {True, False, "w<0 and a_j<0", "pole"} <= seen
    assert max(gcd_degrees) > 0


def test_rational_in_q_is_reduced():
    ratfn = h_rational_in_q(3, 1, 2, (1, 2), F(3))
    g = poly_gcd(ratfn.numerator, ratfn.denominator)
    assert g.degree == 0
    # denominator normalized monic
    assert ratfn.denominator.leading == 1
    # no accidental pole at q = 1 after reduction
    assert ratfn.denominator(F(1)) != 0


def test_rational_function_reduces_integer_lists():
    def parts(num, den):
        rf = RationalFunctionQ(num, den)
        return list(rf.numerator.coeffs), list(rf.denominator.coeffs)

    # 3q^2(1 + 2q) / (q^3 (2 + 5q)): the shared q^2 comes off
    assert parts([0, 0, 3, 6], [0, 0, 0, 2, 5]) == ([F(3, 5), F(6, 5)], [0, F(2, 5), 1])
    # contents 2 and 3, negative leading denominator coefficient
    assert parts([4, 6], [-3, 0, -9]) == ([F(-4, 9), F(-2, 3)], [F(1, 3), 0, 1])
    # 2(q - 1)(q + 2) / ((q - 1)(3q + 1)): the PRS gcd q - 1 divides out
    assert parts([-4, 2, 2], [-1, -2, 3]) == ([F(4, 3), F(2, 3)], [F(1, 3), 1])
    # trailing zeros
    assert parts([1, 2, 0, 0], [3, 0, 0]) == ([F(1, 3), F(2, 3)], [1])
    assert parts([0, 0], [5, 1]) == ([], [1])
    with pytest.raises(ZeroDivisionError):
        RationalFunctionQ([1], [0, 0])

    assert _int_divexact([-2, 1, 1], [-1, 1]) == [2, 1]
    with pytest.raises(InternalError):
        _int_divexact([1, 1], [1, 2])  # leading quotient 1/2
    with pytest.raises(InternalError):
        _int_divexact([1, 0, 1], [-1, 1])  # q^2 + 1 = (q + 1)(q - 1) + 2


def test_rational_in_q_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def coeffs(expr):
        return [F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, q).all_coeffs())]

    for n, w, a, u in [
        (1, 0, (1,), F(3)),
        (3, 1, (1, 2), F(5, 2)),
        (4, -1, (2, -1), F(-2, 5)),
        (3, 2, (-1, 1), F(-3, 4)),
        (2, -2, (-2,), F(3)),
        (3, 1, (1,), F(-1)),
        (2, 0, (2, -1), F(-1)),
        (3, -1, (1, 1), F(-1)),
        (4, 2, (2,), F(-1)),
    ]:
        su = sympy.Rational(u.numerator, u.denominator)
        total = sum(
            sympy.binomial(n, l) * (-1) ** l * q ** (l * w)
            * sympy.Mul(*[1 / (1 - q ** (l * aj) * su) for aj in a])
            for l in range(n + 1)
        )
        num, den = sympy.fraction(sympy.cancel((1 - su) ** len(a) / (1 - q) ** n * total))
        lead = sympy.Poly(den, q).LC()
        ratfn = h_rational_in_q(n, w, len(a), a, u)
        assert list(ratfn.numerator.coeffs) == coeffs(num / lead), (n, w, a, u)
        assert list(ratfn.denominator.coeffs) == coeffs(den / lead), (n, w, a, u)


def test_limit_q_to_1_matches_classical():
    a, u, w = (1, 2), F(5, 2), 1
    classical = classical_gf_coefficients(w, 1 / u, a, 6)
    for n in range(7):
        assert limit_q_to_1(n, w, 2, a, u) == classical[n]


def test_poly_gcd_basic():
    x_minus_1 = Poly((F(-1), F(1)))
    sq = x_minus_1 * x_minus_1
    other = x_minus_1 * Poly((F(2), F(1)))
    g = poly_gcd(sq, other)
    assert g.monic() == x_minus_1
    coprime = poly_gcd(Poly((F(1), F(1))), Poly((F(2), F(1))))
    assert coprime.degree == 0


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.integers(min_value=-2, max_value=2).filter(lambda v: v != 0),
        min_size=1,
        max_size=2,
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_addition_matches_closed_everywhere(n, w, a, u, q):
    if u in (0, 1) or q in (0, 1):
        return
    p = BarnesParams(tuple(a), u, QBase(q))
    try:
        expect = h_closed(n, w, p)
    except PoleError:
        return
    assert h_addition(n, w, p) == expect

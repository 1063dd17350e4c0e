from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qbarnes import (
    BarnesParams,
    FractionalArg,
    PoleError,
    Poly,
    PreconditionError,
    QBase,
    classical_gf_coefficients,
    distribution_check,
    h_addition,
    h_carlitz,
    h_closed,
    h_rational_in_q,
    limit_q_to_1,
)
from qbarnes.euler_barnes import poly_gcd


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


def test_rational_in_q_evaluates_to_closed_form():
    # u = c/d with d > 1 exercises the cancelled powers of d; negative w and
    # negative a_j exercise the cleared factors q and q^m - u
    for n, w, a, u in [
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
    ]:
        ratfn = h_rational_in_q(n, w, len(a), a, u)
        for q in (F(2), F(5, 3), F(-1, 2), F(7)):
            p = BarnesParams(a, u, QBase(q))
            assert ratfn(q) == h_closed(n, w, p)


def test_rational_in_q_is_reduced():
    ratfn = h_rational_in_q(3, 1, 2, (1, 2), F(3))
    g = poly_gcd(ratfn.numerator, ratfn.denominator)
    assert g.degree == 0
    # denominator normalized monic
    assert ratfn.denominator.leading == 1
    # no accidental pole at q = 1 after reduction
    assert ratfn.denominator(F(1)) != 0


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

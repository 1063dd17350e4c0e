from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qbarnes import (
    BarnesParams,
    ExponentAlignmentError,
    FractionalArg,
    PreconditionError,
    QBase,
    h_addition,
    q_gf_coefficients,
    qbracket,
    qbracket_base,
    qbracket_z,
)


def test_qbracket_values():
    assert qbracket(3, F(2)) == 7
    assert qbracket(0, F(5, 3)) == 0
    assert qbracket(1, F(5, 3)) == 1
    assert qbracket(-1, F(2)) == F(-1, 2)
    # base 1 degenerates to the argument itself
    assert qbracket(4, F(1)) == 4


def test_a_non_integer_exponent_is_refused_not_taken_as_a_float():
    # Fraction ** Fraction(1, 2) is a float; each of these went through one
    params = BarnesParams((1,), F(5, 2), QBase(F(4)))
    calls = [
        lambda: qbracket(F(1, 2), F(4)),
        lambda: q_gf_coefficients(params, F(1, 2), 2),
        lambda: h_addition(2, F(1, 2), params),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="exponent must be an integer, got 1/2"):
            call()
    # an integral Fraction is an integer exponent
    assert qbracket(F(2), F(4)) == 5
    assert q_gf_coefficients(params, F(2), 2) == q_gf_coefficients(params, 2, 2)
    assert h_addition(2, F(2), params) == h_addition(2, 2, params)


def test_qbracket_z_matches_geometric_sum():
    u = F(3, 2)
    assert qbracket_z(4, u) == 1 + u + u**2 + u**3
    assert qbracket_z(0, u) == 0


def test_qbase_validation():
    with pytest.raises(PreconditionError):
        QBase(F(1))
    assert QBase(F(1), classical=True).value == 1
    with pytest.raises(PreconditionError):
        QBase(F(2), 0)
    b = QBase(F(2), 3)
    assert b.value == 8
    assert b.power(2) == 4  # (q^{1/3})^2


def test_fractional_arg():
    w = FractionalArg(3, 2)
    assert w.as_fraction() == F(3, 2)
    assert FractionalArg(4).as_fraction() == 4
    assert FractionalArg.coerce(5) == FractionalArg(5, 1)
    with pytest.raises(PreconditionError):
        FractionalArg(1, 0)


def test_qbracket_base_half_argument():
    q = F(9, 4)
    base = QBase(F(3, 2), 2)  # base value q = 9/4, square root 3/2
    assert base.value == q
    # [1/2 : q] = (1 - q^{1/2})/(1 - q) = 1/(1 + q^{1/2})
    got = qbracket_base(FractionalArg(1, 2), base)
    assert got == 1 / (1 + F(3, 2))
    assert qbracket_base(FractionalArg(2, 1), base) == qbracket(2, q)


def test_qbracket_base_alignment():
    base = QBase(F(2), 1)
    with pytest.raises(ExponentAlignmentError):
        qbracket_base(FractionalArg(1, 2), base)
    with pytest.raises(ExponentAlignmentError):
        qbracket_base(FractionalArg(1, 3), QBase(F(2), 2))


@settings(deadline=None)
@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
def test_qbracket_cocycle(x, y, q):
    if q in (0, 1):
        return
    assert qbracket(x + y, q) == qbracket(x, q) + q**x * qbracket(y, q)

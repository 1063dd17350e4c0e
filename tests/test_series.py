from fractions import Fraction as F

import pytest

from qbarnes import (
    BarnesParams,
    PoleError,
    PreconditionError,
    QBase,
    TruncatedSeries,
    classical_gf_coefficients,
    q_gf_coefficients,
)


def test_series_arithmetic():
    s = TruncatedSeries([F(1), F(2), F(3)], 3)
    t = TruncatedSeries([F(0), F(1)], 3)
    assert (s + t).coeffs[1] == 3
    assert (s * t).coeffs == [F(0), F(1), F(2), F(3)]
    assert s.coefficient(2) == 3
    with pytest.raises(PreconditionError):
        s.coefficient(10)  # beyond the truncation order the value is unknown


def test_reciprocal():
    s = TruncatedSeries([F(1), F(-1)], 6)
    r = s.reciprocal()
    assert r.coeffs == [F(1)] * 7  # 1/(1-t) = sum t^n
    assert (s * r).coeffs == [F(1)] + [F(0)] * 6
    with pytest.raises(PoleError):
        TruncatedSeries([F(0), F(1)], 3).reciprocal()


def test_scalar_exp():
    e = TruncatedSeries.scalar_exp(F(2), 4)
    assert e.coeffs == [1, 2, 2, F(4, 3), F(2, 3)]


def test_classical_euler_numbers():
    # v = -1 gives the Euler polynomial values at 0: E_1(0) = -1/2, E_2(0) = 0
    coeffs = classical_gf_coefficients(0, F(-1), (1,), 4)
    assert coeffs[0] == 1
    assert coeffs[1] == F(-1, 2)
    assert coeffs[2] == 0
    assert coeffs[3] == F(1, 4)


def test_classical_h1_closed_form():
    v = F(3, 7)
    coeffs = classical_gf_coefficients(0, v, (1,), 1)
    assert coeffs[1] == 1 / (v - 1)
    with pytest.raises(PreconditionError):
        classical_gf_coefficients(0, F(1), (1,), 2)


def test_q_gf_matches_direct_expansion():
    params = BarnesParams((1,), F(3), QBase(F(2)))
    coeffs = q_gf_coefficients(params, 0, 3)
    # H_0 = 1, H_1 = u/(1 - qu)
    assert coeffs[0] == 1
    assert coeffs[1] == F(3) / (1 - F(2) * F(3))
    # u = q^-3 puts a pole at j = 3, reported once n_max reaches it
    params = BarnesParams((1,), F(1, 8), QBase(F(2)))
    assert len(q_gf_coefficients(params, 0, 2)) == 3
    with pytest.raises(PoleError):
        q_gf_coefficients(params, 0, 3)

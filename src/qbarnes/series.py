"""Truncated formal power series over exact rationals.

Everything is a tuple of Fraction coefficients cut at a fixed order;
multiplication truncates, reciprocal needs an invertible constant term. The
arithmetic itself runs over Z: `__mul__` scales each operand to the lcm of
its denominators and convolves the integer numerators, and `reciprocal`
runs its recurrence on integer numerators, so each output coefficient is
reduced once instead of at every step. The two generating-function builders
at the bottom turn series data into n!-scaled coefficient lists for identity
checking.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import PoleError, PreconditionError
from .euler_barnes import BarnesParams, _integer_a, _over_common_denominator
from .exact_numbers import Frozen, Rational
from .qnum import rational_power


class TruncatedSeries(Frozen):
    """Power series modulo t^(order+1): its order + 1 coefficients, a tuple."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Rational], order: int | None = None):
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise PreconditionError("order must be >= 0", parameter="order")
        c = [Fraction(x) for x in coeffs[: order + 1]]
        c.extend([Fraction(0)] * (order + 1 - len(c)))
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "order", order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "TruncatedSeries":
        return cls([Fraction(value)], order)

    @classmethod
    def scalar_exp(cls, c: Rational, order: int) -> "TruncatedSeries":
        """exp(c t) truncated."""
        c = Fraction(c)
        return cls([c**n / factorial(n) for n in range(order + 1)], order)

    def coefficient(self, n: int) -> Rational:
        if not 0 <= n <= self.order:
            raise PreconditionError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def _common_order(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        k = self._common_order(other)
        return TruncatedSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(k + 1)], k
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        k = self._common_order(other)
        a, da = _over_common_denominator(self.coeffs[: k + 1])
        b, db = _over_common_denominator(other.coeffs[: k + 1])
        out = [0] * (k + 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j in range(k + 1 - i):
                out[i + j] += x * b[j]
        den = da * db
        return TruncatedSeries([Fraction(c, den) for c in out], k)

    def scale(self, c: Rational) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries([c * a for a in self.coeffs], self.order)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero.

        With a_k = A_k / D, b_0 = D / A_0 and b_n = -sum_{k=1..n} A_k b_(n-k)
        / A_0. Each sum runs in Z over the lcm of the reduced denominators of
        b_0..b_(n-1): keeping b_n reduced holds its size to that of the true
        value, where carrying A_0^(n+1) as the denominator would not.
        """
        if self.coeffs[0] == 0:
            raise PoleError("series has no inverse: constant term is 0")
        a, den = _over_common_denominator(self.coeffs)
        out = [Fraction(den, a[0])]
        for n in range(1, self.order + 1):
            num, den_n = _over_common_denominator(out)
            acc = sum(a[k] * num[n - k] for k in range(1, n + 1))
            out.append(Fraction(-acc, a[0] * den_n))
        return TruncatedSeries(out, self.order)


def classical_gf_coefficients(
    w: Rational, v: Rational, a: Sequence[int], n_max: int
) -> list[Rational]:
    """n!-scaled coefficients of (1-v)^r e^(wt) / prod_j (e^(a_j t) - v).

    This is the classical (q -> 1) generating function; v = 1 is the pole of
    every factor and is rejected, and a is checked by `_integer_a`.
    """
    v = Fraction(v)
    if v == 1:
        raise PreconditionError("v = 1 is a pole of the generating function", parameter="u")
    r = len(a)
    a = _integer_a(a, r)
    if n_max < 0:
        raise PreconditionError("n_max must be >= 0", parameter="n")
    den = TruncatedSeries.constant(1, n_max)
    for aj in a:
        factor = TruncatedSeries.scalar_exp(aj, n_max) - TruncatedSeries.constant(v, n_max)
        den = den * factor
    gf = den.reciprocal().scale((1 - v) ** r) * TruncatedSeries.scalar_exp(w, n_max)
    return [factorial(n) * gf.coefficient(n) for n in range(n_max + 1)]


def q_gf_coefficients(params: BarnesParams, x: int, n_max: int) -> list[Rational]:
    """n!-scaled coefficients of the q-deformed generating function at x.

    G(t) = e^(t/(1-q)) (1-u)^r sum_{j <= n_max} [prod_l 1/(1 - q^(j a_l) u)]
           (-1/(1-q))^j q^(jx) t^j / j!

    Coefficient n is H_n(x, u, q | a); x = 0 gives the numbers H_n. Terms
    with j > n_max cannot reach t^n_max, so the j-sum stops there, and a
    pole 1 - q^(j a_l) u = 0 is reported for every j it reaches.
    """
    if not isinstance(params, BarnesParams):
        raise PreconditionError("params must be a BarnesParams", parameter="params")
    if n_max < 0:
        raise PreconditionError("n_max must be >= 0", parameter="n")
    q = params.q.value
    if q == 1:
        raise PreconditionError("q = 1; use the classical route", parameter="q")
    u = params.u
    r = params.r
    c = 1 / (1 - q)
    jcoeffs = []
    for j in range(n_max + 1):
        prod = Fraction(1)
        for l, al in enumerate(params.a):
            factor = 1 - rational_power(q, j * al) * u
            if factor == 0:
                raise PoleError(
                    f"pole 1 - q^(j a_l) u = 0 at j={j}, l={l}",
                    parameter="u",
                )
            prod /= factor
        jcoeffs.append(prod * (-c) ** j / factorial(j) * rational_power(q, j * x))
    gf = TruncatedSeries.scalar_exp(c, n_max) * TruncatedSeries(jcoeffs, n_max)
    gf = gf.scale((1 - u) ** r)
    return [factorial(n) * gf.coefficient(n) for n in range(n_max + 1)]

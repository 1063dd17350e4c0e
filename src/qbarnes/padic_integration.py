"""p-adic distributions mu_u, their Riemann sums, and the moment measures.

The base distribution assigns mu_u(x + m Z_p) = u^x / [m : u] to a cell of
modulus m; it is a measure (bounded) exactly when nu_p(u) != 0, which the
`AdmissibleU` wrapper enforces at construction. On top of it sit the k-th
moment measures E_k built from the closed-form H-values at fractional
arguments; the identity suites check their cell additivity, integrality,
and convergence to the closed forms.

All sums are exact rational arithmetic; p-adic valuations of residuals are
computed after the fact, so no convergence claim depends on rounding.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import BudgetError, PoleError, PreconditionError
from .exact_numbers import INFINITY, Rational, is_prime, valuation
from .euler_barnes import BarnesParams, h_closed
from .qnum import FractionalArg, QBase, qbracket, qbracket_z

#: Default cap on evaluation points for any single Riemann sum.
DEFAULT_BUDGET = 250_000


def _check_budget(points: int, budget: int) -> None:
    if points > budget:
        raise BudgetError(
            f"{points} evaluation points exceed the budget of {budget}",
            parameter="budget",
        )


@dataclass(frozen=True)
class AdmissibleU:
    """A rational u with nu_p(u) != 0, the measure-existence condition.

    For rational u this is equivalent to |1 - u^f|_p >= 1 for every f >= 1;
    a p-adic unit u breaks the bound at f = p - 1 (Fermat), so construction
    rejects it.
    """

    u: Rational
    p: int

    def __post_init__(self):
        object.__setattr__(self, "u", Fraction(self.u))
        if not is_prime(self.p) or self.p == 2:
            raise PreconditionError("p must be an odd prime", parameter="p")
        if self.u == 0:
            raise PreconditionError("AdmissibleU rejects u = 0", parameter="u")
        if valuation(self.u, self.p) == 0:
            raise PreconditionError(
                f"AdmissibleU rejects nu_{self.p}(u) = 0: u = {self.u} is a "
                f"{self.p}-adic unit, so 1 - u^({self.p}-1) falls below 1 in "
                "p-adic absolute value and mu_u is unbounded",
                parameter="u",
            )

    @property
    def valuation(self) -> int:
        return int(valuation(self.u, self.p))


@dataclass(frozen=True)
class MeasureCell:
    """The coset x + (d f p^N) Z_p."""

    x: int
    f: int = 1
    N: int = 0
    d: int = 1

    def __post_init__(self):
        for flag, value, least in (("f", self.f, 1), ("d", self.d, 1), ("level-N", self.N, 0)):
            if value < least:
                raise PreconditionError("cell needs f >= 1, d >= 1, N >= 0", parameter=flag)

    def modulus(self, p: int) -> int:
        return self.d * self.f * p**self.N

    def check(self, p: int) -> None:
        if not 0 <= self.x < self.modulus(p):
            raise PreconditionError(
                f"representative {self.x} outside [0, {self.modulus(p)})",
                parameter="x",
            )


def mu_value(cell: MeasureCell, u: AdmissibleU) -> Rational:
    """mu_u of a cell: u^x / [m : u] with m the cell modulus."""
    cell.check(u.p)
    m = cell.modulus(u.p)
    if u.u**m == 1:
        raise PoleError(
            "u^modulus = 1 (excluded by admissibility, checked anyway)",
            parameter="u",
        )
    return u.u**cell.x / qbracket_z(m, u.u)


def riemann_integral(
    integrand: Callable[[int], Rational],
    u: AdmissibleU,
    d: int = 1,
    N: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> Rational:
    """Level-N Riemann sum of the integrand against mu_u over Z_p.

    sum_{x < d p^N} f(x) mu_u(x + d p^N Z_p), evaluated at the smallest
    nonnegative representatives.
    """
    if d < 1 or N < 0:
        raise PreconditionError("need d >= 1 and N >= 0", parameter="d")
    points = d * u.p**N
    _check_budget(points, budget)
    uu = u.u
    norm = qbracket_z(points, uu)
    if norm == 0:
        raise PoleError("u^(d p^N) = 1", parameter="u")
    total = Fraction(0)
    upow = Fraction(1)
    for x in range(points):
        total += integrand(x) * upow
        upow *= uu
    return total / norm


def multi_riemann_integral(
    n: int,
    w: int,
    params: BarnesParams,
    u: AdmissibleU,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> Rational:
    """r-fold level-N Riemann sum of [w + a.x : q]^n against mu_u per axis.

    Converges p-adically to H_n^(r)(w, u, q | a); params.u must be the same
    u the integrator carries.
    """
    if params.u != u.u:
        raise PreconditionError("params.u and the integrator's u differ", parameter="u")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
    r = params.r
    points = u.p**N
    _check_budget(points**r, budget)
    qv = params.q.value
    uu = u.u
    u_powers = [Fraction(1)]
    for _ in range(r * (points - 1)):
        u_powers.append(u_powers[-1] * uu)
    bracket_pow: dict[int, Rational] = {}

    def integrand(arg: int) -> Rational:
        if arg not in bracket_pow:
            bracket_pow[arg] = qbracket(arg, qv) ** n
        return bracket_pow[arg]

    total = Fraction(0)
    for xs in itertools.product(range(points), repeat=r):
        arg = w + sum(aj * xj for aj, xj in zip(params.a, xs))
        total += integrand(arg) * u_powers[sum(xs)]
    return total / qbracket_z(points, uu) ** r


def measure_E_value(
    cell: MeasureCell,
    k: int,
    u: AdmissibleU,
    q: Rational,
    a1: int = 1,
) -> Rational:
    """The k-th moment measure of a cell of modulus f p^N (d must be 1).

    E_k(x + f p^N Z_p) = [f p^N : q]^k u^x / (1 - u^(f p^N))
                         * H_k(a1 x / (f p^N), u^(f p^N), q^(f p^N) | a1)
    """
    if cell.d != 1:
        raise PreconditionError("moment-measure cells have modulus f p^N", parameter="d")
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    cell.check(u.p)
    q = Fraction(q)
    m = cell.modulus(u.p)
    um = u.u**m
    if um == 1:
        raise PoleError("u^(f p^N) = 1", parameter="u")
    base = QBase(q, m)
    inner = h_closed(
        k,
        FractionalArg(a1 * cell.x, m),
        BarnesParams((a1,), um, base),
    )
    return qbracket(m, q) ** k * u.u**cell.x / (1 - um) * inner


def measure_additivity_check(
    x: int,
    f: int,
    N: int,
    k: int,
    u: AdmissibleU,
    q: Rational,
    a1: int = 1,
) -> Rational:
    """sum_{i < p} E_k(x + i f p^N + f p^(N+1) Z_p) - E_k(x + f p^N Z_p)."""
    coarse = measure_E_value(MeasureCell(x, f, N), k, u, q, a1)
    fine = Fraction(0)
    step = f * u.p**N
    for i in range(u.p):
        fine += measure_E_value(MeasureCell(x + i * step, f, N + 1), k, u, q, a1)
    return fine - coarse


def measure_bound_check(
    cell: MeasureCell,
    k: int,
    u: AdmissibleU,
    q: Rational,
    a1: int = 1,
) -> bool:
    """Integrality: nu_p(E_k(cell)) >= 0 when nu_p(u) >= 1 and q ≡ 1 mod p."""
    if u.valuation < 1:
        raise PreconditionError("bound statement needs nu_p(u) >= 1", parameter="u")
    if valuation(Fraction(q) - 1, u.p) < 1:
        raise PreconditionError("bound statement needs q ≡ 1 (mod p)", parameter="q")
    value = measure_E_value(cell, k, u, q, a1)
    return valuation(value, u.p) >= 0


def prop5_check(
    k: int,
    u: AdmissibleU,
    q: Rational,
    a1: int = 1,
    N: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> int | float:
    """Valuation of (principal-term sum at level N) - (1/(1-u)) H_k(u,q|a1).

    The principal terms of the moment-measure cells x + p^N Z_p are
    [a1 x : q]^k u^x / (1 - u^(p^N)); their sum converges p-adically to the
    k-th moment (1/(1-u)) H_k. Since 1 - u^m = [m : u] (1 - u), that sum is
    the level-N Riemann sum of [a1 x : q]^k divided by 1 - u. Returns the
    exact valuation of the difference, INFINITY when the level-N sum is
    already exact (k = 0).
    """
    if k < 0 or N < 0:
        raise PreconditionError("need k >= 0 and N >= 0", parameter="k")
    q = Fraction(q)
    level_sum = riemann_integral(lambda x: qbracket(a1 * x, q) ** k, u, 1, N, budget)
    approx = level_sum / (1 - u.u)
    target = h_closed(k, 0, BarnesParams((a1,), u.u, QBase(q))) / (1 - u.u)
    return valuation(approx - target, u.p)

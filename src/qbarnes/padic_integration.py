"""p-adic distributions mu_u, their Riemann sums, and the moment measures.

The base distribution assigns mu_u(x + m Z_p) = u^x / [m : u] to a cell of
modulus m; it is a measure (bounded) exactly when nu_p(u) != 0, which the
`AdmissibleU` wrapper enforces at construction. On top of it sit the k-th
moment measures E_k built from the closed-form H-values at fractional
arguments; the identity suites check their cell additivity, integrality,
and convergence to the closed forms.

Every value is exact: no convergence claim depends on rounding. The Riemann
sums are exact rationals, and so is every valuation taken of them. The one
shortcut, `riemann_error_valuation`, finds nu_p(level sum - target) from the
sum modulo p^K, with K a few dozen digits above the error valuation the
u-adic tail makes expected (X. Caruso, *Computations with p-adic numbers*,
arXiv:1701.06794, on fixed-precision p-adic sums). A nonzero residue fixes
the valuation exactly; a zero residue falls back to the exact sum, so no
valuation is ever capped at K.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import BudgetError, PoleError, PreconditionError
from .exact_numbers import Rational, is_prime, valuation
from .euler_barnes import BarnesParams, h_closed
from .qnum import FractionalArg, QBase, qbracket, qbracket_z

#: Default cap on evaluation points for any single Riemann sum.
DEFAULT_BUDGET = 250_000

#: p-adic digits `riemann_error_valuation` keeps above the error valuation
#: v p^N + N it expects; a valuation beyond them costs an exact fallback.
GUARD_DIGITS = 40


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
    if d < 1:
        raise PreconditionError("d must be >= 1", parameter="d")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
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


def _level_points(params: BarnesParams, u: AdmissibleU, N: int, budget: int) -> int:
    """Checks the inputs of an r-fold level-N sum; returns p^N, the points per axis."""
    if params.u != u.u:
        raise PreconditionError("params.u and the integrator's u differ", parameter="u")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
    points = u.p**N
    _check_budget(points**params.r, budget)
    return points


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
    points = _level_points(params, u, N, budget)
    if n == 0:
        # the integrand is 1, and sum_xs u^|xs| = [p^N : u]^r is the normaliser
        return Fraction(1)
    r = params.r
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


def riemann_error_valuation(
    n: int,
    w: int,
    params: BarnesParams,
    u: AdmissibleU,
    N: int,
    target: Rational,
    budget: int = DEFAULT_BUDGET,
) -> int | float:
    """nu_p(multi_riemann_integral(n, w, params, u, N) - target), exactly.

    When u is an integer with v = nu_p(u) >= 1, q an integer ≡ 1 (mod p) and
    the target p-integral, the level sum is taken mod p^K with
    K = v p^N + N + GUARD_DIGITS: its error starts at the u^(p^N) tail, so
    its valuation is about v p^N. A nonzero residue is the valuation; a zero
    residue, like every other input, takes the exact sum.
    """
    points = _level_points(params, u, N, budget)
    p, v = u.p, u.valuation
    q, uu, target = params.q.value, u.u, Fraction(target)
    if (
        v >= 1
        and uu.denominator == 1
        and q.denominator == 1
        and q != 1
        and (q - 1) % p == 0
        and valuation(target, p) >= 0
    ):
        K = v * points + N + GUARD_DIGITS
        residue = _level_residue(
            n, w, params.a, int(q), int(uu), p, v, points, K, target
        )
        if residue:
            return valuation(residue, p)
    return valuation(multi_riemann_integral(n, w, params, u, N, budget) - target, p)


def _level_residue(
    n: int,
    w: int,
    a: tuple[int, ...],
    q: int,
    u: int,
    p: int,
    v: int,
    points: int,
    K: int,
    target: Fraction,
) -> int:
    """(level sum - target) mod p^K, up to a p-adic unit factor.

    With e = nu_p(q - 1) and the unit c = (q - 1)/p^e, [x : q] = b(x)/c where
    b(x) = (q^x - 1)/p^e is p-integral. The level sum is
    c^-n T / [p^N : u]^r with T = sum_xs b(w + a.xs)^n u^|xs|, and dividing
    by the unit c^-n / [p^N : u]^r leaves T - target c^n [p^N : u]^r. A term
    carries u^|xs| = p^(v |xs|) (u / p^v)^|xs|, so b is needed only mod
    p^(K - v |xs|), and terms with v |xs| >= K vanish.
    """
    e = valuation(q - 1, p)
    pe = p**e
    mod = p**K
    s_max = min(len(a) * (points - 1), (K - 1) // v)
    moduli = _shrinking_moduli(p, v, K + e, s_max + 1)
    tables = [_axis_powers(q, aj, p, v, points, K + e) for aj in a]
    qw = pow(q, w, moduli[0])
    by_size = [0] * (s_max + 1)
    for xs in itertools.product(range(points), repeat=len(a)):
        s = sum(xs)
        if s > s_max:
            continue
        m = moduli[s]
        power = qw
        for table, x in zip(tables, xs):
            power = power * table[x] % m
        # b^n left unreduced: one reduction mod p^K at the end costs less
        # than one per term
        by_size[s] += ((power - 1) // pe) ** n
    total = 0
    for s in range(s_max, -1, -1):  # Horner in u: by_size[s] gets u^s
        total = total * u + by_size[s]
    norm = (1 - pow(u, points, mod)) * pow(1 - u, -1, mod) % mod
    c = (q - 1) // pe
    t = target.numerator * pow(target.denominator, -1, mod)
    return (total - t * pow(c, n, mod) * pow(norm, len(a), mod)) % mod


def _shrinking_moduli(p: int, v: int, digits: int, count: int) -> list[int]:
    """p^(digits - v s) for s < count: the digits a term carrying u^s needs."""
    pv = p**v
    moduli = [p**digits]
    for _ in range(count - 1):
        moduli.append(moduli[-1] // pv)
    return moduli


@functools.lru_cache(maxsize=8)
def _axis_powers(q: int, aj: int, p: int, v: int, points: int, digits: int) -> tuple[int, ...]:
    """q^(aj x) mod p^(digits - v x) for x < p^N; the (n, w) checks of one
    level share these. Each step multiplies by the small integer q^|aj|:
    upwards in x for aj > 0, downwards from q^(aj (p^N - 1)) for aj < 0."""
    moduli = _shrinking_moduli(p, v, digits, points)
    step = q ** abs(aj)
    if aj > 0:
        powers = [1]
        for m in moduli[1:]:
            powers.append(powers[-1] * step % m)
        return tuple(powers)
    # going down in x, the moduli grow: keep every digit until the entry
    power = pow(q, aj * (points - 1), moduli[0])
    powers = [0] * points
    for x in range(points - 1, -1, -1):
        powers[x] = power % moduli[x]
        power = power * step % moduli[0]
    return tuple(powers)


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
    the rank-1 `multi_riemann_integral(k, 0, ...)` with a = (a1,), divided by
    1 - u, so the difference is `riemann_error_valuation` against H_k less
    nu_p(1 - u). Exact, like that valuation; INFINITY when the level-N sum
    is already exact (k = 0). The budget is checked before any work.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
    _check_budget(u.p**N, budget)
    params = BarnesParams((a1,), u.u, QBase(q))
    error = riemann_error_valuation(k, 0, params, u, N, h_closed(k, 0, params), budget)
    return error - valuation(1 - u.u, u.p)

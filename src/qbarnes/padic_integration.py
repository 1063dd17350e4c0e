"""p-adic distributions mu_u, their Riemann sums, and the moment measures.

The base distribution assigns mu_u(x + m Z_p) = u^x / [m : u] to a cell of
modulus m; it is a measure (bounded) exactly when nu_p(u) != 0, which the
`AdmissibleU` wrapper enforces at construction. On top of it sit the k-th
moment measures E_k built from the closed-form H-values at fractional
arguments; the identity suites check their cell additivity, integrality,
and convergence to the closed forms.

Every value is exact: no convergence claim depends on rounding. One routine,
`riemann_integral`, sums a function against mu_u at a level: in exact
rationals for the eq. (8) bridge, and in p-adic numbers for the L-value
sums of `characters_lfunctions`, which hand it their embedding as `lift`.
The r-fold moment sums of [w + a.x : q]^n have one exact path,
`_level_sums`. It expands each q-bracket power binomially, so the r-fold
sum splits into one-axis sums of geometric terms, each an integer added
term by term by Horner and shared by every n, and returns each n's sum as
an unreduced pair of integers. `multi_riemann_integral` is that pair as a
`Fraction`; `riemann_error_valuations` reads nu_p(level sum - target) off
it for several moments n at once, with no gcd. Every valuation is exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from typing import Any, Callable, Sequence

from .errors import BudgetError, PoleError, PreconditionError
from .exact_numbers import Frozen, Rational, check_odd_prime, valuation
from .euler_barnes import BarnesParams, h_closed, refinement
from .qnum import QBase, qbracket_z

#: Default cap on evaluation points for any single Riemann sum.
DEFAULT_BUDGET = 250_000


def _check_budget(points: int, budget: int) -> None:
    if points > budget:
        raise BudgetError(
            f"{points} evaluation points exceed the budget of {budget}",
            parameter="budget",
        )


class AdmissibleU(Frozen):
    """A rational u with nu_p(u) != 0, the measure-existence condition; a
    frozen value, u stored as a Fraction.

    For rational u this is equivalent to |1 - u^f|_p >= 1 for every f >= 1;
    a p-adic unit u breaks the bound at f = p - 1 (Fermat), so construction
    rejects it. p is checked before u.
    """

    __slots__ = ("u", "p")

    def __init__(self, u: Rational, p: int):
        u = Fraction(u)
        check_odd_prime(p)
        if u == 0:
            raise PreconditionError("AdmissibleU rejects u = 0", parameter="u")
        if valuation(u, p) == 0:
            raise PreconditionError(
                f"AdmissibleU rejects nu_{p}(u) = 0: u = {u} is a "
                f"{p}-adic unit, so 1 - u^({p}-1) falls below 1 in "
                "p-adic absolute value and mu_u is unbounded",
                parameter="u",
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", p)

    @property
    def valuation(self) -> int:
        return int(valuation(self.u, self.p))


class MeasureCell(Frozen):
    """The coset x + (d f p^N) Z_p, a frozen value; f, d and N are checked
    in that order."""

    __slots__ = ("x", "f", "N", "d")

    def __init__(self, x: int, f: int = 1, N: int = 0, d: int = 1):
        if f < 1 or d < 1 or N < 0:
            flag = "f" if f < 1 else "d" if d < 1 else "level-N"
            raise PreconditionError("cell needs f >= 1, d >= 1, N >= 0", parameter=flag)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "d", d)

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
    *,
    lift: Callable[[Rational], Any] = Fraction,
):
    """Level-N Riemann sum of the integrand against mu_u over Z_p.

    sum_{x < d p^N} f(x) mu_u(x + d p^N Z_p), evaluated at the smallest
    nonnegative representatives. The sum runs in the integrand's scalars:
    `lift` embeds the weights u^x and the normaliser [d p^N : u] there
    (exact rationals by default). Each term is f(x) u^x, added to a running
    total, and the total is divided once by the normaliser.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1", parameter="d")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
    points = d * u.p**N
    _check_budget(points, budget)
    norm = qbracket_z(points, u.u)
    if norm == 0:
        raise PoleError("u^(d p^N) = 1", parameter="u")
    step = lift(u.u)
    upow = lift(1)
    total = lift(0)
    for x in range(points):
        if x:
            upow = upow * step
        total = total + integrand(x) * upow
    return total / lift(norm)


def _level_points(
    ns: Sequence[int], params: BarnesParams, u: AdmissibleU, N: int, budget: int
) -> int:
    """Checks the inputs of the r-fold level-N sums of the moments `ns`;
    returns p^N, the points per axis."""
    if params.u != u.u:
        raise PreconditionError("params.u and the integrator's u differ", parameter="u")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
    if any(n < 0 for n in ns):
        raise PreconditionError("n must be >= 0", parameter="n")
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
    u the integrator carries. Every input, and the budget, is checked
    first; n = 0 is 1 with no sum taken, and any other n is `_level_sums`'
    pair reduced to a `Fraction`.
    """
    _level_points((n,), params, u, N, budget)
    if n == 0:
        # the integrand is 1, and sum_xs u^|xs| = [p^N : u]^r is the normaliser
        return Fraction(1)
    return Fraction(*_level_sums((n,), w, params, u, N)[0])


def riemann_error_valuations(
    ns: Sequence[int],
    w: int,
    params: BarnesParams,
    u: AdmissibleU,
    N: int,
    targets: Sequence[Rational],
    budget: int = DEFAULT_BUDGET,
) -> list[int | float]:
    """nu_p(multi_riemann_integral(n, w, params, u, N) - target) for each n
    in `ns` and its target, exactly.

    Every n takes its level sum from one call of `_level_sums`, as an
    unreduced pair num/den; against the target C/D the valuation is
    nu_p(num D - C den) - nu_p(den) - nu_p(D), so no `Fraction` is built.
    Every input, and the budget, is checked before any work; `ns` and
    `targets` must have the same length.
    """
    if len(ns) != len(targets):
        raise PreconditionError(
            f"{len(ns)} moments but {len(targets)} targets", parameter="targets"
        )
    _level_points(ns, params, u, N, budget)
    p = u.p
    targets = [Fraction(t) for t in targets]
    return [
        valuation(num * t.denominator - t.numerator * den, p)
        - valuation(den, p)
        - valuation(t.denominator, p)
        for (num, den), t in zip(_level_sums(ns, w, params, u, N), targets)
    ]


def _level_sums(
    ns: Sequence[int], w: int, params: BarnesParams, u: AdmissibleU, N: int
) -> list[tuple[int, int]]:
    """The level-N sums of `multi_riemann_integral` for each n in `ns`, as
    unreduced pairs (numerator, denominator) of ints; (1, 1) at n = 0.

    Expanding [y : q]^n = (1-q)^-n sum_j C(n, j) (-1)^j q^(j y) splits the
    sum over the axes: term j of the r-fold sum is q^(j w) prod_i S(a_i j)
    over the normaliser S(0)^r = [p^N : u]^r, with the axis sum
    S(k) = sum_(x < p^N) (q^k u)^x. With q = s/t and u = c/d, S(k) is the
    integer `_axis_sum(A, B, p^N)` over B^(p^N - 1), for A = s^k c and
    B = t^k d when k >= 0, and A = t^|k| c and B = s^|k| d when k < 0; every
    n shares each k's sum. The d^(r (p^N - 1)) cancel against the
    normaliser, so term j lies over t^(j E_t) s^(j E_s), where
    E_t = (p^N - 1) sum_(a_i > 0) a_i + w and
    E_s = (p^N - 1) sum_(a_i < 0) |a_i| - w; a negative exponent moves its
    power to the numerator. Each n's terms then share one denominator, and
    no gcd is taken.

    At n >= 1 the domain in q is `h_closed`'s: q = 1, and q = 0 with w < 0
    or some a_i < 0, raise `PreconditionError` naming q before any sum.
    """
    top, a = max(ns, default=0), params.a
    if top == 0:
        return [(1, 1)] * len(ns)
    q = params.q.value
    if q == 1:
        raise PreconditionError("q = 1; use limit_q_to_1", parameter="q")
    s, t = q.numerator, q.denominator
    if s == 0 and (w < 0 or min(a) < 0):
        raise PreconditionError("0 cannot be raised to a negative power", parameter="q")
    c, d = u.u.numerator, u.u.denominator
    points = u.p**N
    sums = {}
    for k in {aj * j for aj in a for j in range(top + 1)}:
        up, down = (s, t) if k >= 0 else (t, s)
        sums[k] = _axis_sum(up ** abs(k) * c, down ** abs(k) * d, points)
    products = [prod(sums[aj * j] for aj in a) for j in range(top + 1)]
    e_t = (points - 1) * sum(aj for aj in a if aj > 0) + w
    e_s = (points - 1) * sum(-aj for aj in a if aj < 0) - w
    pairs = []
    for n in ns:
        if n == 0:
            pairs.append((1, 1))
            continue
        # the powers of t and s in the shared denominator
        t_den, s_den = n * max(e_t, 0), n * max(e_s, 0)
        total = sum(
            comb(n, j) * (-1) ** j * products[j] * t ** (t_den - j * e_t) * s ** (s_den - j * e_s)
            for j in range(n + 1)
        )
        pairs.append((t**n * total, (t - s) ** n * products[0] * t**t_den * s**s_den))
    return pairs


def _axis_sum(A: int, B: int, points: int) -> int:
    """sum_(x < points) A^x B^(points - 1 - x), added term by term by Horner
    with a running power of B: two small-integer multiplies per step, and
    no list of terms or powers."""
    total = power = 1
    for _ in range(points - 1):
        power *= B
        total = total * A + power
    return total


def _moment_sum(
    xs: Sequence[int], m: int, k: int, u: AdmissibleU, q: Rational, a1: int
) -> Rational:
    """sum over x in xs of E_k(x + m Z_p): one batch of the order-m
    `refinement` of H_k(0, u, q | a1), the terms i = (x,) with the
    coefficient 1/(1-u) each."""
    refined = refinement(k, 0, (a1,), u.u, q, m)
    weight = 1 / (1 - u.u)
    return refined([(weight, (x,)) for x in xs])


def measure_E_value(
    cell: MeasureCell,
    k: int,
    u: AdmissibleU,
    q: Rational,
    a1: int = 1,
) -> Rational:
    """The k-th moment measure of a cell of modulus m = f p^N (d must be 1):
    the term i = (x,) of the order-m `refinement` of H_k(0, u, q | a1) (see
    `euler_barnes`) over 1 - u, that is [m : q]^k u^x / (1 - u^m)
    * H_k(a1 x / m, u^m, q^m | a1).
    """
    if cell.d != 1:
        raise PreconditionError("moment-measure cells have modulus f p^N", parameter="d")
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    cell.check(u.p)
    return _moment_sum((cell.x,), cell.modulus(u.p), k, u, q, a1)


def measure_additivity_check(
    x: int,
    f: int,
    N: int,
    k: int,
    u: AdmissibleU,
    q: Rational,
    a1: int = 1,
) -> Rational:
    """sum_{i < p} E_k(x + i f p^N + f p^(N+1) Z_p) - E_k(x + f p^N Z_p).

    The coarse cell is checked and valued first (`measure_E_value`); the p
    fine cells, which then lie in range, are one batch of the order
    f p^(N+1) refinement.
    """
    coarse = measure_E_value(MeasureCell(x, f, N), k, u, q, a1)
    step = f * u.p**N
    fine = _moment_sum([x + i * step for i in range(u.p)], step * u.p, k, u, q, a1)
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
    1 - u, so the difference is `riemann_error_valuations` against H_k less
    nu_p(1 - u). Exact, like that valuation, which is read off the integer
    pair of `_level_sums`; INFINITY when the level-N sum is already exact
    (k = 0). The budget is checked before any work.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    params = BarnesParams((a1,), u.u, QBase(q))
    _level_points((k,), params, u, N, budget)
    error = riemann_error_valuations((k,), 0, params, u, N, (h_closed(k, 0, params),), budget)[0]
    return error - valuation(1 - u.u, u.p)

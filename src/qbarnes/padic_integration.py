"""p-adic distributions mu_u, their Riemann sums, and the moment measures.

The base distribution assigns mu_u(x + m Z_p) = u^x / [m : u] to a cell of
modulus m; it is a measure (bounded) exactly when nu_p(u) != 0, which the
`AdmissibleU` wrapper enforces at construction. On top of it sit the k-th
moment measures E_k built from the closed-form H-values at fractional
arguments; the identity suites check their cell additivity, integrality,
and convergence to the closed forms.

Every value is exact: no convergence claim depends on rounding. One routine,
`riemann_integral`, sums a function against mu_u at a level: in exact
rationals for the moment sums here and in the eq. (8) bridge, and in
p-adic numbers for the L-value sums of `characters_lfunctions`, which hand
it their embedding as `lift`. `multi_riemann_integral` is its r-fold
iterate. Every valuation taken of a rational sum is exact. The one
shortcut, `riemann_error_valuations`, finds nu_p(level sum - target) for
several moments n at once from the sums modulo p^K, with K a few dozen
digits above the error valuation the u-adic tail makes expected (X. Caruso,
*Computations with p-adic numbers*, arXiv:1701.06794, on fixed-precision
p-adic sums). It expands each q-bracket power binomially, so the r-fold
sum splits into one-axis sums of geometric terms, each added term by term
by Horner and shared by every n. A nonzero residue fixes that n's
valuation exactly; a zero residue sends that n alone to the exact sum, so
no valuation is ever capped at K.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Any, Callable, Sequence

from .errors import BudgetError, InternalError, PoleError, PreconditionError
from .exact_numbers import Frozen, Rational, check_odd_prime, valuation
from .euler_barnes import BarnesParams, h_closed, refinement
from .qnum import QBase, qbracket, qbracket_z

#: Default cap on evaluation points for any single Riemann sum.
DEFAULT_BUDGET = 250_000

#: p-adic digits `riemann_error_valuations` keeps above the error valuation
#: v p^N + N it expects; a valuation beyond them costs an exact fallback.
GUARD_DIGITS = 40


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
    u the integrator carries. It is the r-fold iterate of `riemann_integral`:
    the one-axis sum over x_1 of the (r-1)-fold sum at w + a_1 x_1.
    """
    _level_points((n,), params, u, N, budget)
    if n == 0:
        # the integrand is 1, and sum_xs u^|xs| = [p^N : u]^r is the normaliser
        return Fraction(1)
    qv = params.q.value
    bracket_pow: dict[int, Rational] = {}

    def level_sum(arg: int, axes: tuple[int, ...]) -> Rational:
        if not axes:
            if arg not in bracket_pow:
                bracket_pow[arg] = qbracket(arg, qv) ** n
            return bracket_pow[arg]
        aj, rest = axes[0], axes[1:]
        return riemann_integral(lambda x: level_sum(arg + aj * x, rest), u, 1, N, budget)

    return level_sum(w, params.a)


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

    When u is an integer with v = nu_p(u) >= 1 and q an integer ≡ 1
    (mod p), the level sums of every n >= 1 with a p-integral target are
    taken mod p^K with K = v p^N + N + GUARD_DIGITS, together from one set
    of axis sums: their error starts at the u^(p^N) tail, so its valuation
    is about v p^N. A nonzero residue is that n's valuation; a
    zero residue, like every other input, sends that n alone to the exact
    sum (1 at n = 0). Every input, and the budget, is checked before any
    work; `ns` and `targets` must have the same length.
    """
    if len(ns) != len(targets):
        raise PreconditionError(
            f"{len(ns)} moments but {len(targets)} targets", parameter="targets"
        )
    points = _level_points(ns, params, u, N, budget)
    p, v = u.p, u.valuation
    q, uu = params.q.value, u.u
    targets = [Fraction(t) for t in targets]
    residues = [0] * len(ns)
    if v >= 1 and uu.denominator == 1 and q.denominator == 1 and q != 1 and (q - 1) % p == 0:
        picked = [
            i for i, (n, t) in enumerate(zip(ns, targets)) if n >= 1 and valuation(t, p) >= 0
        ]
        if picked:
            K = v * points + N + GUARD_DIGITS
            found = _level_residues(
                [ns[i] for i in picked], w, params.a, int(q), int(uu), p, v, points, K,
                [targets[i] for i in picked],
            )
            for i, residue in zip(picked, found):
                residues[i] = residue
    return [
        valuation(residue, p)
        if residue
        else valuation(multi_riemann_integral(n, w, params, u, N, budget) - target, p)
        for n, target, residue in zip(ns, targets, residues)
    ]


def _level_residues(
    ns: Sequence[int],
    w: int,
    a: tuple[int, ...],
    q: int,
    u: int,
    p: int,
    v: int,
    points: int,
    K: int,
    targets: Sequence[Fraction],
) -> list[int]:
    """(level sum - target) mod p^K for each n >= 1 in `ns` and its target,
    up to a p-adic unit factor.

    With e = nu_p(q - 1) and the unit c = (q - 1)/p^e, [x : q] = b(x)/c where
    b(x) = (q^x - 1)/p^e is p-integral. The level sum is
    c^-n T_n / [p^N : u]^r with T_n = sum_xs b(w + a.xs)^n u^|xs|, and
    dividing by the unit c^-n / [p^N : u]^r leaves
    T_n - target c^n [p^N : u]^r.

    Expanding b^n binomially splits the sum over the axes:
    p^(e n) T_n = sum_j C(n, j) (-1)^(n-j) q^(w j) prod_i S(a_i j), where the
    axis sum S(k) = sum_(x < p^N) (q^k u)^x is added term by term mod
    p^(K + e max ns); every n and axis shares it, and S(0) = [p^N : u]. The
    division by p^(e n) is exact: a remainder raises `InternalError`.
    """
    e, top = valuation(q - 1, p), max(ns)
    mod, wide = p**K, p ** (K + e * top)
    exponents = {aj * j for aj in a for j in range(top + 1)}
    sums = {k: _axis_sum(k, q, u, points, wide) for k in exponents}
    # products[j] = q^(w j) prod_i S(a_i j)
    products, qw = [], pow(q, w, wide)
    for j in range(top + 1):
        product = pow(qw, j, wide)
        for aj in a:
            product = product * sums[aj * j] % wide
        products.append(product)
    c = (q - 1) // p**e
    scale = pow(sums[0], len(a), mod)
    residues = []
    for n, t in zip(ns, targets):
        shifted = sum(comb(n, j) * (-1) ** (n - j) * products[j] for j in range(n + 1))
        total, remainder = divmod(shifted % wide, p ** (e * n))
        if remainder:
            raise InternalError(f"the level sum of n = {n} is not divisible by p^(e n)")
        target = t.numerator * pow(t.denominator, -1, mod) * pow(c, n, mod) * scale
        residues.append((total - target) % mod)
    return residues


def _axis_sum(k: int, q: int, u: int, points: int, mod: int) -> int:
    """S(k) = sum_(x < points) (q^k u)^x mod `mod`, term by term by Horner:
    one small-integer multiply per step. For k < 0 it is summed reversed in
    the integer z = q^-k, as sum_x u^x z^(points - 1 - x) with a running u^x,
    and multiplied once by z^-(points - 1)."""
    z, total = q ** abs(k), 0
    if k >= 0:
        zu = z * u
        for _ in range(points):
            total = (total * zu + 1) % mod
        return total
    upow = 1
    for _ in range(points):
        total = (total * z + upow) % mod
        upow = upow * u % mod
    return total * pow(z, 1 - points, mod) % mod


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
    nu_p(1 - u). Exact, like that valuation; INFINITY when the level-N sum
    is already exact (k = 0). The budget is checked before any work.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    params = BarnesParams((a1,), u.u, QBase(q))
    _level_points((k,), params, u, N, budget)
    error = riemann_error_valuations((k,), 0, params, u, N, (h_closed(k, 0, params),), budget)[0]
    return error - valuation(1 - u.u, u.p)

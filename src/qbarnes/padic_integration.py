"""p-adic distributions mu_u, their Riemann sums, and the moment measures.

The base distribution assigns mu_u(x + m Z_p) = u^x / [m : u] to a cell of
modulus m; it is a measure (bounded) exactly when nu_p(u) != 0, which the
`AdmissibleU` wrapper enforces at construction. On top of it sit the k-th
moment measures E_k built from the closed-form H-values at fractional
arguments; the identity suites check their cell additivity, integrality,
and convergence to the closed forms.

Every value is exact: no convergence claim depends on rounding. One loop,
`riemann_sums`, sums functions against mu_u point by point, in the scalars
its `lift` names: several integrands and several levels in one pass, since
the weight u^x of a point is the same at every level. `riemann_integral` is
its one-integrand, one-level case, and the p-adic L-value sums of
`characters_lfunctions` hand it their embedding. The moment sums of
q-brackets have one exact integer kernel instead. It expands each
q-bracket power binomially, so a sum splits into one-axis sums of geometric
terms, each an integer added term by term by Horner (`_axis_sum`) and
shared by every moment and every argument w, and it returns each sum as an
unreduced pair of integers with the valuation of its denominator.
`_level_sums` serves the r-fold sums of [w + a.x : q]^n, and `_unit_sums`
the sums of chi(x) [a1 x : q]^k over the units of the eq. (8) bridge, split
into residue classes. `multi_riemann_integral` is a pair as a `Fraction`;
`riemann_error_runs` (over a run of w), `riemann_error_valuations` (its
one-w case) and `unit_error_valuations` read nu_p(level sum - target) off
the pairs for several moments at once, with no gcd, trying the power of p
that a sum past its u^(D p^N) tail is divisible by first. Every valuation
is exact. Nothing is cached: a run over an index shares what does not
depend on it within one call.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from typing import Any, Callable, Iterable, Iterator, Sequence

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
    nonnegative representatives, in the integrand's scalars: `lift` embeds
    the weights u^x and the normaliser [d p^N : u] there (exact rationals
    by default). The one-integrand, one-level case of `riemann_sums`.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1", parameter="d")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
    sums = riemann_sums(lambda x: ((0, integrand(x)),), 1, u, (d * u.p**N,), budget, lift=lift)
    return sums[0][0]


def riemann_sums(
    integrand: Callable[[int], Iterable], width: int, u: AdmissibleU, moduli: Sequence[int],
    budget: int = DEFAULT_BUDGET, *, lift: Callable[[Rational], Any] = Fraction,
) -> list[list]:
    """The Riemann sums against mu_u over Z_p of the `width` components of
    the integrand at each modulus m in `moduli`: for each m, the list of
    sum_{x < m} f_i(x) u^x / [m : u], one per component i.

    integrand(x) gives the pairs (i, f_i(x)) of the components i with a
    term at x; a component it leaves out adds nothing there. The weight u^x
    of x is the same at every modulus, so one pass over x < max(moduli)
    serves them all: each term f_i(x) u^x is added to its component's
    running total, and modulus m is read off at x = m - 1, each total
    divided once by `lift`([m : u]). The sums run in the integrand's
    scalars, which `lift` embeds the weights in. The largest modulus is
    checked against the budget, and every modulus for a pole, before any
    term.
    """
    _check_budget(max(moduli), budget)
    norms = {}
    for m in moduli:
        norm = qbracket_z(m, u.u)
        if norm == 0:
            raise PoleError("u^(d p^N) = 1", parameter="u")
        norms[m] = lift(norm)
    step = lift(u.u)
    upow = lift(1)
    totals = [lift(0)] * width
    sums = {}
    for x in range(max(moduli)):
        if x:
            upow = upow * step
        for i, f in integrand(x):
            totals[i] = totals[i] + f * upow
        if x + 1 in norms:
            sums[x + 1] = [t / norms[x + 1] for t in totals]
    return [sums[m] for m in moduli]


def _level_points(
    ns: Sequence[int], params: BarnesParams, u: AdmissibleU, N: int, budget: int
) -> None:
    """Checks the inputs of the r-fold level-N sums of the moments `ns`,
    and their p^(N r) points against the budget."""
    if params.u != u.u:
        raise PreconditionError("params.u and the integrator's u differ", parameter="u")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
    if any(n < 0 for n in ns):
        raise PreconditionError("n must be >= 0", parameter="n")
    _check_budget(u.p ** (N * params.r), budget)


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
    first; the sum is `_level_sums`' pair reduced to a `Fraction`, 1 with no
    sum taken at n = 0.
    """
    _level_points((n,), params, u, N, budget)
    return Fraction(*_level_sums((n,), (w,), params, u, N)[0][0][:2])


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
    in `ns` and its target, exactly: the one-w case of
    `riemann_error_runs`. `ns` and `targets` must have the same length.
    """
    return riemann_error_runs(ns, (w,), params, u, N, (targets,), budget)[0]


def riemann_error_runs(
    ns: Sequence[int], ws: Sequence[int], params: BarnesParams, u: AdmissibleU, N: int,
    targets: Sequence[Sequence[Rational]], budget: int = DEFAULT_BUDGET,
) -> list[list[int | float]]:
    """`riemann_error_valuations` at each w in `ws`, against that w's list
    of targets in `targets`, one per n: a list of valuations per w.

    One call of `_level_sums` gives every (n, w) its level sum, as an
    unreduced pair num/den; against the target C/D the valuation is
    nu_p(num D - C den) - nu_p(den) - nu_p(D) (`_error_valuations`), so no
    `Fraction` is built. Every input, and the budget, is checked before any
    work.
    """
    lengths = [len(ts) for ts in targets]
    if lengths != [len(ns)] * len(ws):
        raise PreconditionError(
            f"{len(ns)} moments at {len(ws)} arguments but targets of lengths {lengths}",
            parameter="targets",
        )
    _level_points(ns, params, u, N, budget)
    floor = u.valuation * u.p**N
    return [
        _error_valuations(sums, ts, u.p, floor)
        for sums, ts in zip(_level_sums(ns, ws, params, u, N), targets)
    ]


def unit_error_valuations(
    ks: Sequence[int], chi: Callable[[int], int], a1: int, u: AdmissibleU, q: Rational,
    D: int, N: int, targets: Sequence[Rational], budget: int = DEFAULT_BUDGET,
) -> list[int | float]:
    """nu_p(unit sum - target) for each k in `ks` and its target, exactly.

    The unit sum is the level-N Riemann sum of chi(x) [a1 x : q]^k against
    mu_u over the units x < D p^N, sum_(p ∤ x) chi(x) [a1 x : q]^k u^x over
    [D p^N : u]; it tends to a unit moment of the eq. (8) bridge. chi is an
    int-valued character whose modulus divides D p, and `targets` holds
    one target per k. The sums are the pairs of `_unit_sums`, read as
    `riemann_error_runs` reads its own. N >= 1, a1 >= 1, q != 1 and
    the D p^N points are checked before any work.
    """
    if N < 1 or a1 < 1 or q == 1:
        flag = "N" if N < 1 else "a" if a1 < 1 else "q"
        raise PreconditionError("unit sums need N >= 1, a1 >= 1 and q != 1", parameter=flag)
    _check_budget(D * u.p**N, budget)
    floor = u.valuation * D * u.p**N
    return _error_valuations(_unit_sums(ks, chi, a1, u, q, D, N), targets, u.p, floor)


def _error_valuations(sums, targets: Sequence[Rational], p: int, floor: int) -> list[int | float]:
    """nu_p(num/den - C/D) for each (num, den, nu_p(den)) of `sums` and
    target C/D: nu_p(num D - C den) - nu_p(den) - nu_p(D), with no
    `Fraction` of the sum built.

    `floor` is v D p^N for nu_p(u) = v and D p^N points per axis: the
    u^(D p^N) tail puts the error of a sum that loses no term past it. So
    `_valuation_past` divides num D - C den by p^floor first and climbs
    only through the quotient's valuation; it climbs in full where p^floor
    does not divide, so the valuation is exact either way.
    """
    return [
        _valuation_past(num * t.denominator - t.numerator * den, p, floor) - v_den
        - valuation(t.denominator, p)
        for (num, den, v_den), t in zip(sums, map(Fraction, targets))
    ]


def _valuation_past(x: int, p: int, floor: int) -> int | float:
    """nu_p(x), exactly: floor plus the valuation of x / p^floor where
    floor >= 1 and p^floor divides x, and `valuation`'s full climb
    otherwise (INFINITY at x = 0)."""
    if floor > 0 and x:
        quotient, rem = divmod(x, p**floor)
        if not rem:
            return floor + valuation(quotient, p)
    return valuation(x, p)


def _level_sums(
    ns: Sequence[int], ws: Sequence[int], params: BarnesParams, u: AdmissibleU, N: int
) -> list[list[tuple[int, int, int]]]:
    """The level-N sums of `multi_riemann_integral` for each w in `ws` and
    each n in `ns`, one list per w, as unreduced pairs of ints, each with
    its denominator's valuation at p: (numerator, denominator,
    nu_p(denominator)); (1, 1, 0) when every n is 0.

    Expanding [y : q]^n = (1-q)^-n sum_j C(n, j) (-1)^j q^(j y) splits the
    sum over the axes: term j of the r-fold sum is q^(j w) prod_i S(a_i j)
    over the normaliser S(0)^r = [p^N : u]^r, with the axis sum
    S(k) = sum_(x < p^N) (q^k u)^x. With q = s/t and u = c/d, S(k) is the
    integer `_axis_sum(A, B, p^N)` over B^(p^N - 1), for A = s^k c and
    B = t^k d when k >= 0, and A = t^|k| c and B = s^|k| d when k < 0. Only
    q^(j w) depends on w: the axis sums and their products are built once,
    shared by every n and w. The d^(r (p^N - 1)) cancel against the
    normaliser, and `_binomial_pairs` adds each w's terms over one
    denominator.

    At n >= 1 the domain in q is `h_closed`'s: q = 1, and q = 0 with some
    w < 0 or some a_i < 0, raise `PreconditionError` naming q before any sum.
    """
    top, a = max(ns, default=0), params.a
    if top == 0:
        return [[(1, 1, 0)] * len(ns) for _ in ws]
    q = params.q.value
    if q == 1:
        raise PreconditionError("q = 1; use limit_q_to_1", parameter="q")
    s, t = q.numerator, q.denominator
    if s == 0 and (min(ws) < 0 or min(a) < 0):
        raise PreconditionError("0 cannot be raised to a negative power", parameter="q")
    c, d = u.u.numerator, u.u.denominator
    points = u.p**N
    sums = {}
    for k in {aj * j for aj in a for j in range(top + 1)}:
        up, down = (s, t) if k >= 0 else (t, s)
        sums[k] = _axis_sum(up ** abs(k) * c, down ** abs(k) * d, points)
    products = [prod(sums[aj * j] for aj in a) for j in range(top + 1)]
    e_t = (points - 1) * sum(aj for aj in a if aj > 0)
    e_s = (points - 1) * sum(-aj for aj in a if aj < 0)
    return [
        [*_binomial_pairs(ns, products, products[0], s, t, e_t + w, e_s - w, u.p)] for w in ws
    ]


def _unit_sums(
    ks: Sequence[int], chi: Callable, a1: int, u: AdmissibleU, q: Rational, D: int, N: int
) -> list[tuple[int, int, int]]:
    """The unit sums of `unit_error_valuations` for each k in `ks`, as
    `_level_sums` gives its own: (numerator, denominator, nu_p(denominator)).

    The binomial split of `_level_sums` makes term j the sum of
    chi(x) (q^(j a1) u)^x over the units x < D p^N: with q = s/t, u = c/d,
    A = s^(j a1) c and B = t^(j a1) d, it is sum_x chi(x) A^x B^(D p^N-1-x)
    over B^(D p^N - 1). Write x = x0 + D p y with x0 < D p and y < p^(N-1):
    chi(x), and whether p divides x, depend on x0 alone, so that integer is
    the class sum over x0 < D p with p ∤ x0 of chi(x0) A^x0 B^(D p - 1 - x0)
    times `_axis_sum(A^(D p), B^(D p), p^(N-1))`. The normaliser
    [D p^N : u] is `_axis_sum(c, d, D p^N)` over d^(D p^N - 1), so the
    powers of d cancel. Every term of every class sum and axis sum is
    added, one by one. The caller checks a1 >= 1 and N >= 1.
    """
    p, (s, t), (c, d) = u.p, (q.numerator, q.denominator), (u.u.numerator, u.u.denominator)
    period, points = D * p, D * p**N
    terms = []
    for j in range(max(ks, default=0) + 1):
        A, B = s ** (j * a1) * c, t ** (j * a1) * d
        classes = sum(chi(x0) * A**x0 * B ** (period - 1 - x0) for x0 in range(period) if x0 % p)
        terms.append(classes * _axis_sum(A**period, B**period, p ** (N - 1)))
    return [*_binomial_pairs(ks, terms, _axis_sum(c, d, points), s, t, (points - 1) * a1, 0, p)]


def _binomial_pairs(
    ns: Sequence[int], terms: Sequence[int], norm: int, s: int, t: int, e_t: int, e_s: int, p: int
) -> Iterator[tuple[int, int, int]]:
    """(1-q)^-n sum_j C(n, j) (-1)^j terms[j] / (t^(j e_t) s^(j e_s) norm)
    for each n in `ns`, with q = s/t, as (numerator, denominator,
    nu_p(denominator)); a negative exponent moves its power to the
    numerator.

    Each n's terms share the denominator (t - s)^n norm t^(n e_t) s^(n e_s),
    each exponent at least 0, so no gcd is taken. Its valuation is the sum
    of its factors', with nu_p(norm) taken once.
    """
    # q = 0 puts no power of s in a denominator, so its valuation is not read
    v_norm, v_t, v_ts, v_s = (valuation(x, p) if x else 0 for x in (norm, t, t - s, s))
    for n in ns:
        # the powers of t and s in the shared denominator
        t_den, s_den = n * max(e_t, 0), n * max(e_s, 0)
        total = sum(
            comb(n, j) * (-1) ** j * terms[j] * t ** (t_den - j * e_t) * s ** (s_den - j * e_s)
            for j in range(n + 1)
        )
        den = (t - s) ** n * norm * t**t_den * s**s_den
        yield t**n * total, den, n * v_ts + v_norm + t_den * v_t + s_den * v_s


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

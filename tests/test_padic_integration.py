import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import qbarnes.padic_integration as pi
from qbarnes import (
    INFINITY,
    AdmissibleU,
    BarnesParams,
    BudgetError,
    InternalError,
    MeasureCell,
    PadicContext,
    PadicNumber,
    PreconditionError,
    QBase,
    h_closed,
    measure_E_value,
    measure_additivity_check,
    measure_bound_check,
    mu_value,
    multi_riemann_integral,
    prop5_check,
    qbracket,
    qbracket_z,
    riemann_error_valuations,
    riemann_integral,
    to_padic,
    valuation,
)


def test_admissible_u_rejects_unit():
    with pytest.raises(PreconditionError):
        AdmissibleU(F(2), 5)
    # the obstruction is concrete: for a p-adic unit u the normalizer
    # [ (p-1) p^N : u ] picks up ever more powers of p (Fermat), so cell
    # values stop being p-integral
    vals = [valuation(1 / qbracket_z(4 * 5**N, F(2)), 5) for N in range(3)]
    assert vals[0] < 0 and vals[1] < vals[0] and vals[2] < vals[1]


def test_admissible_u_accepts_both_signs_of_valuation():
    assert AdmissibleU(F(3), 3).valuation == 1
    assert AdmissibleU(F(2, 3), 3).valuation == -1
    with pytest.raises(PreconditionError):
        AdmissibleU(F(0), 3)
    with pytest.raises(PreconditionError):
        AdmissibleU(F(3), 4)


def test_mu_value():
    uu = AdmissibleU(F(3), 3)
    # u^x / [3 : u] at x=1: 3/13
    assert mu_value(MeasureCell(1, 1, 1), uu) == F(3, 13)
    assert mu_value(MeasureCell(0, 1, 0), uu) == 1


def test_mu_total_mass_is_one():
    uu = AdmissibleU(F(3), 3)
    for N in (1, 2):
        total = sum(mu_value(MeasureCell(x, 1, N), uu) for x in range(3**N))
        assert total == 1


def test_cell_validation():
    with pytest.raises(PreconditionError):
        MeasureCell(5, 1, 1).check(3)  # x out of range
    with pytest.raises(PreconditionError):
        MeasureCell(0, 0, 1).check(3)
    MeasureCell(2, 1, 1).check(3)


def test_riemann_integral_constant_is_exact():
    uu = AdmissibleU(F(3), 3)
    for N in (0, 1, 2):
        assert riemann_integral(lambda x: F(1), uu, 1, N) == 1


def test_multi_riemann_error_valuations():
    # frozen: p=3, u=3, q=4, n=1 -> error valuations 4, 11 at N=1, 2
    uu = AdmissibleU(F(3), 3)
    params = BarnesParams((1,), F(3), QBase(F(4)))
    target = h_closed(1, 0, params)
    d1 = multi_riemann_integral(1, 0, params, uu, 1) - target
    d2 = multi_riemann_integral(1, 0, params, uu, 2) - target
    assert valuation(d1, 3) == 4
    assert valuation(d2, 3) == 11


def test_multi_riemann_zero_moment_equals_the_general_loop():
    # n = 0 returns without summing; the sum it skips is still exactly 1
    for p, a, v in ((3, (1,), 1), (3, (2, -1), 2), (5, (-2,), 1)):
        uu = AdmissibleU(F(p) ** v * 2, p)
        params = BarnesParams(a, uu.u, QBase(F(1 + p)))
        for N in (0, 1, 2):
            points = p**N
            loop = sum(
                qbracket(1 + sum(aj * x for aj, x in zip(a, xs)), F(1 + p)) ** 0 * uu.u ** sum(xs)
                for xs in itertools.product(range(points), repeat=len(a))
            ) / qbracket_z(points, uu.u) ** len(a)
            value = multi_riemann_integral(0, 1, params, uu, N)
            assert value == loop == 1 and type(value) is F


def _multi_riemann_reference(n, w, params, u, N, budget=pi.DEFAULT_BUDGET):
    """The r-fold product loop multi_riemann_integral ran before it became an
    iterate of riemann_integral: one u-power table, one normaliser."""
    if params.u != u.u:
        raise PreconditionError("params.u and the integrator's u differ", parameter="u")
    if N < 0:
        raise PreconditionError("N must be >= 0", parameter="N")
    points = u.p**N
    if points**params.r > budget:
        raise BudgetError(
            f"{points**params.r} evaluation points exceed the budget of {budget}",
            parameter="budget",
        )
    if n == 0:
        return F(1)
    u_powers = [u.u**s for s in range(params.r * (points - 1) + 1)]
    total = F(0)
    for xs in itertools.product(range(points), repeat=params.r):
        arg = w + sum(aj * xj for aj, xj in zip(params.a, xs))
        total += qbracket(arg, params.q.value) ** n * u_powers[sum(xs)]
    return total / qbracket_z(points, u.u) ** params.r


def _outcome(call):
    """A value with its type, or an error as (type, parameter, message)."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, getattr(exc, "parameter", None), str(exc)
    return type(value).__name__, value


def test_multi_riemann_matches_the_loop_it_replaced():
    # 200 seeded draws: r in 1..3 with mixed-sign a, v = nu_p(u) in {-1, 1, 2}
    # with either sign of u, integer and rational q (q ≡ 1 mod p or not, and
    # negative), n in 0..4, w in -2..2; plus budget, level and u errors
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        p = rng.choice((3, 5))
        r = rng.randint(1, 3)
        a = tuple(rng.choice((1, 2, -1, -2, 3)) for _ in range(r))
        u = F(p) ** rng.choice((-1, 1, 2)) * rng.choice((1, -1, 2, F(1, 2)))
        uu = AdmissibleU(u, p)
        q = rng.choice((F(1 + p), F(1 - p), F(2), F(3, 2), F(-2, 3), F(1 + p, 1 + 2 * p)))
        params = BarnesParams(a, u, QBase(q))
        n, w = rng.randint(0, 4), rng.randint(-2, 2)
        N = rng.randint(0, {1: 4, 2: 2, 3: 2}[r] if p == 3 else {1: 3, 2: 2, 3: 1}[r])
        budget = rng.choice((pi.DEFAULT_BUDGET, 30))
        error = rng.random()
        if error < 0.05:
            N = -1
        elif error < 0.1:
            params = BarnesParams(a, u * p * p, QBase(q))  # the integrator's u differs
        expected = _outcome(lambda: _multi_riemann_reference(n, w, params, uu, N, budget))
        got = _outcome(lambda: multi_riemann_integral(n, w, params, uu, N, budget))
        assert got == expected, (p, a, u, q, n, w, N, budget)
        seen.add(expected[1] if expected[0].endswith("Error") else f"r{r}")
    assert seen == {"r1", "r2", "r3", "N", "u", "budget"}


def test_riemann_integral_lift_runs_the_sum_in_padic_scalars():
    # lifting every scalar of a rational level sum into Q_p gives the p-adic
    # image of the rational sum, to every digit the context tracks
    ctx = PadicContext(5, 10)

    def lift(x):
        return to_padic(x, ctx)

    for u in (F(5), F(2, 25), F(-25, 3)):
        uu = AdmissibleU(u, 5)
        for d, N, k in ((1, 0, 1), (1, 2, 2), (3, 1, 3), (2, 2, 0)):
            def integrand(x):
                return qbracket(x + 1, F(6)) ** k

            rational = riemann_integral(integrand, uu, d, N)
            padic = riemann_integral(lambda x: lift(integrand(x)), uu, d, N, lift=lift)
            assert type(padic) is PadicNumber and padic == lift(rational)
            assert padic.digits == ctx.precision


def _counting_fallbacks(monkeypatch):
    """Patches the exact sum riemann_error_valuations falls back to; returns
    the list each fallback call appends its (n, w) to."""
    calls = []
    exact = pi.multi_riemann_integral

    def counted(n, w, *args, **kwargs):
        calls.append((n, w))
        return exact(n, w, *args, **kwargs)

    monkeypatch.setattr(pi, "multi_riemann_integral", counted)
    return calls


def test_riemann_error_valuation_matches_exact_path(monkeypatch):
    # every level N <= 2 of p in {3,5,7}, r in {1,2}, a_j = ±1, ±2 with mixed
    # signs, v in {1,2}, q = 1 + p {1,2,3}, n <= 3, w in {0,1}; the last two
    # cases add a negative q and a negative u
    exact = multi_riemann_integral
    fallbacks = _counting_fallbacks(monkeypatch)
    a_rows = [(1,), (2,), (-1,), (-2,), (1, -2), (-1, 2), (2, 1), (-2, -1)]
    cases = [
        (p, a, v, 1 + p * (1 + i % 3), 2)
        for p in (3, 5, 7)
        for i, a in enumerate(a_rows)
        for v in (1, 2)
    ]
    cases += [(3, (1, -2), 1, 1 - 2 * 3, 2), (5, (-1,), 2, 6, -1)]
    ns, grid = range(4), {}
    for p, a, v, q, c in cases:
        uu = AdmissibleU(F(p) ** v * c, p)
        params = BarnesParams(a, uu.u, QBase(F(q)))
        for n, w, N in itertools.product(ns, (0, 1), (0, 1, 2)):
            target = h_closed(n, w, params)
            expected = valuation(exact(n, w, params, uu, N) - target, p)
            grid[p, a, v, q, c, n, w, N] = target, expected
            assert riemann_error_valuations((n,), w, params, uu, N, (target,))[0] == expected, (
                p, a, v, q, n, w, N,
            )
    # only n = 0 reached the exact sum, which returns 1 there without
    # summing: every other valuation above was decided mod p^K
    assert len(fallbacks) == len(cases) * 2 * 3 and all(n == 0 for n, _ in fallbacks)

    # the many-n form: one call per (case, w, N) gives every n's valuation,
    # the same as the single-n calls and the exact path, and again only
    # n = 0 reaches the exact sum
    fallbacks.clear()
    for p, a, v, q, c in cases:
        uu = AdmissibleU(F(p) ** v * c, p)
        params = BarnesParams(a, uu.u, QBase(F(q)))
        for w, N in itertools.product((0, 1), (0, 1, 2)):
            targets, expected = zip(*(grid[p, a, v, q, c, n, w, N] for n in ns))
            assert riemann_error_valuations(ns, w, params, uu, N, targets) == list(expected), (
                p, a, v, q, w, N,
            )
    assert len(fallbacks) == len(cases) * 2 * 3 and all(n == 0 for n, _ in fallbacks)


def test_riemann_error_valuation_skips_the_modular_sum_at_n_zero(monkeypatch):
    # n = 0 makes the level sum exactly 1, so no residue mod p^K is summed
    residues, moments = pi._level_residues, []

    def no_zero_moment(ns, *args):
        if 0 in ns:
            raise AssertionError("summed mod p^K at n = 0")
        moments.extend(ns)
        return residues(ns, *args)

    monkeypatch.setattr(pi, "_level_residues", no_zero_moment)
    for p, a, q in ((3, (1,), 4), (5, (1, -2), 11), (7, (-1, 2), 8)):
        uu = AdmissibleU(F(p), p)
        params = BarnesParams(a, uu.u, QBase(F(q)))
        for w, N in itertools.product((0, 1, -2), (0, 1, 2)):
            assert riemann_error_valuations((0,), w, params, uu, N, (F(1),))[0] == INFINITY
        assert prop5_check(0, uu, F(q), a[0], 2) == INFINITY
    # n >= 1 still takes the modular path
    target = h_closed(1, 0, params)
    expected = valuation(multi_riemann_integral(1, 0, params, uu, 1) - target, uu.p)
    assert riemann_error_valuations((1,), 0, params, uu, 1, (target,))[0] == expected
    assert moments == [1]


def test_riemann_error_valuations_send_only_a_zero_residue_to_the_exact_sum(monkeypatch):
    # a zero residue at n = 2 alone: n = 2 (and n = 0, which never sums mod
    # p^K) reach the exact sum, n = 1 and n = 3 keep their residues; the
    # valuations come back in the order of ns, whatever that order is
    residues = pi._level_residues

    def zero_at_two(ns, *args):
        return [0 if n == 2 else r for n, r in zip(ns, residues(ns, *args))]

    monkeypatch.setattr(pi, "_level_residues", zero_at_two)
    fallbacks = _counting_fallbacks(monkeypatch)
    uu = AdmissibleU(F(5), 5)
    params = BarnesParams((1, -2), uu.u, QBase(F(11)))
    for ns in ((0, 1, 2, 3), (3, 2, 1, 0)):
        fallbacks.clear()
        for w, N in itertools.product((0, 1), (1, 2)):
            targets = [h_closed(n, w, params) for n in ns]
            expected = [
                valuation(multi_riemann_integral(n, w, params, uu, N) - t, 5)
                for n, t in zip(ns, targets)
            ]
            assert riemann_error_valuations(ns, w, params, uu, N, targets) == expected
        assert fallbacks == [(n, w) for w in (0, 1) for _ in (1, 2) for n in ns if n in (0, 2)]


def _level_residues_per_point(ns, w, a, q, u, p, v, points, K, targets):
    """`_level_residues` from its definition: T_n = sum_xs b(w + a.xs)^n
    u^|xs| mod p^K point by point, less target c^n [p^N : u]^r."""
    e = valuation(q - 1, p)
    mod, pe = p**K, p**e
    sums = [0] * len(ns)
    for xs in itertools.product(range(points), repeat=len(a)):
        y = w + sum(aj * x for aj, x in zip(a, xs))
        b = (pow(q, y, mod * pe) - 1) // pe
        weight = pow(u, sum(xs), mod)
        for i, n in enumerate(ns):
            sums[i] += pow(b, n, mod) * weight
    norm = sum(pow(u, x, mod) for x in range(points))
    c = (q - 1) // pe
    return [
        (total - t.numerator * pow(t.denominator, -1, mod) * c**n * norm ** len(a)) % mod
        for total, n, t in zip(sums, ns, targets)
    ]


def test_level_residues_match_the_sum_point_by_point():
    # r = 3 at N = 3, w < 0, |a_j| = 3, e = 2 (q = 1 + p^2), negative q and
    # u, n up to 5, and ns unsorted with a repeat; then seeded draws
    cases = [
        (3, 1, 3, (3, -1, 2), -2, 10, -1, (5, 2, 5, 1)),
        (3, 2, 2, (-3, -2, 1), -4, -8, 2, (4, 1, 3)),
        (5, 1, 2, (-3, 3), 3, -4, -2, (1, 5, 2, 2)),
        (7, 2, 2, (2,), -1, 50, 3, (3, 1)),
    ]
    rng = random.Random(26)
    while len(cases) < 40:
        p, r = rng.choice((3, 5, 7)), rng.randint(1, 3)
        N = rng.randint(0, 3 if r == 1 else 2 if p == 3 else 1)
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r))
        q = rng.choice((1 + p, 1 - p, 1 + p * p, 1 - p * p))
        c = rng.choice([x for x in (-2, -1, 1, 2, 3) if x % p])
        ns = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
        cases.append((p, rng.randint(1, 3), N, a, rng.randint(-4, 4), q, c, ns))
    for p, v, N, a, w, q, c, ns in cases:
        points = p**N
        K = v * points + N + pi.GUARD_DIGITS
        denominators = [d for d in (1, 2, 4, 7, 11) if d % p]
        targets = [F(rng.randint(-99, 99), rng.choice(denominators)) for _ in ns]
        args = (list(ns), w, a, q, p**v * c, p, v, points, K, targets)
        assert pi._level_residues(*args) == _level_residues_per_point(*args), (p, v, N, a, w, q, c)


def test_level_residues_raise_on_an_inexact_division(monkeypatch):
    # C(n, 1) one too large adds q^w prod_i S(a_i), a p-adic unit, to
    # p^(e n) T_n: the remainder is an error, never floored away
    monkeypatch.setattr(pi, "comb", lambda n, j: math.comb(n, j) + (j == 1))
    with pytest.raises(InternalError):
        pi._level_residues([2], 1, (1, -2), 10, 3, 3, 1, 9, 9 + 2 + 3, [F(1)])


def test_riemann_error_valuations_keep_no_term_of_the_level_sum():
    # each axis sum is a Horner sum kept on the fly: no list of the 2,401
    # terms, nor of the powers u^x or q^x, lives through it. A table of the
    # 2,401 powers u^x mod p^K alone peaks near 2.7 MB here; the whole call
    # near 0.05 MB.
    uu = AdmissibleU(F(7) ** 2 * 3, 7)
    params = BarnesParams((1,), uu.u, QBase(F(15)))
    ns, N = range(4), 4
    targets = [h_closed(n, 1, params) for n in ns]
    expected = riemann_error_valuations(ns, 1, params, uu, N, targets)
    tracemalloc.start()
    try:
        assert riemann_error_valuations(ns, 1, params, uu, N, targets) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000, peak


def test_riemann_error_valuation_falls_back_outside_its_domain(monkeypatch):
    exact = multi_riemann_integral
    fallbacks = _counting_fallbacks(monkeypatch)
    cases = [
        (AdmissibleU(F(2, 3), 3), F(4), 0),  # nu_p(u) < 0
        (AdmissibleU(F(9, 2), 3), F(4), 0),  # u not an integer
        (AdmissibleU(F(3), 3), F(7, 4), 0),  # rational q
        (AdmissibleU(F(5), 5), F(3), 0),  # q not ≡ 1 mod p
        (AdmissibleU(F(3), 3), F(4), F(1, 3)),  # target of negative valuation
    ]
    for uu, q, shift in cases:
        params = BarnesParams((1, -2), uu.u, QBase(q))
        for N in (1, 2):
            target = h_closed(2, 1, params) + shift
            expected = valuation(exact(2, 1, params, uu, N) - target, uu.p)
            assert riemann_error_valuations((2,), 1, params, uu, N, (target,))[0] == expected
    assert fallbacks == [(2, 1)] * (2 * len(cases))


def test_riemann_error_valuation_checks_budget_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("summed before the budget check")

    monkeypatch.setattr(pi, "_level_residues", no_work)
    monkeypatch.setattr(pi, "multi_riemann_integral", no_work)
    uu = AdmissibleU(F(3), 3)
    params = BarnesParams((1, 2), F(3), QBase(F(4)))
    with pytest.raises(BudgetError):
        riemann_error_valuations((1,), 0, params, uu, 4, (h_closed(1, 0, params),), budget=100)
    with pytest.raises(PreconditionError):
        riemann_error_valuations((1,), 0, BarnesParams((1,), F(6), QBase(F(4))), uu, 1, (F(0),))


def test_level_sums_name_the_argument_out_of_range(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("summed before the inputs were checked")

    monkeypatch.setattr(pi, "_level_residues", no_work)
    monkeypatch.setattr(pi, "multi_riemann_integral", no_work)
    uu = AdmissibleU(F(3), 3)
    params = BarnesParams((1,), uu.u, QBase(F(4)))
    h1 = h_closed(1, 0, params)
    for call, parameter in (
        (lambda: riemann_integral(lambda x: F(1), uu, 1, -1), "N"),
        (lambda: riemann_integral(lambda x: F(1), uu, 0, 1), "d"),
        (lambda: prop5_check(1, uu, F(4), 1, -1), "N"),
        (lambda: prop5_check(-1, uu, F(4), 1, 1), "k"),
        # a negative moment: [0 : q]^n = 0^n has no value
        (lambda: multi_riemann_integral(-1, 0, params, uu, 2), "n"),
        (lambda: riemann_error_valuations((-1,), 0, params, uu, 2, (F(0),)), "n"),
        (lambda: riemann_error_valuations((1, -1), 0, params, uu, 2, (h1, F(0))), "n"),
        # one target per moment: neither list is cut to the other's length
        (lambda: riemann_error_valuations((1, 2), 0, params, uu, 2, (h1,)), "targets"),
        (lambda: riemann_error_valuations((1,), 0, params, uu, 2, (h1, h1)), "targets"),
    ):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert exc.value.parameter == parameter


def test_multi_riemann_budget():
    uu = AdmissibleU(F(3), 3)
    params = BarnesParams((1, 2), F(3), QBase(F(4)))
    with pytest.raises(BudgetError):
        multi_riemann_integral(1, 0, params, uu, 4, budget=100)


def test_multi_riemann_u_mismatch():
    uu = AdmissibleU(F(3), 3)
    params = BarnesParams((1,), F(6), QBase(F(4)))
    with pytest.raises(PreconditionError):
        multi_riemann_integral(1, 0, params, uu, 1)


def test_measure_additivity():
    uu = AdmissibleU(F(3), 3)
    for k in (0, 1, 3):
        for f in (1, 2):
            for x in (0, 1):
                assert measure_additivity_check(x, f, 1, k, uu, F(4), 1) == 0
    # rational u and q exercise the non-integer path
    uu2 = AdmissibleU(F(3, 2), 3)
    assert measure_additivity_check(1, 1, 1, 2, uu2, F(10, 7), 2) == 0


def test_measure_zero_moment_matches_mu():
    uu = AdmissibleU(F(3), 3)
    u = uu.u
    for x in (0, 2, 4):
        cell = MeasureCell(x, 1, 2)
        assert measure_E_value(cell, 0, uu, F(4)) == mu_value(cell, uu) / (1 - u)


def test_measure_bound():
    uu = AdmissibleU(F(3), 3)
    for k in (0, 1, 2, 4):
        for x in (0, 1, 2):
            assert measure_bound_check(MeasureCell(x, 1, 1), k, uu, F(4))


def test_measure_E_rejects_progression_step():
    uu = AdmissibleU(F(3), 3)
    with pytest.raises(PreconditionError):
        measure_E_value(MeasureCell(0, 1, 1, d=2), 1, uu, F(4))


def test_prop5_valuations(monkeypatch):
    uu = AdmissibleU(F(3), 3)
    assert prop5_check(1, uu, F(4), 1, 1) == 4
    assert prop5_check(1, uu, F(4), 1, 2) == 11
    assert prop5_check(0, uu, F(4), 1, 1) == INFINITY
    assert prop5_check(0, uu, F(4), 1, 3) == INFINITY

    # differential grid against the principal-term sum of Prop. 5 taken
    # directly: the level-N Riemann sum of [a1 x : q]^k over 1 - u
    for p in (3, 5, 7):
        for u in (F(2 * p), F(p * p), F(2, p)):
            uu = AdmissibleU(u, p)
            for q, a1, k in itertools.product((F(1 + p), F(1 + p, 2)), (1, 2), range(4)):
                target = h_closed(k, 0, BarnesParams((a1,), u, QBase(q))) / (1 - u)
                for N in range(4):
                    level_sum = riemann_integral(lambda x: qbracket(a1 * x, q) ** k, uu, 1, N)
                    expected = valuation(level_sum / (1 - u) - target, p)
                    assert prop5_check(k, uu, q, a1, N) == expected, (p, u, q, a1, k, N)

    # the budget is checked before any work, h_closed included
    def no_work(*args):
        raise AssertionError("h_closed ran before the budget check")

    monkeypatch.setattr(pi, "h_closed", no_work)
    with pytest.raises(BudgetError):
        prop5_check(1, AdmissibleU(F(3), 3), F(4), 1, 4, budget=80)


def test_mu_pole_on_root_of_unity():
    uu = AdmissibleU(F(2, 3), 3)
    # u^m = 1 cannot happen for |u| != 1 rationals except u = ±1; force u = -1
    # is inadmissible (unit), so check the guard through qbracket_z directly
    assert qbracket_z(2, F(-1)) == 0
    with pytest.raises(PreconditionError):
        AdmissibleU(F(-1), 3)
    # and mu itself stays well defined for admissible u
    assert mu_value(MeasureCell(1, 2, 1), uu) != 0

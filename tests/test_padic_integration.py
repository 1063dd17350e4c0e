import itertools
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
    DirichletCharacter,
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
from qbarnes.characters_lfunctions import l_riemann_run
from qbarnes.euler_barnes import distribution_run, h_closed_run, refinement_run


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


def test_riemann_sums_lift_runs_the_sum_in_padic_scalars():
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
            [[padic]] = pi.riemann_sums(
                lambda x: ((0, lift(integrand(x))),), 1, uu, (d * uu.p**N,), lift=lift
            )
            assert type(padic) is PadicNumber and padic == lift(rational)
            assert padic.digits == ctx.precision


def test_riemann_error_valuation_matches_exact_path():
    # every level N <= 2 of p in {3,5,7}, r in {1,2}, a_j = ±1, ±2 with mixed
    # signs, v in {1,2}, q = 1 + p {1,2,3}, n <= 3, w in {0,1}; the last two
    # cases add a negative q and a negative u
    exact = _multi_riemann_reference
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

    # the many-n form: one call per (case, w, N) gives every n's valuation,
    # the same as the single-n calls and the per-point sum
    for p, a, v, q, c in cases:
        uu = AdmissibleU(F(p) ** v * c, p)
        params = BarnesParams(a, uu.u, QBase(F(q)))
        for w, N in itertools.product((0, 1), (0, 1, 2)):
            targets, expected = zip(*(grid[p, a, v, q, c, n, w, N] for n in ns))
            assert riemann_error_valuations(ns, w, params, uu, N, targets) == list(expected), (
                p, a, v, q, w, N,
            )


def test_riemann_error_valuation_takes_no_axis_sum_at_n_zero(monkeypatch):
    # n = 0 makes the level sum exactly 1, so no axis sum is taken
    def no_sum(*args):
        raise AssertionError("summed an axis at n = 0")

    monkeypatch.setattr(pi, "_axis_sum", no_sum)
    for p, a, q in ((3, (1,), 4), (5, (1, -2), 11), (7, (-1, 2), 8)):
        uu = AdmissibleU(F(p), p)
        params = BarnesParams(a, uu.u, QBase(F(q)))
        for w, N in itertools.product((0, 1, -2), (0, 1, 2)):
            assert riemann_error_valuations((0,), w, params, uu, N, (F(1),))[0] == INFINITY
        assert prop5_check(0, uu, F(q), a[0], 2) == INFINITY
    # n >= 1 sums
    monkeypatch.undo()
    target = h_closed(1, 0, params)
    expected = valuation(_multi_riemann_reference(1, 0, params, uu, 1) - target, uu.p)
    assert riemann_error_valuations((1,), 0, params, uu, 1, (target,))[0] == expected


def _unit_moment_reference(chi, a1, u, q, D, N, k):
    """The unit sum point by point, in `Fraction`s: chi(x) [a1 x : q]^k on
    the units, 0 on p Z_p, summed against mu_u by `riemann_integral`."""

    def integrand(x):
        if x % u.p == 0 or chi(x) == 0:
            return F(0)
        return chi(x) * qbracket(a1 * x, q) ** k

    return riemann_integral(integrand, u, D, N)


def test_level_sums_match_the_sum_point_by_point():
    # r = 3 at N = 3, w < 0, |a_j| = 3, q = 1 + p^2, negative q and u, n up
    # to 5, and ns unsorted with a repeat; then seeded draws at r = 1-3.
    # Each pair equals the per-point sum, and so does each valuation against
    # a target
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
        uu = AdmissibleU(F(p) ** v * c, p)
        params = BarnesParams(a, uu.u, QBase(F(q)))
        reference = {n: _multi_riemann_reference(n, w, params, uu, N) for n in set(ns)}
        denominators = [d for d in (1, 2, 4, 7, 11) if d % p]
        targets = [F(rng.randint(-99, 99), rng.choice(denominators)) for _ in ns]
        sums = pi._level_sums(ns, (w,), params, p, p**N)[0]
        assert [F(num, den) for num, den, _ in sums] == [reference[n] for n in ns], (
            p, v, N, a, w, q, c,
        )
        assert riemann_error_valuations(ns, w, params, uu, N, targets) == [
            valuation(reference[n] - t, p) for n, t in zip(ns, targets)
        ], (p, v, N, a, w, q, c)


def test_unit_sums_match_the_sum_point_by_point():
    # the level sums weighted by a character on the units, at rank 1 and
    # w = 0: p = 3 and 5; the trivial character with D = 1 and 4, quadratic3
    # and quadratic4 with their own D (1 or 3, and 4); a1 and -a1; k = 0..4
    # in one call; levels 1-4 (1-3 at p = 5); u of valuation 1, 2 or -1, of
    # either sign, integer or not; integer and rational q. Each pair equals
    # the per-point sum, its denominator's valuation is the one read off it,
    # and each valuation of unit_error_valuations equals the per-point sum's
    rng = random.Random(16)
    characters = [
        (DirichletCharacter.trivial(1), 1, 1),
        (DirichletCharacter.trivial(1), 1, 4),
        (DirichletCharacter.quadratic(3), 1, None),
        (DirichletCharacter.quadratic(4), 2, 4),
    ]
    ks = range(5)
    for p in (3, 5):
        for chi, a1, D in characters:
            D = D or (1 if p == 3 else 3)
            classes = [chi(x0) if x0 % p else 0 for x0 in range(D * p)]
            for N in (1, 2, 3, 4) if p == 3 else (1, 2, 3):
                uu = AdmissibleU(F(p) ** rng.choice((1, 2, -1)) * rng.choice((1, -2, F(1, 2))), p)
                q = rng.choice((F(1 + p), F(1 + 2 * p), F(1 - p), F(3, 2), F(-2, 3)))
                for b in (a1, -a1):
                    reference = [_unit_moment_reference(chi, b, uu, q, D, N, k) for k in ks]
                    params = BarnesParams((b,), uu.u, QBase(q))
                    sums = pi._level_sums(ks, (0,), params, p, D * p**N, classes)[0]
                    case = (p, chi.modulus, b, D, N, uu.u, q)
                    assert [F(num, den) for num, den, _ in sums] == reference, case
                    assert [v for _, _, v in sums] == [valuation(den, p) for _, den, _ in sums]
                    shifts = [F(rng.randint(-9, 9) * p ** rng.randint(0, 30), 7) for _ in ks]
                    targets = [ref + shift for ref, shift in zip(reference, shifts)]
                    assert pi.unit_error_valuations(ks, chi, b, uu, q, D, N, targets) == [
                        valuation(ref - t, p) for ref, t in zip(reference, targets)
                    ], case


def test_level_sums_over_a_run_of_w_match_one_w_at_a_time():
    # seeded draws at r = 1 and 2: one call over 1-4 arguments w, with
    # repeats and w < 0, against one call per w, pair for pair; and
    # riemann_error_runs against riemann_error_valuations, with targets that
    # are the closed forms (past the u^(p^N) tail) or arbitrary
    rng = random.Random(35)
    seen = set()
    for _ in range(60):
        p, r = rng.choice((3, 5, 7)), rng.choice((1, 2))
        N = rng.randint(0, 3 if r == 1 else 2)
        a = tuple(rng.choice((-2, -1, 1, 2, 3)) for _ in range(r))
        q = rng.choice((F(1 + p), F(1 - p), F(1 + p, 1 + 2 * p), F(-3, 4), F(p, 2)))
        uu = AdmissibleU(F(p) ** rng.choice((-1, 1, 2)) * rng.choice((1, -2, F(1, 2))), p)
        params = BarnesParams(a, uu.u, QBase(q))
        ns = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        ws = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        runs = pi._level_sums(ns, ws, params, p, p**N)
        assert runs == [pi._level_sums(ns, (w,), params, p, p**N)[0] for w in ws], (p, a, q, N)
        targets = [
            [h_closed(n, w, params) if rng.random() < 0.7 else F(rng.randint(-9, 9), 4) for n in ns]
            for w in ws
        ]
        assert pi.riemann_error_runs(ns, ws, params, uu, N, targets) == [
            riemann_error_valuations(ns, w, params, uu, N, ts) for w, ts in zip(ws, targets)
        ]
        seen.add(r)
    assert seen == {1, 2}


def test_empty_runs_return_empty_lists():
    # as riemann_error_runs does; an empty batch of refinement terms is a
    # usage error, since its sum would have no argument to take a root from
    params, uu = BarnesParams((1, -2), F(5, 2), QBase(F(3))), AdmissibleU(F(5, 2), 5)
    context, trivial = PadicContext(5, 6), DirichletCharacter.trivial(1)
    assert pi.riemann_error_runs([], [], params, uu, 1, []) == []
    assert h_closed_run([], 1, params) == []
    assert distribution_run([], 1, 2, params) == []
    assert refinement_run([], 1, (1, -2), F(5, 2), F(3), 2)([(1, (0, 1))]) == []
    assert pi.riemann_sums(lambda x: ((0, 1),), 1, uu, []) == []
    assert l_riemann_run([], uu, F(6), 1, context, (1, 2)) == []
    assert l_riemann_run([(1, trivial), (2, trivial)], uu, F(6), 1, context, ()) == [[], []]
    for ns in ([], [1]):
        with pytest.raises(PreconditionError, match="batch of \\(c, i\\) must be nonempty"):
            refinement_run(ns, 1, (1, -2), F(5, 2), F(3), 2)([])


def test_error_valuations_from_the_tail_bound_match_the_full_climb():
    # the valuation of num D - C den tried at p^floor first: exact whether
    # p^floor divides it or floor lies above its valuation, and at 0
    rng = random.Random(36)
    seen = set()
    for _ in range(400):
        p = rng.choice((3, 5, 7))
        true = rng.randint(0, 60)
        unit = rng.choice((1, -1, 2, p + 1, -(p - 1))) * rng.randint(1, 10**30)
        x = rng.choice((0, p**true * unit))
        below, above = max(true - rng.randint(1, 5), 1), true + rng.randint(1, 9)
        floor = rng.choice((0, -3, true, below, above))
        v = valuation(x, p)
        assert pi._valuation_past(x, p, floor) == v, (x, p, floor)
        seen.add("zero" if x == 0 else "above" if floor > v else "divides" if floor > 0 else "none")
    assert seen == {"zero", "above", "divides", "none"}
    # on level sums past their tail and short of it: the floor v p^N of
    # riemann_error_runs, and one far above every valuation
    uu = AdmissibleU(F(9), 3)
    params = BarnesParams((1, -2), uu.u, QBase(F(4)))
    for N in (1, 2, 3):
        sums = pi._level_sums(range(4), (1,), params, 3, 3**N)[0]
        targets = [h_closed(n, 1, params) for n in range(4)]
        full = pi._error_valuations(sums, targets, 3, 0)
        assert full[0] == INFINITY and min(full[1:]) >= 2 * 3**N + N
        for floor in (2 * 3**N, 10**4):
            assert pi._error_valuations(sums, targets, 3, floor) == full


def test_level_sums_add_the_valuations_of_their_denominators_factors():
    # seeded draws of every shape the level sums take: q an integer or s/t
    # with p dividing s, t or t - s (and q = 0), u of either sign of
    # valuation, w < 0, mixed-sign a. Each denominator's valuation, added
    # from its factors, equals the one read off the whole denominator
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        p, r = rng.choice((3, 5, 7)), rng.randint(1, 3)
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r))
        q = rng.choice((F(1 + p), F(1 - p * p), F(p, 2), F(2, p), F(1 + p, 1 + 2 * p), F(-3, 4), 0))
        w = rng.randint(-3, 3)
        if q == 0:
            a, w = tuple(abs(aj) for aj in a), abs(w)
        uu = AdmissibleU(F(p) ** rng.choice((-1, 1, 2)) * rng.choice((1, -2, F(1, 2))), p)
        params = BarnesParams(a, uu.u, QBase(q))
        ns = [rng.randint(0, 5) for _ in range(rng.randint(1, 4))]
        N = rng.randint(0, 3 if r == 1 else 1)
        for num, den, v_den in pi._level_sums(ns, (w,), params, p, p**N)[0]:
            assert v_den == valuation(den, p), (p, a, q, w, uu.u, ns, N)
            seen.add(v_den > 0)
    assert seen == {True, False}


def test_unit_error_valuations_check_their_inputs_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("summed before the inputs were checked")

    monkeypatch.setattr(pi, "_level_sums", no_work)
    chi, uu, q = DirichletCharacter.quadratic(4), AdmissibleU(F(3), 3), F(4)
    trivial = DirichletCharacter.trivial(1)
    for args, parameter in (
        (((1,), chi, 2, uu, q, 4, 0, (F(0),)), "N"),
        (((1,), chi, 2, uu, q, 0, 1, (F(0),)), "D"),
        (((1,), chi, 0, uu, q, 4, 1, (F(0),)), "a"),
        (((1,), chi, 2, uu, F(1), 4, 1, (F(0),)), "q"),
        # a negative moment, which the binomial split of the sum does not
        # reach
        (((-1,), trivial, 1, AdmissibleU(3, 3), 4, 1, 2, (0,)), "k"),
        (((1, -1), chi, 2, uu, q, 4, 1, (F(0), F(0))), "k"),
        # chi's modulus 4 does not divide D p = 3
        (((1,), chi, 2, uu, q, 1, 2, (F(0),)), "D"),
        # one target per moment: neither list is cut to the other's length
        (((1, 2), chi, 2, uu, q, 4, 1, (F(0),)), "targets"),
        (((1,), chi, 2, uu, q, 4, 1, (F(0), F(0))), "targets"),
    ):
        with pytest.raises(PreconditionError) as exc:
            pi.unit_error_valuations(*args)
        assert exc.value.parameter == parameter
    # the D p^N points, here 4 * 27, not the p^(N-1) points of an axis sum
    with pytest.raises(BudgetError, match="108 evaluation points exceed the budget of 107"):
        pi.unit_error_valuations((1,), chi, 2, uu, q, 4, 3, (F(0),), budget=107)
    monkeypatch.undo()
    assert pi.unit_error_valuations((1,), chi, 2, uu, q, 4, 3, (F(0),), budget=108)[0] < INFINITY
    # a1 < 0 is summed, not refused: its valuations are the per-point sum's
    ks, targets = range(4), [F(k, 5) for k in range(4)]
    reference = [_unit_moment_reference(chi, -1, uu, q, 4, 2, k) for k in ks]
    assert pi.unit_error_valuations(ks, chi, -1, uu, q, 4, 2, targets) == [
        valuation(ref - t, 3) for ref, t in zip(reference, targets)
    ]


def test_riemann_error_valuations_keep_no_term_of_the_level_sum():
    # each axis sum is a Horner sum over Z kept on the fly: no list of the
    # 2,401 terms, nor of the powers u^x or q^x, lives through it. A table
    # of the 2,401 powers u^x alone would take about 2.6 MB here; the whole
    # call peaks near 0.07 MB.
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


def test_riemann_error_valuation_holds_for_any_admissible_u_q_and_target():
    # u of negative valuation or not an integer, q rational or not ≡ 1 mod p,
    # a target outside Z_p: each valuation equals the per-point sum's
    exact = _multi_riemann_reference
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


def test_riemann_error_valuation_checks_budget_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("summed before the budget check")

    monkeypatch.setattr(pi, "_level_sums", no_work)
    uu = AdmissibleU(F(3), 3)
    params = BarnesParams((1, 2), F(3), QBase(F(4)))
    with pytest.raises(BudgetError):
        riemann_error_valuations((1,), 0, params, uu, 4, (h_closed(1, 0, params),), budget=100)
    with pytest.raises(PreconditionError):
        riemann_error_valuations((1,), 0, BarnesParams((1,), F(6), QBase(F(4))), uu, 1, (F(0),))


def test_level_sums_name_the_argument_out_of_range(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("summed before the inputs were checked")

    monkeypatch.setattr(pi, "_axis_sum", no_work)
    uu = AdmissibleU(F(3), 3)
    params = BarnesParams((1,), uu.u, QBase(F(4)))
    h1 = h_closed(1, 0, params)
    # h_closed's domain in q: q = 0 with some a_j < 0, though at N = 0 the
    # one point's argument is w = 0, and q = (-1)^2 = 1
    zero_q = BarnesParams((1, -1), uu.u, QBase(F(0)))
    unit_q = BarnesParams((1,), uu.u, QBase(F(-1), 2))
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
        (lambda: multi_riemann_integral(1, 0, zero_q, uu, 0), "q"),
        (lambda: riemann_error_valuations((2,), 0, unit_q, uu, 2, (F(0),)), "q"),
    ):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert exc.value.parameter == parameter
    # at n = 0 the sum is 1 whatever q is
    assert multi_riemann_integral(0, -1, zero_q, uu, 2) == multi_riemann_integral(0, 0, unit_q, uu, 2) == 1


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

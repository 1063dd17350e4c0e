import itertools
from fractions import Fraction as F

import pytest

import qbarnes.padic_integration as pi
from qbarnes import (
    INFINITY,
    AdmissibleU,
    BarnesParams,
    BudgetError,
    MeasureCell,
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
    riemann_error_valuation,
    riemann_integral,
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


def _counting_fallbacks(monkeypatch):
    """Patches the exact sum riemann_error_valuation falls back to; returns
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
    for p, a, v, q, c in cases:
        uu = AdmissibleU(F(p) ** v * c, p)
        params = BarnesParams(a, uu.u, QBase(F(q)))
        for n, w, N in itertools.product(range(4), (0, 1), (0, 1, 2)):
            target = h_closed(n, w, params)
            expected = valuation(exact(n, w, params, uu, N) - target, p)
            assert riemann_error_valuation(n, w, params, uu, N, target) == expected, (
                p, a, v, q, n, w, N,
            )
    # only n = 0 (a level sum equal to its target) fell back: every other
    # valuation above was decided mod p^K
    assert len(fallbacks) == len(cases) * 2 * 3 and all(n == 0 for n, _ in fallbacks)


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
            assert riemann_error_valuation(2, 1, params, uu, N, target) == expected
    assert fallbacks == [(2, 1)] * (2 * len(cases))


def test_riemann_error_valuation_checks_budget_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("summed before the budget check")

    monkeypatch.setattr(pi, "_level_residue", no_work)
    monkeypatch.setattr(pi, "multi_riemann_integral", no_work)
    uu = AdmissibleU(F(3), 3)
    params = BarnesParams((1, 2), F(3), QBase(F(4)))
    with pytest.raises(BudgetError):
        riemann_error_valuation(1, 0, params, uu, 4, h_closed(1, 0, params), budget=100)
    with pytest.raises(PreconditionError):
        riemann_error_valuation(1, 0, BarnesParams((1,), F(6), QBase(F(4))), uu, 1, F(0))


def test_level_sums_name_the_argument_out_of_range():
    uu = AdmissibleU(F(3), 3)
    for call, parameter in (
        (lambda: riemann_integral(lambda x: F(1), uu, 1, -1), "N"),
        (lambda: riemann_integral(lambda x: F(1), uu, 0, 1), "d"),
        (lambda: prop5_check(1, uu, F(4), 1, -1), "N"),
        (lambda: prop5_check(-1, uu, F(4), 1, 1), "k"),
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

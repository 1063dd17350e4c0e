import random
from fractions import Fraction as F
from math import gcd

import pytest

from qbarnes import (
    DEFAULT_BUDGET,
    AdmissibleU,
    BarnesParams,
    BudgetError,
    DirichletCharacter,
    PadicContext,
    PadicNumber,
    PreconditionError,
    QBase,
    agreement_valuation,
    angle_bracket,
    h_chi,
    h_closed,
    kummer_check,
    l_at_negative,
    l_riemann,
    padic_pow,
    qbracket,
    qbracket_z,
    teichmuller,
    to_padic,
    twist_teichmuller,
    valuation,
)
from qbarnes.characters_lfunctions import l_riemann_run


def test_character_validation():
    DirichletCharacter(4, [F(0), F(1), F(0), F(-1)])  # fine
    with pytest.raises(PreconditionError):
        DirichletCharacter(4, [F(0), F(1), F(1), F(-1)])  # nonzero at non-unit
    with pytest.raises(PreconditionError):
        DirichletCharacter(4, [F(0), F(-1), F(0), F(1)])  # chi(1) != 1
    with pytest.raises(PreconditionError):
        DirichletCharacter(4, [F(0), F(1)])  # wrong table length
    with pytest.raises(PreconditionError):
        DirichletCharacter(5, [F(0), F(1), F(2), F(3), F(4)])  # not multiplicative


def test_teichmuller_mode_tables_are_validated_on_ints():
    # int(5/2) = 2 would make this table omega mod 5
    ctx = PadicContext(5, 1)
    with pytest.raises(PreconditionError) as info:
        DirichletCharacter(5, [0, 1, F(5, 2), 3, 4], ctx)
    assert info.value.parameter == "values"
    assert DirichletCharacter(5, [0, 1, F(4, 2), 3, 4], ctx) == DirichletCharacter(
        5, [0, 1, 2, 3, 4], ctx
    )
    # 4th roots of unity mod 25 with chi(2) chi(3) = 49 ≡ -1, not chi(1)
    with pytest.raises(PreconditionError, match="not multiplicative"):
        DirichletCharacter(5, [0, 1, 7, 7, 24], PadicContext(5, 2))


def test_character_tables_are_ints_and_lift_is_the_one_switch(monkeypatch):
    # twisting, <x : q> and a teichmuller-mode sum multiply, divide and
    # compare no PadicNumber: each is built once, from an exact int or rational
    def refuse(*args):
        raise AssertionError("PadicNumber arithmetic on a character path")

    for method in ("__mul__", "__truediv__", "__eq__"):
        monkeypatch.setattr(PadicNumber, method, refuse)
    ctx = PadicContext(5, 8)
    tw = twist_teichmuller(DirichletCharacter.quadratic(4), 1, ctx)
    assert all(type(v) is int for v in tw.values) and not hasattr(tw, "value")
    assert tw.lift(tw(3)).unit == tw(3)
    assert angle_bracket(7, F(6), PadicContext(5, 6)).unit % 5 == 1
    omega = DirichletCharacter.teichmuller_character(PadicContext(5, 6))
    value = h_chi(2, 1, (1,), F(5), F(6), omega)
    assert isinstance(value, PadicNumber)
    q3 = DirichletCharacter.quadratic(3)
    assert q3.values == (0, 1, -1) and q3.lift(q3(2)) == -1


def test_builtin_characters():
    triv = DirichletCharacter.trivial(1)
    assert triv(0) == 1 and triv(17) == 1
    q4 = DirichletCharacter.quadratic(4)
    assert [q4(x) for x in range(4)] == [0, 1, 0, -1]
    q3 = DirichletCharacter.quadratic(3)
    assert q3 == DirichletCharacter(3, [0, 1, -1])
    assert q3(5) == q3(2)


def test_teichmuller_character():
    ctx = PadicContext(5, 4)
    omega = DirichletCharacter.teichmuller_character(ctx)
    assert omega.modulus == 5
    w2 = omega.lift(omega(2))
    assert w2 == teichmuller(2, ctx)
    assert omega.lift(omega(5)).is_zero


def test_twist_zero_pattern():
    ctx = PadicContext(5, 4)
    q4 = DirichletCharacter.quadratic(4)
    tw = twist_teichmuller(q4, 1, ctx)
    assert tw.modulus == 20
    for x in range(20):
        vanishes = tw.lift(tw(x)).is_zero
        assert vanishes == (x % 2 == 0 or x % 5 == 0)


def test_angle_bracket_unit_projection():
    ctx = PadicContext(5, 6)
    ab = angle_bracket(7, F(6), ctx)
    assert type(ab) is PadicNumber
    assert ab.valuation == 0 and ab.unit % 5 == 1
    with pytest.raises(PreconditionError):
        angle_bracket(10, F(6), ctx)  # not a unit
    with pytest.raises(PreconditionError):
        angle_bracket(7, F(3), ctx)  # q != 1 mod p


def test_angle_bracket_q_one_classical_projection():
    ctx = PadicContext(5, 6)
    ab = angle_bracket(7, F(1), ctx)
    assert ab == to_padic(7, ctx) / teichmuller(7, ctx)


def test_angle_bracket_matches_exact_bracket():
    # 400 seeded draws: the lifting-the-exponent route mod p^(M+e) against
    # the exact rational [x : q] embedded mod p^M, over mixed-sign units x
    rng = random.Random(19)
    for _ in range(400):
        p = rng.choice((3, 5, 7))
        ctx = PadicContext(p, rng.choice((1, 4, 8, 12)))
        q = rng.choice((F(1 + p), F(1 - 2 * p), F(1 + p * p), F(1 + p, 1 + 3 * p),
                        F(1 + 2 * p**3), F(1)))
        x = rng.choice([x for x in range(-3 * p * p, 3 * p * p) if x % p])
        got = angle_bracket(x, q, ctx)
        want = to_padic(qbracket(x, q), ctx) / teichmuller(x, ctx)
        args = (p, ctx.precision, q, x)
        assert (got.valuation, got.unit, got.digits) == (
            want.valuation, want.unit, want.digits
        ), args
        assert got.unit % p == 1, args


def test_h_chi_trivial_reduces_to_closed_form():
    u, q = F(3), F(4)
    triv = DirichletCharacter.trivial(1)
    params = BarnesParams((1, 2), u, QBase(q))
    for k in range(4):
        assert h_chi(k, 2, (1, 2), u, q, triv) == h_closed(k, 0, params)


def test_h_chi_negative_r_is_an_r_fault():
    # once a bare ValueError from building the index set before checking r
    with pytest.raises(PreconditionError) as err:
        h_chi(1, -1, (1,), F(3), F(4), DirichletCharacter.trivial(1))
    assert err.value.parameter == "r"
    # a q^d fault and k < 0 still come first
    with pytest.raises(PreconditionError) as err:
        h_chi(-1, -1, (1,), F(3), F(4), DirichletCharacter.trivial(1))
    assert err.value.parameter == "k"
    with pytest.raises(PreconditionError) as err:
        h_chi(-1, -1, (1,), F(3), F(-1), DirichletCharacter.trivial(2))
    assert err.value.parameter == "q"


def test_h_chi_quadratic_frozen_value():
    # pinned against the level-sum limit of chi(x) [x:q]^2 dmu_u
    q4 = DirichletCharacter.quadratic(4)
    assert h_chi(2, 1, (1,), F(3), F(4), q4) == F(-2307, 66845)


def test_h_chi_teichmuller_mode_returns_padic():
    ctx = PadicContext(5, 6)
    omega = DirichletCharacter.teichmuller_character(ctx)
    value = h_chi(1, 1, (1,), F(5), F(6), omega)
    assert isinstance(value, PadicNumber)


def test_l_riemann_at_zero_closed_form():
    # restriction to units drops exactly the u^{p Z_p} mass:
    # integral of 1 over units = 1 - (1-u)/(1-u^p), independent of N
    ctx = PadicContext(5, 8)
    uu = AdmissibleU(F(10), 5)
    triv = DirichletCharacter.trivial(1)
    expect = to_padic(1 - (1 - F(10)) / (1 - F(10) ** 5), ctx)
    for N in (1, 2, 3):
        assert l_riemann(0, triv, uu, F(6), 1, ctx, N) == expect


def test_l_at_negative_interpolates():
    ctx = PadicContext(5, 8)
    uu = AdmissibleU(F(5), 5)
    triv = DirichletCharacter.trivial(1)
    for k in (1, 2):
        tw = twist_teichmuller(triv, k, ctx)
        lr = l_riemann(-k, tw, uu, F(6), 1, ctx, 2)
        ln = l_at_negative(k, triv, uu, F(6), 1, ctx)
        assert agreement_valuation(lr, ln) >= 2


def test_kummer_congruence_example():
    ctx = PadicContext(5, 8)
    uu = AdmissibleU(F(5), 5)
    triv = DirichletCharacter.trivial(1)
    assert kummer_check(1, 21, 1, triv, uu, F(6), 1, ctx) == 5
    with pytest.raises(PreconditionError):
        kummer_check(1, 22, 1, triv, uu, F(6), 1, ctx)  # 21 not ≡ 22
    # the L-value preconditions hold here too: a1 = 5 is not a 5-adic unit,
    # and u = 3 is admissible for p = 3, not for the context's p = 5
    for u, a1, parameter in ((uu, 5, "a"), (AdmissibleU(F(3), 3), 1, "p")):
        with pytest.raises(PreconditionError) as closed:
            l_at_negative(1, triv, u, F(6), a1, ctx)
        with pytest.raises(PreconditionError) as kummer:
            kummer_check(1, 21, 1, triv, u, F(6), a1, ctx)
        assert closed.value.parameter == kummer.value.parameter == parameter


def test_kummer_check_teichmuller_mode_matches_rational_mode():
    # the kummer suite's cases: twisting by omega^0 carries the rational
    # character into teichmuller mode, where agreement_valuation, capped at
    # 12 digits, still reads each exact valuation
    for p, n, pairs, chi, want in (
        (3, 1, ((1, 7), (2, 8), (4, 10)), DirichletCharacter.trivial(1), 4),
        (3, 2, ((1, 19), (2, 20), (3, 21)), DirichletCharacter.quadratic(4), 9),
        (5, 1, ((1, 21), (2, 22), (3, 23)), DirichletCharacter.trivial(1), 5),
        (5, 2, ((1, 101), (2, 102), (3, 103)), DirichletCharacter.trivial(1), 6),
    ):
        ctx = PadicContext(p, 12)
        uu = AdmissibleU(F(p), p)
        twist = twist_teichmuller(chi, 0, ctx)
        for k, k2 in pairs:
            assert kummer_check(k, k2, n, chi, uu, F(1 + p), 1, ctx) == want
            assert kummer_check(k, k2, n, twist, uu, F(1 + p), 1, ctx) == want


def test_l_riemann_rejects_non_unit_a1():
    ctx = PadicContext(5, 6)
    uu = AdmissibleU(F(5), 5)
    triv = DirichletCharacter.trivial(1)
    with pytest.raises(PreconditionError):
        l_riemann(-1, triv, uu, F(6), 10, ctx, 1)


def test_twist_names_the_character_on_a_context_mismatch():
    ctx, other = PadicContext(5, 4), PadicContext(5, 6)
    omega = DirichletCharacter.teichmuller_character(ctx)
    with pytest.raises(PreconditionError) as twist:
        twist_teichmuller(omega, 1, other)
    with pytest.raises(PreconditionError) as closed:
        l_at_negative(1, omega, AdmissibleU(F(5), 5), F(6), 1, other)
    assert twist.value.parameter == closed.value.parameter == "char"
    assert str(twist.value) == str(closed.value)


def _l_riemann_reference(s, chi, u, q, a1, context, N, budget=DEFAULT_BUDGET):
    """The loop l_riemann ran before it summed through riemann_integral: its
    own checks, budget check, u-power walk and normaliser, and chi(x) taken
    per point as the removed `DirichletCharacter.padic_value` took it."""
    p = context.p
    if u.p != p:
        raise PreconditionError("u and the context disagree on p", parameter="p")
    if gcd(a1, p) != 1:
        raise PreconditionError("a1 must be a p-adic unit", parameter="a")
    if chi.context is not None and chi.context != context:
        raise PreconditionError(
            "character belongs to a different p-adic context", parameter="char"
        )
    if N < 1:
        raise PreconditionError("N must be >= 1", parameter="level-N")
    D = chi.modulus
    while D % p == 0:
        D //= p
    m = D * p**N
    if m % chi.modulus != 0:
        raise PreconditionError(
            "the level does not resolve the character's p-part", parameter="level-N"
        )
    if m > budget:
        raise BudgetError(
            f"{m} evaluation points exceed the budget of {budget}", parameter="budget"
        )
    neg_s = -s if isinstance(s, PadicNumber) else -int(s)
    up = to_padic(u.u, context)
    upow = to_padic(1, context)
    acc = PadicNumber.zero(context)
    for x in range(m):
        if x:
            upow = upow * up
        if gcd(x, p) != 1:
            continue
        v = chi(x)
        if chi.context is None:
            cv = to_padic(v, context)
        elif v == 0:
            cv = PadicNumber.zero(context)
        else:
            cv = PadicNumber(chi.context, 0, v, chi.context.precision)
        if cv.is_zero:
            continue
        ab = angle_bracket(a1 * x, q, context)
        acc = acc + padic_pow(ab, neg_s) * cv * upow
    assert not acc.is_zero
    return acc / to_padic(qbracket_z(m, u.u), context)


def _outcome(call):
    """A value as (valuation, unit, digits), or an error as (type, parameter,
    message): both routes must agree on every digit and every error."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, getattr(exc, "parameter", None), str(exc)
    assert type(value) is PadicNumber
    return value.valuation, value.unit, value.digits


def test_l_riemann_matches_the_loop_it_replaced():
    # 240 seeded draws: p in {3, 5}, v = nu_p(u) in {-1, 1, 2}, rational and
    # teichmuller characters and their omega^k twists, mixed-sign unit a1,
    # integer and p-adic s, q = 1 or q ≡ 1 (mod p); plus budget, level and
    # context errors
    rng = random.Random(13)
    rational = [
        DirichletCharacter.trivial(1),
        DirichletCharacter.quadratic(3),
        DirichletCharacter.quadratic(4),
        DirichletCharacter(5, [0, 1, -1, -1, 1]),
        DirichletCharacter(9, [0, 1, -1, 0, 1, -1, 0, 1, -1]),
    ]
    seen = set()
    for _ in range(240):
        p = rng.choice((3, 5))
        ctx = PadicContext(p, rng.choice((4, 6, 8)))
        chi = rng.choice(rational)
        kind = rng.choice(("rational", "teichmuller", "twist", "twist"))
        if kind == "teichmuller":
            chi = DirichletCharacter.teichmuller_character(ctx)
        elif kind == "twist":
            chi = twist_teichmuller(chi, rng.randint(0, 3), ctx)
        u = F(p) ** rng.choice((-1, 1, 2)) * rng.choice((1, 2, -1, F(1, 2)))
        uu = AdmissibleU(u, p)
        q = rng.choice((F(1), F(1 + p), F(1 - 2 * p), F(1 + p, 1 + 3 * p)))
        a1 = rng.choice((1, 2, -1, 1 + p, p - 1, -1 - p))
        if rng.random() < 0.3:
            s = to_padic(rng.choice((F(3), F(-2), F(1, 2), F(7 * p + 1))), ctx)
        else:
            s = rng.randint(-4, 3)
        N = rng.randint(1, 3 if p == 3 else 2)
        budget = rng.choice((DEFAULT_BUDGET, 60))
        other = ctx
        error = rng.random()
        if error < 0.08:
            other = PadicContext(p, ctx.precision + 1)  # a twist's context differs
        elif error < 0.12:
            uu = AdmissibleU(F(7), 7)  # u at another prime
        elif error < 0.16:
            N = 0
        expected = _outcome(lambda: _l_riemann_reference(s, chi, uu, q, a1, other, N, budget))
        got = _outcome(lambda: l_riemann(s, chi, uu, q, a1, other, N, budget))
        assert got == expected, (p, chi, u, q, a1, s, N, budget)
        if isinstance(expected[0], str):
            seen.add(expected[1])  # the parameter the error names
        else:
            seen.add("p-adic s" if isinstance(s, PadicNumber) else "integer s")
            seen.add("rational" if chi.context is None else "teichmuller")
    assert seen == {
        "p-adic s", "integer s", "rational", "teichmuller",
        "char", "p", "level-N", "budget",
        None,  # padic_pow: an exponent s from a context other than the call's
    }


def test_l_riemann_runs_match_one_call_per_term_and_level():
    # 120 seeded runs of 1-5 terms (s, chi) over 1-3 levels, unsorted and
    # with repeats: rational-mode characters, teichmuller-mode omega^k
    # twists of them and omega itself, mixed in one run (so their tame parts
    # D differ), integer and p-adic s. Each sum equals its own l_riemann
    # call digit for digit; a run one of whose calls faults is skipped
    rng = random.Random(37)
    rational = [
        DirichletCharacter.trivial(1),
        DirichletCharacter.quadratic(3),
        DirichletCharacter.quadratic(4),
        DirichletCharacter(5, [0, 1, -1, -1, 1]),
    ]
    seen = set()
    for _ in range(120):
        p = rng.choice((3, 5))
        ctx = PadicContext(p, rng.choice((4, 6, 8)))
        uu = AdmissibleU(F(p) ** rng.choice((-1, 1, 2)) * rng.choice((1, 2, -1, F(1, 2))), p)
        q = rng.choice((F(1), F(1 + p), F(1 - 2 * p), F(1 + p, 1 + 3 * p)))
        a1 = rng.choice((1, 2, -1, 1 + p, p - 1))
        terms = []
        for _ in range(rng.randint(1, 5)):
            chi = rng.choice(rational)
            kind = rng.choice(("rational", "teichmuller", "twist", "twist"))
            if kind == "teichmuller":
                chi = DirichletCharacter.teichmuller_character(ctx)
            elif kind == "twist":
                chi = twist_teichmuller(chi, rng.randint(0, 4), ctx)
            s = rng.randint(-4, 3)
            if rng.random() < 0.2:
                s = to_padic(rng.choice((F(3), F(-2), F(1, 2))), ctx)
            terms.append((s, chi))
            seen.add(kind)
        levels = [rng.randint(1, 3 if p == 3 else 2) for _ in range(rng.randint(1, 3))]
        try:
            want = [[l_riemann(s, chi, uu, q, a1, ctx, N) for N in levels] for s, chi in terms]
        except Exception:  # noqa: BLE001 - a faulting draw is not a run to compare
            seen.add("skipped")
            continue
        got = l_riemann_run(terms, uu, q, a1, ctx, levels)
        digits = [[(x.valuation, x.unit, x.digits) for x in row] for row in want]
        assert [[(x.valuation, x.unit, x.digits) for x in row] for row in got] == digits
        seen.add(len({chi.modulus // p ** valuation(chi.modulus, p) for _, chi in terms}) > 1)
    assert seen == {"rational", "teichmuller", "twist", True, False}

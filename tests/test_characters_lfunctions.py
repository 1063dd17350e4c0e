from fractions import Fraction as F

import pytest

from qbarnes import (
    AdmissibleU,
    BarnesParams,
    DirichletCharacter,
    PadicContext,
    PadicNumber,
    PreconditionError,
    QBase,
    UnitProjection,
    agreement_valuation,
    angle_bracket,
    h_chi,
    h_closed,
    kummer_check,
    l_at_negative,
    l_riemann,
    teichmuller,
    to_padic,
    twist_teichmuller,
)


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


def test_builtin_characters():
    triv = DirichletCharacter.trivial(1)
    assert triv(0) == 1 and triv(17) == 1
    q4 = DirichletCharacter.quadratic(4)
    assert [q4(x) for x in range(4)] == [0, 1, 0, -1]
    q3 = DirichletCharacter.quadratic(3)
    assert q3 == DirichletCharacter.from_generator(3, 2, F(-1))
    assert q3(5) == q3(2)


def test_from_generator():
    # the image order may properly divide the generator order: -1 on a
    # generator of (Z/5)* is the Legendre character
    leg5 = DirichletCharacter.from_generator(5, 2, F(-1))
    assert [leg5(x) for x in range(5)] == [0, 1, -1, -1, 1]
    with pytest.raises(PreconditionError):
        DirichletCharacter.from_generator(8, 3, F(-1))  # 3 does not generate
    ctx = PadicContext(5, 3)
    with pytest.raises(PreconditionError):
        # residue 2 is not a (p-1)-th root of unity mod 125
        DirichletCharacter.from_generator(5, 2, 2, ctx)


def test_teichmuller_character():
    ctx = PadicContext(5, 4)
    omega = DirichletCharacter.teichmuller_character(ctx)
    assert omega.modulus == 5
    w2 = omega.padic_value(2, ctx)
    assert w2 == teichmuller(2, ctx)
    assert omega.padic_value(5, ctx).is_zero


def test_twist_zero_pattern():
    ctx = PadicContext(5, 4)
    q4 = DirichletCharacter.quadratic(4)
    tw = twist_teichmuller(q4, 1, ctx)
    assert tw.modulus == 20
    for x in range(20):
        vanishes = tw.padic_value(x, ctx).is_zero
        assert vanishes == (x % 2 == 0 or x % 5 == 0)


def test_angle_bracket_unit_projection():
    ctx = PadicContext(5, 6)
    ab = angle_bracket(7, F(6), ctx)
    assert isinstance(ab, UnitProjection)
    assert ab.value.residue_mod(1) == 1
    with pytest.raises(PreconditionError):
        angle_bracket(10, F(6), ctx)  # not a unit
    with pytest.raises(PreconditionError):
        angle_bracket(7, F(3), ctx)  # q != 1 mod p


def test_angle_bracket_q_one_classical_projection():
    ctx = PadicContext(5, 6)
    ab = angle_bracket(7, F(1), ctx)
    assert ab.value == to_padic(7, ctx) / teichmuller(7, ctx)


def test_unit_projection_validation():
    ctx = PadicContext(5, 4)
    with pytest.raises(PreconditionError):
        UnitProjection(to_padic(2, ctx))
    with pytest.raises(PreconditionError):
        UnitProjection(to_padic(5, ctx))
    UnitProjection(to_padic(6, ctx))


def test_h_chi_trivial_reduces_to_closed_form():
    u, q = F(3), F(4)
    triv = DirichletCharacter.trivial(1)
    params = BarnesParams((1, 2), u, QBase(q))
    for k in range(4):
        assert h_chi(k, 2, (1, 2), u, q, triv) == h_closed(k, 0, params)


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
    assert kummer_check(1, 21, 1, triv, uu, F(6), 1, ctx)
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


def test_l_riemann_rejects_non_unit_a1():
    ctx = PadicContext(5, 6)
    uu = AdmissibleU(F(5), 5)
    triv = DirichletCharacter.trivial(1)
    with pytest.raises(PreconditionError):
        l_riemann(-1, triv, uu, F(6), 10, ctx, 1)

import random
import re
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qbarnes import (
    INFINITY,
    InternalError,
    PadicContext,
    PadicNumber,
    PrecisionExhaustedError,
    PreconditionError,
    agreement_valuation,
    format_rational,
    is_prime,
    padic_exp,
    padic_log,
    padic_pow,
    padic_sum,
    parse_rational,
    teichmuller,
    to_padic,
    valuation,
)
from qbarnes.exact_numbers import _teichmuller_unit, coprime_fraction


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in [-3, 0, 1, 4, 9, 91, 561, 2047 * 3])


def test_is_prime_large_carmichael():
    # strong pseudoprime to several bases, composite
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)


def test_is_prime_beyond_deterministic_bound():
    with pytest.raises(PreconditionError):
        is_prime(2**128 + 1)


def test_valuation():
    assert valuation(F(12), 2) == 2
    assert valuation(F(12), 3) == 1
    assert valuation(F(1, 9), 3) == -2
    assert valuation(F(5, 7), 3) == 0
    assert valuation(F(0), 3) == INFINITY


def test_valuation_of_large_powers():
    # the climb through p^(2^k) and the step back down must land on k
    # exactly, on both sides of powers of two and at valuations in the thousands
    ks = (0, 1, 2, 3, 5, 63, 64, 65, 127, 128, 1000, 4095, 4096, 4806, 5000)
    for p in (2, 3, 7):
        for m in (1, 2, 3, 10, 7**5 + 3, 2**64 + 1):
            if m % p == 0:
                continue
            for k in ks:
                for sign in (1, -1):
                    x = sign * p**k * m
                    assert valuation(x, p) == k, (p, k, m, sign)
                    assert valuation(F(m, x), p) == -k


def test_rational_wire_format():
    # a Fraction or an int, read through .numerator and .denominator
    assert format_rational(F(-3, 5)) == "-3/5"
    assert format_rational(F(4)) == "4"
    assert format_rational(F(6, 3)) == "2"
    assert format_rational(0) == "0"
    assert format_rational(-7) == "-7"
    assert parse_rational("-3/5") == F(-3, 5)
    assert parse_rational("7") == F(7)
    with pytest.raises(PreconditionError):
        parse_rational("3/5/7")


def test_coprime_fraction_is_the_reduced_fraction():
    """`coprime_fraction` stores a coprime pair without a gcd: through
    `Fraction._from_coprime_ints` on Python 3.12 and later, and through
    `Fraction(n, d, _normalize=False)` on 3.10 and 3.11, so CI's 3.10-3.14
    matrix runs both branches. Its value, parts and hash are those of
    `Fraction(n, d)`, for a negative denominator too, and it is the one use
    of a private `fractions` API under src/."""
    rng = random.Random(5)
    pairs = [(0, 1), (0, -1), (1, -1), (-3, 5), (3, -5), (-3, -5), (2**200 + 1, -(3**150))]
    while len(pairs) < 200:
        n, d = rng.randint(-(10**40), 10**40), rng.randint(-(10**40), 10**40)
        if d and gcd(n, d) == 1:
            pairs.append((n, d))
    for n, d in pairs:
        x, want = coprime_fraction(n, d), F(n, d)
        assert type(x) is F
        assert (x.numerator, x.denominator) == (want.numerator, want.denominator), (n, d)
        assert x == want and hash(x) == hash(want), (n, d)
    private = re.compile(r"_from_coprime_ints|_normalize\b|\._(numerator|denominator)\b|Fraction\._\w+\(")
    src = Path(__file__).resolve().parents[1] / "src" / "qbarnes"
    users = {path.name for path in src.glob("*.py") if private.search(path.read_text())}
    assert users == {"exact_numbers.py"}


def test_context_validation():
    with pytest.raises(PreconditionError):
        PadicContext(2, 4)
    with pytest.raises(PreconditionError):
        PadicContext(9, 4)
    with pytest.raises(PreconditionError):
        PadicContext(5, 0)
    assert PadicContext(5, 3).modulus == 125


def test_mixed_contexts_are_rejected_by_every_operation():
    # an equal context built apart computes; a different one raises the same
    # message from every operation, and names the exponent in padic_pow
    ctx, twin, other = PadicContext(5, 6), PadicContext(5, 6), PadicContext(5, 4)
    x, y, z = to_padic(6, ctx), to_padic(11, twin), to_padic(11, other)
    assert x * y == to_padic(66, ctx) and y / x == to_padic(F(11, 6), ctx)
    assert x + y == to_padic(17, ctx) and padic_sum([x, y], ctx) == to_padic(17, ctx)
    assert padic_pow(x, to_padic(2, twin)) == to_padic(36, ctx)
    for call in (lambda: x * z, lambda: x / z, lambda: x + z, lambda: padic_sum([x, z], ctx)):
        with pytest.raises(PreconditionError, match="^operands belong to different p-adic contexts$"):
            call()
    with pytest.raises(PreconditionError, match="^exponent belongs to a different p-adic context$"):
        padic_pow(x, to_padic(2, other))


def test_to_padic_basic():
    ctx = PadicContext(3, 2)
    half = to_padic(F(1, 2), ctx)
    assert half.valuation == 0 and half.unit == 5  # 2*5 = 10 ≡ 1 mod 9
    three = to_padic(3, ctx)
    assert three.valuation == 1 and three.unit == 1
    z = to_padic(0, ctx)
    assert z.is_zero and z.valuation == INFINITY


def test_multiplication_tracks_valuation():
    ctx = PadicContext(5, 2)
    a = PadicNumber(ctx, 0, 7, 2)
    b = PadicNumber(ctx, 1, 2, 2)
    c = a * b
    assert (c.valuation, c.unit, c.digits) == (1, 14, 2)


def test_addition_precision_loss():
    ctx = PadicContext(5, 3)
    s = to_padic(1, ctx) + to_padic(24, ctx)
    # 25: two digits cancel, one remains
    assert (s.valuation, s.unit, s.digits) == (2, 1, 1)


def test_full_cancellation_raises():
    ctx = PadicContext(5, 3)
    with pytest.raises(PrecisionExhaustedError):
        to_padic(1, ctx) + to_padic(-1, ctx)


def test_padic_sum_is_running_addition_without_partial_cancellation():
    rng = random.Random(41)
    ctx = PadicContext(3, 5)
    zero = PadicNumber.zero(ctx)
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.2:
                terms.append(zero)
            else:
                v, digits = rng.randint(-2, 3), rng.randint(1, 5)
                terms.append(PadicNumber(ctx, v, rng.choice((1, 2)) + 3 * rng.randint(0, 80), digits))
        try:
            running = zero
            for t in terms:
                running = running + t
        except PrecisionExhaustedError:
            continue
        total = padic_sum(terms, ctx)
        assert total.to_json_dict() == running.to_json_dict()
        assert total.abs_precision == running.abs_precision
    one, minus_one = to_padic(1, ctx), to_padic(-1, ctx)
    # 1 - 1 + 3 cancels on the way but not in total
    assert padic_sum([one, minus_one, to_padic(3, ctx)], ctx).to_json_dict() == to_padic(3, ctx).to_json_dict()
    with pytest.raises(PrecisionExhaustedError):
        padic_sum([one, zero, minus_one], ctx)
    assert padic_sum([], ctx).is_zero and padic_sum([zero], ctx).is_zero
    with pytest.raises(PreconditionError):
        padic_sum([one, to_padic(1, PadicContext(5, 5))], ctx)
    with pytest.raises(PreconditionError):
        one + PadicNumber.zero(PadicContext(5, 5))


def test_division_and_pow():
    ctx = PadicContext(3, 4)
    x = to_padic(F(7, 2), ctx)
    assert x / x == to_padic(1, ctx)
    assert x**3 == x * x * x
    assert x**0 == to_padic(1, ctx)
    assert x**-2 == to_padic(1, ctx) / (x * x)


def _agreement_reference(a, b):
    """agreement_valuation as a residue formula of its own: both operands
    mod p^(m - vmin) with m the joint precision and vmin <= 0 their least
    valuation. The library takes the valuation of a - b instead."""
    if a.context != b.context:
        raise PreconditionError("operands belong to different p-adic contexts")
    joint = min(a.abs_precision, b.abs_precision)
    if joint == INFINITY:
        return INFINITY
    m = int(joint)
    vmin = min([0] + [x.valuation for x in (a, b) if not x.is_zero])
    p = a.context.p
    span = p ** (m - vmin)
    ra = 0 if a.is_zero else a.unit * p ** (a.valuation - vmin) % span
    rb = 0 if b.is_zero else b.unit * p ** (b.valuation - vmin) % span
    d = (ra - rb) % span
    return m if d == 0 else vmin + valuation(d, p)


def _random_padic(rng, ctx):
    if rng.random() < 0.1:
        return PadicNumber.zero(ctx)
    p, digits = ctx.p, rng.randint(1, ctx.precision)
    unit = rng.randrange(1, p**digits)
    return PadicNumber(ctx, rng.randint(-3, 3), unit + (unit % p == 0), digits)


def test_agreement_valuation():
    ctx = PadicContext(5, 3)
    assert agreement_valuation(to_padic(1, ctx), to_padic(6, ctx)) == 1
    assert agreement_valuation(to_padic(1, ctx), to_padic(26, ctx)) == 2
    assert agreement_valuation(to_padic(1, ctx), to_padic(126, ctx)) == 3
    # equal inputs agree to the joint precision, a lower bound only
    assert agreement_valuation(to_padic(1, ctx), to_padic(1, ctx)) == 3
    z = to_padic(0, ctx)
    assert agreement_valuation(z, z) == INFINITY
    # negative-valuation operands
    a = to_padic(F(1, 5), ctx)
    b = to_padic(F(1, 5) + 5, ctx)
    assert agreement_valuation(a, b) == 1

    # differential grid against the residue formula
    rng = random.Random(9)
    contexts = [PadicContext(p, M) for p in (3, 5, 7) for M in (1, 2, 4, 6)]
    seen = set()
    for _ in range(3000):
        ctx = rng.choice(contexts)
        a = _random_padic(rng, ctx)
        kind = rng.choice(("random", "equal", "near", "context"))
        if kind == "random":
            b = _random_padic(rng, ctx)
        elif kind == "context":
            b = _random_padic(rng, rng.choice(contexts))
        elif a.is_zero:
            b = a
        else:  # equal, or a unit part that differs first at digit j
            j = ctx.precision if kind == "equal" else rng.randint(1, ctx.precision)
            unit = a.unit + rng.randrange(1, ctx.p) * ctx.p**j
            b = PadicNumber(ctx, a.valuation, unit, rng.randint(1, ctx.precision))
        try:
            expected = _agreement_reference(a, b)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as err:
                agreement_valuation(a, b)
            assert str(err.value) == str(exc)
            seen.add("context")
            continue
        got = agreement_valuation(a, b)
        assert got == expected and type(got) is type(expected), (a, b)
        joint = min(a.abs_precision, b.abs_precision)
        seen.add("infinite" if got == INFINITY else "capped" if got == joint else "exact")
        if got < 0:
            seen.add("negative")
    assert seen == {"context", "infinite", "capped", "exact", "negative"}


def test_log_exp_round_trip():
    ctx = PadicContext(3, 8)
    x = to_padic(4, ctx)
    lg = padic_log(x)
    assert lg.valuation >= 1
    assert padic_exp(lg) == x
    y = to_padic(10, ctx)
    assert padic_log(x * y) == padic_log(x) + padic_log(y)


def test_padic_pow_consistency():
    ctx = PadicContext(5, 6)
    x = to_padic(6, ctx)
    assert padic_pow(x, 7) == x**7
    s = to_padic(7, ctx)
    assert agreement_valuation(padic_pow(x, s), x**7) >= 5
    assert padic_pow(x, to_padic(0, ctx)) == to_padic(1, ctx)


def test_padic_pow_requires_one_unit():
    ctx = PadicContext(5, 6)
    x = to_padic(2, ctx)  # not ≡ 1 mod 5
    with pytest.raises(PreconditionError):
        padic_pow(x, to_padic(3, ctx))


def test_teichmuller():
    ctx = PadicContext(5, 2)
    assert teichmuller(2, ctx).unit == 7
    assert teichmuller(4, ctx).unit == 24
    assert teichmuller(1, ctx) == to_padic(1, ctx)
    ctx8 = PadicContext(7, 8)
    for x in range(1, 7):
        w = teichmuller(x, ctx8)
        assert w**6 == to_padic(1, ctx8)
        assert w.valuation == 0 and w.unit % 7 == x
    with pytest.raises(PreconditionError):
        teichmuller(10, PadicContext(5, 3))
    # 9 is not prime, so the lift breaks its invariants: an InternalError,
    # not an assert that python -O would strip
    with pytest.raises(InternalError):
        _teichmuller_unit(2, 9, 2)


@settings(deadline=None)
@given(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.sampled_from([3, 5, 7]),
)
def test_valuation_ultrametric(a, b, p):
    va, vb, vs = valuation(a, p), valuation(b, p), valuation(a + b, p)
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@settings(deadline=None)
@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
)
def test_to_padic_ring_homomorphism(a, b):
    ctx = PadicContext(5, 6)
    if a.denominator % 5 == 0 or b.denominator % 5 == 0:
        return
    try:
        assert to_padic(a, ctx) + to_padic(b, ctx) == to_padic(a + b, ctx)
    except PrecisionExhaustedError:
        assert valuation(a + b, 5) >= 6 - max(
            0, -min(valuation(a, 5), valuation(b, 5))
        )
    if a != 0 and b != 0:
        assert to_padic(a, ctx) * to_padic(b, ctx) == to_padic(a * b, ctx)

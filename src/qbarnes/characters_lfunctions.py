"""Dirichlet characters, twisted H-numbers, and the p-adic L-function.

A character's values are ints; `lift` picks the scalars. With no context
(rational mode) the values are -1, 0 and 1 (order <= 2) and `lift` is the
identity, so every computation stays exact; with a PadicContext
(teichmuller mode) they are residues mod p^M whose (p-1)-st power is 1,
which is what the omega-twists used in interpolation need, and `lift` embeds
an exact rational as a PadicNumber at that context. Weights are exact
products of table values, lifted once with the term they weight. Twisting
chi by omega^k bumps the modulus to lcm(d, p).

The two L-value routes are deliberately independent: `l_riemann` sums the
defining integral over the p-adic units at level N, with the one Riemann
loop of `padic_integration` run in p-adic numbers, while `l_at_negative`
evaluates the closed form with its Euler-like correction factor at u^p, q^p.
The interpolation suite compares them. `l_riemann_run` serves a run of
(s, chi) over several levels in one pass over the points, taking each
<a1 x : q> once; `l_riemann` is its one-term, one-level case.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Sequence

from .errors import InternalError, PreconditionError
from .exact_numbers import (
    PadicContext,
    PadicNumber,
    Rational,
    agreement_valuation,
    padic_pow,
    padic_sum,
    teichmuller,
    to_padic,
    valuation,
)
from .euler_barnes import _integer_a, refinement
from .padic_integration import DEFAULT_BUDGET, AdmissibleU, riemann_sums


class DirichletCharacter:
    """A character mod d, stored as its full value table.

    values[x] is chi(x) for 0 <= x < d, an int; zero exactly off the units,
    chi(1) = 1 and multiplicative. Without a context (rational mode) the
    value set is {-1, 0, 1}, so the order divides 2; with one (teichmuller
    mode) the values are residues mod p^M that are (p-1)-st roots of unity,
    and multiplicative mod p^M. Values are ints; `lift` picks the scalars.
    """

    __slots__ = ("modulus", "values", "context")

    def __init__(self, modulus, values, context: PadicContext | None = None):
        if modulus < 1:
            raise PreconditionError("modulus must be >= 1", parameter="d")
        values = tuple(values)
        if len(values) != modulus:
            raise PreconditionError(
                f"need exactly {modulus} values, got {len(values)}", parameter="values"
            )
        self.modulus = modulus
        self.context = context
        values = tuple(Fraction(v) for v in values)
        if context is None:
            if any(v not in (-1, 0, 1) for v in values):
                raise PreconditionError(
                    "rational-mode values must lie in {-1, 0, 1}", parameter="values"
                )
        elif any(v.denominator != 1 for v in values):
            raise PreconditionError(
                "teichmuller-mode values must be integers", parameter="values"
            )
        self.values = tuple(int(v) for v in values)
        if context is not None:
            mod = context.modulus
            self.values = tuple(v % mod for v in self.values)
            if any(v != 0 and pow(v, context.p - 1, mod) != 1 for v in self.values):
                raise PreconditionError(
                    "teichmuller-mode values must be (p-1)-st roots of unity",
                    parameter="values",
                )
        self._validate()

    def _validate(self) -> None:
        d, chi = self.modulus, self.values
        for x in range(d):
            on_units = gcd(x, d) == 1
            if on_units == (chi[x] == 0):
                raise PreconditionError(
                    f"chi({x}) must be {'nonzero' if on_units else 'zero'}",
                    parameter="values",
                )
        if chi[1 % d] != 1:
            raise PreconditionError("chi(1) must be 1", parameter="values")
        mod = None if self.context is None else self.context.modulus
        units = [x for x in range(d) if gcd(x, d) == 1]
        for a in units:
            for b in units:
                product = chi[a] * chi[b]
                if chi[a * b % d] != (product % mod if mod else product):
                    raise PreconditionError(
                        "character table is not multiplicative", parameter="values"
                    )

    # -- constructors -------------------------------------------------------

    @classmethod
    def trivial(cls, modulus: int) -> "DirichletCharacter":
        return cls(modulus, [1 if gcd(x, modulus) == 1 else 0 for x in range(modulus)])

    @classmethod
    def quadratic(cls, modulus: int) -> "DirichletCharacter":
        """The quadratic character mod 3 or mod 4."""
        if modulus == 3:
            return cls(3, [0, 1, -1])
        if modulus == 4:
            return cls(4, [0, 1, 0, -1])
        raise PreconditionError(
            "built-in quadratic characters exist for d in {3, 4}", parameter="d"
        )

    @classmethod
    def teichmuller_character(cls, context: PadicContext) -> "DirichletCharacter":
        """omega itself as a character mod p: the trivial character twisted once."""
        return twist_teichmuller(cls.trivial(1), 1, context)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x: int) -> int:
        """Table lookup at x mod d, an int; zero off the units."""
        return self.values[x % self.modulus]

    def lift(self, x: Rational | int) -> Rational | int | PadicNumber:
        """x in the character's own scalars: x itself in rational mode, its
        PadicNumber image at the character's context otherwise. The one
        place the two modes differ: chi(x) is an int in both."""
        if self.context is None:
            return x
        return to_padic(x, self.context)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.values == other.values
            and self.context == other.context
        )

    def __repr__(self) -> str:
        mode = "rational" if self.context is None else "teichmuller"
        return f"DirichletCharacter(mod {self.modulus}, {mode})"


def _check_char_context(chi: DirichletCharacter, context: PadicContext) -> None:
    if chi.context is not None and chi.context != context:
        raise PreconditionError(
            "character belongs to a different p-adic context", parameter="char"
        )


def twist_teichmuller(
    chi: DirichletCharacter, k: int, context: PadicContext
) -> DirichletCharacter:
    """chi * omega^k as a teichmuller-mode character mod lcm(d, p): the
    product of the two int tables, mod p^M."""
    p, mod = context.p, context.modulus
    _check_char_context(chi, context)
    L = chi.modulus * p // gcd(chi.modulus, p)
    e = k % (p - 1)
    vals = [
        chi(x) * pow(teichmuller(x, context).unit, e, mod) % mod if gcd(x, L) == 1 else 0
        for x in range(L)
    ]
    return DirichletCharacter(L, vals, context)


# ---------------------------------------------------------------------------
# twisted H-numbers


def h_chi(
    k: int,
    r: int,
    a: tuple[int, ...],
    u: Rational,
    q: Rational,
    chi: DirichletCharacter,
):
    """Twisted numbers H_{k,chi}^(r)(u, q | a): the terms of the order-d
    `refinement` of H_k(0, u, q | a) (see `euler_barnes`) over i in the
    support of chi, weighted by chi(i_1)..chi(i_r). For d = 1 this is H_k.

    The weights are int products of table values; the sum runs in the
    character's scalars, which `lift` picks (`_twisted_sum`), each term
    normalized by the refinement itself, so a teichmuller-mode sum that
    cancels every tracked digit reports the modulus of H_{k,chi}.

    A u^d = 1 or q^d = 1 fault wins over k < 0, which wins over an r or a_j one.
    """
    support = [i for i in range(chi.modulus) if chi(i) != 0]
    refined = refinement(k, 0, a, u, q, chi.modulus)
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    _integer_a(a, r)
    weights = [
        (prod(map(chi, iv)), iv) for iv in itertools.product(support, repeat=r)
    ]
    return _twisted_sum(chi, refined, weights)


def _twisted_sum(
    chi: DirichletCharacter, refined: Callable, weights: list
) -> Rational | PadicNumber:
    """sum cv refined([(1, i)]) over the pairs (cv, i) in `weights`, in chi's
    scalars. The weights cv are ints, products of table values; `lift`
    picks the scalars. In rational mode the refinement takes all the terms
    in one batch, an exact rational. In teichmuller mode each exact term
    cv refined([(1, i)]) is computed alone and lifted once (cv is a unit,
    so this is the PadicNumber product of the two lifts), and the terms
    are added in one pass (`padic_sum`): partial sums that cancel exactly
    lose no precision, and the sum is known to its least term's."""
    if chi.context is None:
        return refined(weights)
    terms = [chi.lift(cv * refined([(1, iv)])) for cv, iv in weights]
    return padic_sum(terms, chi.context)


# ---------------------------------------------------------------------------
# unit projection <x : q> = [x : q] / omega(x)


def angle_bracket(x: int, q: Rational, context: PadicContext) -> PadicNumber:
    """<x : q> = [x : q] / omega(x) for a unit x and q ≡ 1 (mod p).

    [x : q] is computed exactly mod p^M by working mod p^(M+e) with
    e = nu_p(q - 1): lifting-the-exponent gives nu_p(1 - q^x) = e for unit
    x, so one division by p^e costs exactly the headroom e. The unit
    [x : q] omega(x)^-1 mod p^M is an int, with omega(x) read from
    `teichmuller`, and the one PadicNumber is built from it: a principal
    unit (≡ 1 mod p), the base `padic_pow` needs.
    """
    p, M = context.p, context.precision
    if gcd(x, p) != 1:
        raise PreconditionError("x must be a p-adic unit", parameter="x")
    q = Fraction(q)
    if q == 1:
        num, den = x, 1
    else:
        e = int(valuation(q - 1, p))
        if e < 1:
            raise PreconditionError("q ≡ 1 (mod p) required", parameter="q")
        big = p ** (M + e)
        qU = q.numerator * pow(q.denominator, -1, big) % big
        num = (1 - pow(qU, x, big)) % big // p**e
        den = (1 - qU) % big // p**e
        if num % p == 0 or den % p == 0:
            raise InternalError("lifting-the-exponent valuation bookkeeping broke")
    mod = p**M
    unit = num * pow(den * teichmuller(x, context).unit, -1, mod) % mod
    # [x : q] ≡ x and omega(x) ≡ x (mod p), so a failure here is a library bug
    if unit % p != 1:
        raise InternalError("<x : q> is not ≡ 1 (mod p)")
    return PadicNumber(context, 0, unit, M)


# ---------------------------------------------------------------------------
# the p-adic L-function, by two routes


def _tame_part(d: int, p: int) -> int:
    return d // p ** valuation(d, p)


def _check_l_inputs(
    chi: DirichletCharacter, u: AdmissibleU, a1: int, context: PadicContext
) -> None:
    """The preconditions every L-value route shares."""
    if u.p != context.p:
        raise PreconditionError("u and the context disagree on p", parameter="p")
    if gcd(a1, context.p) != 1:
        raise PreconditionError("a1 must be a p-adic unit", parameter="a")
    _check_char_context(chi, context)


def l_riemann(
    s: int | PadicNumber,
    chi: DirichletCharacter,
    u: AdmissibleU,
    q: Rational,
    a1: int,
    context: PadicContext,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> PadicNumber:
    """Level-N Riemann sum of the defining integral over the units:

    (1 / [D p^N : u]) sum over x < D p^N with p coprime to x of
        chi(x) <a1 x : q>^(-s) u^x

    D is the prime-to-p part of the character modulus; the p-part must be
    resolved by the level, i.e. the character modulus divides D p^N. The
    sum runs in p-adic numbers at the context: each unit x adds
    padic_pow(<a1 x : q>, -s) chi(x) u^x to a running total, which is
    divided once by the normaliser. The one-(s, chi), one-level case of
    `l_riemann_run`.
    """
    return l_riemann_run([(s, chi)], u, q, a1, context, (N,), budget)[0][0]


def l_riemann_run(
    terms: Sequence[tuple[int | PadicNumber, DirichletCharacter]], u: AdmissibleU, q: Rational,
    a1: int, context: PadicContext, levels: Sequence[int], budget: int = DEFAULT_BUDGET,
) -> list[list[PadicNumber]]:
    """`l_riemann(s, chi, u, q, a1, context, N, budget)` for each (s, chi)
    in `terms` and each N in `levels`: one list of level sums per term.

    Every (s, chi, N) is checked as `l_riemann` checks it, term by term,
    before any point is summed; the budget and the poles of the normalisers
    come next. The sums are one `riemann_sums` pass in p-adic numbers at
    the context, over x < D p^N for the largest D p^N of any term:
    <a1 x : q> is taken once per unit x at which some chi(x) is nonzero,
    each term adds padic_pow(<a1 x : q>, -s) chi(x) u^x to its own total,
    with the same PadicNumber operations as one `l_riemann` call, and each
    level is read off at its own D p^N and divided by its normaliser. So
    every digit is that of the call for the term and level alone. A sum
    that vanishes identically raises `InternalError`.
    """
    p = context.p
    lift = functools.partial(to_padic, context=context)
    rows, moduli, period = [], [], p
    for s, chi in terms:
        _check_l_inputs(chi, u, a1, context)
        D = _tame_part(chi.modulus, p)
        for N in levels:
            if N < 1:
                raise PreconditionError("N must be >= 1", parameter="level-N")
            if D * p**N % chi.modulus != 0:
                raise PreconditionError(
                    "the level does not resolve the character's p-part", parameter="level-N"
                )
        rows.append((-s if isinstance(s, PadicNumber) else -int(s), chi))
        moduli.append([D * p**N for N in levels])
        period = lcm(period, chi.modulus)
    # which terms x has, and their chi(x), depend on x mod the period alone
    live = [
        [(i, neg_s, lift(chi(x))) for i, (neg_s, chi) in enumerate(rows) if chi(x)] if x % p else []
        for x in range(period)
    ]

    def integrand(x: int) -> list[tuple[int, PadicNumber]]:
        at_x = live[x % period]
        if not at_x:
            return at_x
        bracket = angle_bracket(a1 * x, q, context)
        return [(i, padic_pow(bracket, neg_s) * cv) for i, neg_s, cv in at_x]

    points = sorted({m for ms in moduli for m in ms})
    sums = dict(zip(points, riemann_sums(integrand, len(terms), u, points, budget, lift=lift)))
    out = [[sums[m][i] for m in ms] for i, ms in enumerate(moduli)]
    if any(total.is_zero for row in out for total in row):
        raise InternalError("unit-restricted sum vanished identically")
    return out


def _l_negative_exact(
    k: int, chi: DirichletCharacter, u: Rational, q: Rational, a1: int, p: int
) -> Rational | PadicNumber:
    """L(-k) in the character's scalars: an exact rational for a rational-mode
    character, a PadicNumber at its context for a teichmuller-mode one.

    The Euler term chi(p) [p:q]^k (1-u)/(1-u^p) H_{k,chi}(u^p, q^p | a1),
    with d the modulus, is the order-pd `refinement` of H_k(0, u, q | a1) at
    the indices p i, weighted chi(p) chi(i): [p:q] [d:q^p] = [pd:q], so the
    two prefactors combine into the order-pd one, which the refinement
    applies itself. It is summed like H_{k,chi} (`_twisted_sum`), after it.
    """
    main = h_chi(k, 1, (a1,), u, q, chi)
    if chi(p) == 0:
        return main
    d, cp = chi.modulus, chi(p)
    weights = [(cp * chi(i), (p * i,)) for i in range(d) if chi(i) != 0]
    return main - _twisted_sum(chi, refinement(k, 0, (a1,), u, q, p * d), weights)


def l_at_negative(
    k: int,
    chi: DirichletCharacter,
    u: AdmissibleU,
    q: Rational,
    a1: int,
    context: PadicContext,
) -> PadicNumber:
    """Closed form at s = -k:

    L(-k, chi) = H_{k,chi}(u, q | a1)
                 - chi(p) [p:q]^k ((1-u)/(1-u^p)) H_{k,chi}(u^p, q^p | a1)

    Interpolates the level sums of <a1 x:q>^k chi omega^k against mu_u when
    omega(a1) = 1 (in particular for a1 ≡ 1 mod p).
    """
    _check_l_inputs(chi, u, a1, context)
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    value = _l_negative_exact(k, chi, u.u, Fraction(q), a1, context.p)
    return value if isinstance(value, PadicNumber) else to_padic(value, context)


def kummer_check(
    k: int,
    k2: int,
    n: int,
    chi: DirichletCharacter,
    u: AdmissibleU,
    q: Rational,
    a1: int,
    context: PadicContext,
) -> int | float:
    """nu_p(L(-k) - L(-k2)) of `_l_negative_exact`, at least n by the Kummer
    congruence when k ≡ k2 mod (p-1) p^n: exact for a rational-mode
    character, not capped at the context precision, and `agreement_valuation`,
    capped there, for a teichmuller-mode one.
    """
    p = context.p
    _check_l_inputs(chi, u, a1, context)
    if n < 1:
        raise PreconditionError("n must be >= 1", parameter="n")
    if (k2 - k) % ((p - 1) * p**n) != 0:
        raise PreconditionError(
            f"hypothesis needs k ≡ k2 mod (p-1) p^{n}", parameter="k"
        )
    if context.precision < n + 1:
        raise PreconditionError(
            "context precision too small to witness the congruence",
            parameter="precision",
        )
    la, lb = (_l_negative_exact(j, chi, u.u, Fraction(q), a1, p) for j in (k, k2))
    if chi.context is None:
        return valuation(la - lb, p)
    return agreement_valuation(la, lb)

"""Dirichlet characters, twisted H-numbers, and the p-adic L-function.

A character's values live in its own scalars, fixed by its context. With
no context they are the rationals {-1, 0, 1} (order <= 2), and every
computation stays exact; with a PadicContext they are unit residues mod p^M
whose (p-1)-st power is 1, which is what the omega-twists used in
interpolation need. `lift` embeds a rational in those scalars. Twisting chi
by omega^k bumps the modulus to lcm(d, p).

The two L-value routes are deliberately independent: `l_riemann` sums the
defining integral over the p-adic units at level N, with the one Riemann
sum of `padic_integration` run in p-adic numbers, while `l_at_negative`
evaluates the closed form with its Euler-like correction factor at u^p, q^p.
The interpolation suite compares them.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd
from typing import Callable

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
from .padic_integration import DEFAULT_BUDGET, AdmissibleU, riemann_integral

_RATIONAL_VALUES = (Fraction(-1), Fraction(0), Fraction(1))


class DirichletCharacter:
    """A character mod d, stored as its full value table.

    values[x] is chi(x) for 0 <= x < d; zero exactly off the units. Without
    a context (rational mode) the value set is {-1, 0, 1}, so the order
    divides 2; with one (teichmuller mode) the values are integer residues
    mod p^M that are (p-1)-st roots of unity.
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
        if context is None:
            values = tuple(Fraction(v) for v in values)
            if any(v not in _RATIONAL_VALUES for v in values):
                raise PreconditionError(
                    "rational-mode values must lie in {-1, 0, 1}", parameter="values"
                )
        else:
            mod = context.modulus
            values = tuple(int(v) % mod for v in values)
            if any(v != 0 and pow(v, context.p - 1, mod) != 1 for v in values):
                raise PreconditionError(
                    "teichmuller-mode values must be (p-1)-st roots of unity",
                    parameter="values",
                )
        self.values = values
        self._validate()

    def _validate(self) -> None:
        d = self.modulus
        for x in range(d):
            on_units = gcd(x, d) == 1
            if on_units == (self.values[x] == 0):
                raise PreconditionError(
                    f"chi({x}) must be {'nonzero' if on_units else 'zero'}",
                    parameter="values",
                )
        chi = [self.value(x) for x in range(d)]
        if chi[1 % d] != self.lift(Fraction(1)):
            raise PreconditionError("chi(1) must be 1", parameter="values")
        units = [x for x in range(d) if gcd(x, d) == 1]
        for a in units:
            for b in units:
                if chi[a * b % d] != chi[a] * chi[b]:
                    raise PreconditionError(
                        "character table is not multiplicative", parameter="values"
                    )

    # -- constructors -------------------------------------------------------

    @classmethod
    def trivial(cls, modulus: int) -> "DirichletCharacter":
        return cls(
            modulus,
            [Fraction(1) if gcd(x, modulus) == 1 else Fraction(0) for x in range(modulus)],
        )

    @classmethod
    def quadratic(cls, modulus: int) -> "DirichletCharacter":
        """The quadratic character mod 3 or mod 4."""
        if modulus == 3:
            return cls(3, [Fraction(0), Fraction(1), Fraction(-1)])
        if modulus == 4:
            return cls(4, [Fraction(0), Fraction(1), Fraction(0), Fraction(-1)])
        raise PreconditionError(
            "built-in quadratic characters exist for d in {3, 4}", parameter="d"
        )

    @classmethod
    def teichmuller_character(cls, context: PadicContext) -> "DirichletCharacter":
        """omega itself as a character mod p: the trivial character twisted once."""
        return twist_teichmuller(cls.trivial(1), 1, context)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x: int):
        """Table lookup at x mod d; zero off the units."""
        return self.values[x % self.modulus]

    def lift(self, x: Rational) -> Rational | PadicNumber:
        """x in the character's own scalars: the rational itself in rational
        mode, its PadicNumber image at the character's context otherwise."""
        if self.context is None:
            return x
        return to_padic(x, self.context)

    def value(self, x: int) -> Rational | PadicNumber:
        """chi(x) in the character's own scalars (see `lift`)."""
        return self.lift(self(x))

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
    """chi * omega^k as a teichmuller-mode character mod lcm(d, p)."""
    p, M = context.p, context.precision
    mod = p**M
    _check_char_context(chi, context)
    d = chi.modulus
    L = d * p // gcd(d, p)
    vals = []
    for x in range(L):
        if gcd(x, L) != 1:
            vals.append(0)
            continue
        w = pow(teichmuller(x, context).unit, k % (p - 1), mod)
        vals.append(int(chi(x)) * w % mod)
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

    The sum runs in the character's scalars (`_twisted_sum`), each term
    normalized by the refinement itself, so a teichmuller-mode sum that
    cancels every tracked digit reports the modulus of H_{k,chi}.

    A u^d = 1 or q^d = 1 fault wins over k < 0, which wins over an r or a_j one.
    """
    support = [i for i in range(chi.modulus) if chi(i) != 0]
    refined = refinement(k, 0, a, u, q, chi.modulus)
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    _integer_a(a, r)
    one = chi.lift(Fraction(1))
    weights = []
    for iv in itertools.product(support, repeat=r):
        cv = one
        for ij in iv:
            cv = cv * chi.value(ij)
        weights.append((cv, iv))
    return _twisted_sum(chi, refined, weights)


def _twisted_sum(
    chi: DirichletCharacter, refined: Callable, weights: list
) -> Rational | PadicNumber:
    """sum cv refined([(1, i)]) over the pairs (cv, i) in `weights`, in chi's
    scalars. In rational mode the weights are rationals, and the refinement
    takes all the terms in one batch, an exact rational. In teichmuller mode
    each term is computed alone and embedded once by `chi.lift`, and the
    terms are added in one pass (`padic_sum`), so partial sums that cancel
    exactly lose no precision."""
    if chi.context is None:
        return refined(weights)
    terms = [cv * chi.lift(refined([(1, iv)])) for cv, iv in weights]
    return padic_sum(terms, chi.context)


# ---------------------------------------------------------------------------
# unit projection <x : q> = [x : q] / omega(x)


def angle_bracket(x: int, q: Rational, context: PadicContext) -> PadicNumber:
    """<x : q> = [x : q] / omega(x) for a unit x and q ≡ 1 (mod p).

    [x : q] is computed exactly mod p^M by working mod p^(M+e) with
    e = nu_p(q - 1): lifting-the-exponent gives nu_p(1 - q^x) = e for unit
    x, so one division by p^e costs exactly the headroom e. The result is a
    principal unit (≡ 1 mod p), the base `padic_pow` needs.
    """
    p, M = context.p, context.precision
    if gcd(x, p) != 1:
        raise PreconditionError("x must be a p-adic unit", parameter="x")
    q = Fraction(q)
    if q == 1:
        bracket = to_padic(x, context)
    else:
        e = int(valuation(q - 1, p))
        if e < 1:
            raise PreconditionError("q ≡ 1 (mod p) required", parameter="q")
        big = p ** (M + e)
        qU = q.numerator * pow(q.denominator, -1, big) % big
        num = (1 - pow(qU, x, big)) % big
        den = (1 - qU) % big
        num_unit = num // p**e
        den_unit = den // p**e
        if num_unit % p == 0 or den_unit % p == 0:
            raise InternalError("lifting-the-exponent valuation bookkeeping broke")
        bracket = PadicNumber(
            context, 0, num_unit * pow(den_unit, -1, p**M), M
        )
    projection = bracket / teichmuller(x, context)
    # [x : q] ≡ x and omega(x) ≡ x (mod p), so a failure here is a library bug
    if projection.valuation != 0 or projection.unit % p != 1:
        raise InternalError("<x : q> is not ≡ 1 (mod p)")
    return projection


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
    resolved by the level, i.e. the character modulus divides D p^N. The sum
    is `riemann_integral` of chi(x) <a1 x : q>^(-s), zero off the units, in
    p-adic numbers at the context.
    """
    p = context.p
    _check_l_inputs(chi, u, a1, context)
    if N < 1:
        raise PreconditionError("N must be >= 1", parameter="level-N")
    D = _tame_part(chi.modulus, p)
    if D * p**N % chi.modulus != 0:
        raise PreconditionError(
            "the level does not resolve the character's p-part", parameter="level-N"
        )
    if isinstance(s, PadicNumber):
        neg_s: int | PadicNumber = -s
    else:
        neg_s = -int(s)
    lift = functools.partial(to_padic, context=context)
    chi_values = [lift(chi(x)) for x in range(chi.modulus)]
    zero = PadicNumber.zero(context)

    def integrand(x: int) -> PadicNumber:
        cv = chi_values[x % chi.modulus]
        if x % p == 0 or cv.is_zero:
            return zero
        return padic_pow(angle_bracket(a1 * x, q, context), neg_s) * cv

    total = riemann_integral(integrand, u, D, N, budget, lift=lift)
    if total.is_zero:
        raise InternalError("unit-restricted sum vanished identically")
    return total


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
    d, cp = chi.modulus, chi.value(p)
    weights = [(cp * chi.value(i), (p * i,)) for i in range(d) if chi(i) != 0]
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

"""Dirichlet characters, twisted H-numbers, and the p-adic L-function.

Characters come in two value modes. `rational` restricts to order <= 2
(values in {-1, 0, 1}) and keeps every computation in exact rationals;
`teichmuller` stores unit residues mod p^M whose (p-1)-st power is 1, which
is what the omega-twists used in interpolation need. Twisting chi by
omega^k bumps the modulus to lcm(d, p).

The two L-value routes are deliberately independent: `l_riemann` sums the
defining integral over the p-adic units at level N, while `l_at_negative`
evaluates the closed form with its Euler-like correction factor at u^p, q^p.
The interpolation and Kummer suites compare them.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .errors import InternalError, PoleError, PreconditionError
from .exact_numbers import (
    PadicContext,
    PadicNumber,
    Rational,
    agreement_valuation,
    padic_pow,
    teichmuller,
    to_padic,
    valuation,
)
from .euler_barnes import BarnesParams, h_closed
from .padic_integration import DEFAULT_BUDGET, AdmissibleU, _check_budget
from .qnum import FractionalArg, QBase, qbracket, qbracket_z

_RATIONAL_VALUES = (Fraction(-1), Fraction(0), Fraction(1))


class DirichletCharacter:
    """A character mod d, stored as its full value table.

    values[x] is chi(x) for 0 <= x < d; zero exactly off the units. Rational
    mode fixes the value set to {-1, 0, 1} (so the order divides 2);
    teichmuller mode stores integer residues mod p^M that are (p-1)-st roots
    of unity, tied to a PadicContext.
    """

    __slots__ = ("modulus", "mode", "values", "context")

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
            self.mode = "rational"
            values = tuple(Fraction(v) for v in values)
            if any(v not in _RATIONAL_VALUES for v in values):
                raise PreconditionError(
                    "rational-mode values must lie in {-1, 0, 1}", parameter="values"
                )
        else:
            self.mode = "teichmuller"
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
    def from_generator(
        cls,
        modulus: int,
        generator: int,
        image,
        context: PadicContext | None = None,
    ) -> "DirichletCharacter":
        """Build a character of a cyclic unit group by chi(generator) = image.

        chi(1) ends as image^phi(d): an image of the wrong order fails there.
        """
        units = [x for x in range(modulus) if gcd(x, modulus) == 1]
        exponent = {1 % modulus: 0}
        x = 1 % modulus
        for j in range(1, len(units) + 1):
            x = x * generator % modulus
            exponent[x] = j
        if len(exponent) != len(units):
            raise PreconditionError(
                f"{generator} does not generate the units mod {modulus}",
                parameter="generator",
            )
        return cls(
            modulus,
            [image ** exponent[x] if x in exponent else 0 for x in range(modulus)],
            context,
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
        v = self.values[x % self.modulus]
        if self.context is None:
            return v
        if v == 0:
            return PadicNumber.zero(self.context)
        return PadicNumber(self.context, 0, v, self.context.precision)

    def padic_value(self, x: int, context: PadicContext) -> PadicNumber:
        """chi(x) as a PadicNumber at `context`."""
        if self.mode == "rational":
            return to_padic(self(x), context)
        if context != self.context:
            raise PreconditionError("character belongs to a different p-adic context")
        return self.value(x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.mode == other.mode
            and self.values == other.values
            and self.context == other.context
        )

    def __repr__(self) -> str:
        return f"DirichletCharacter(mod {self.modulus}, {self.mode})"


def twist_teichmuller(
    chi: DirichletCharacter, k: int, context: PadicContext
) -> DirichletCharacter:
    """chi * omega^k as a teichmuller-mode character mod lcm(d, p)."""
    p, M = context.p, context.precision
    mod = p**M
    if chi.mode == "teichmuller" and chi.context != context:
        raise PreconditionError("character belongs to a different p-adic context")
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
    """Twisted numbers H_{k,chi}^(r)(u, q | a) via the modulus-d expansion:

    (1-u)^r [d:q]^k / (1-u^d)^r *
        sum over i in {0..d-1}^r of chi(i_1)..chi(i_r) u^(|i|)
            H_k((a.i)/d, u^d, q^d | a)

    For d = 1 this collapses to the untwisted H_k. The sum runs in the
    character's scalars: exact rationals in rational mode, a PadicNumber in
    teichmuller mode, with each term embedded once by `chi.lift`.
    """
    a = tuple(int(x) for x in a)
    if r != len(a):
        raise PreconditionError("r must equal len(a)", parameter="r")
    u = Fraction(u)
    q = Fraction(q)
    d = chi.modulus
    ud = u**d
    if ud == 1:
        raise PoleError("u^d = 1", parameter="u")
    if q == 1:
        raise PreconditionError("q = 1; use the classical route", parameter="q")
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    base = QBase(q, d)
    params = BarnesParams(a, ud, base)
    prefactor = (1 - u) ** r * qbracket(d, q) ** k / (1 - ud) ** r

    support = [i for i in range(d) if chi(i) != 0]
    one = chi.lift(Fraction(1))
    total = chi.lift(Fraction(0))
    for iv in itertools.product(support, repeat=r):
        cv = one
        for ij in iv:
            cv = cv * chi.value(ij)
        warg = FractionalArg(sum(aj * ij for aj, ij in zip(a, iv)), d)
        total = total + cv * chi.lift(u ** sum(iv) * h_closed(k, warg, params))
    return chi.lift(prefactor) * total


# ---------------------------------------------------------------------------
# unit projection <x : q> = [x : q] / omega(x)


class UnitProjection:
    """A principal unit: the value is ≡ 1 (mod p) by construction."""

    __slots__ = ("value",)

    def __init__(self, value: PadicNumber):
        p = value.context.p
        if value.is_zero or value.valuation != 0 or value.unit % p != 1:
            raise PreconditionError(
                "unit projection must be ≡ 1 (mod p); check gcd(x, p) and q ≡ 1 (mod p)",
                parameter="x",
            )
        self.value = value

    def __repr__(self) -> str:
        return f"UnitProjection({self.value!r})"


def angle_bracket(x: int, q: Rational, context: PadicContext) -> UnitProjection:
    """<x : q> = [x : q] / omega(x) for a unit x and q ≡ 1 (mod p).

    [x : q] is computed exactly mod p^M by working mod p^(M+e) with
    e = nu_p(q - 1): lifting-the-exponent gives nu_p(1 - q^x) = e for unit
    x, so one division by p^e costs exactly the headroom e.
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
    return UnitProjection(bracket / teichmuller(x, context))


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
    if chi.mode == "teichmuller" and chi.context != context:
        raise PreconditionError(
            "character belongs to a different p-adic context", parameter="char"
        )


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
    resolved by the level, i.e. the character modulus divides D p^N.
    """
    p = context.p
    _check_l_inputs(chi, u, a1, context)
    if N < 1:
        raise PreconditionError("N must be >= 1", parameter="level-N")
    D = _tame_part(chi.modulus, p)
    m = D * p**N
    if m % chi.modulus != 0:
        raise PreconditionError(
            "the level does not resolve the character's p-part", parameter="level-N"
        )
    _check_budget(m, budget)
    if isinstance(s, PadicNumber):
        neg_s: int | PadicNumber = -s
    else:
        neg_s = -int(s)
    up = to_padic(u.u, context)
    upow = to_padic(1, context)
    acc = PadicNumber.zero(context)
    for x in range(m):
        if x:
            upow = upow * up
        if gcd(x, p) != 1:
            continue
        cv = chi.padic_value(x, context)
        if cv.is_zero:
            continue
        ab = angle_bracket(a1 * x, q, context)
        acc = acc + padic_pow(ab.value, neg_s) * cv * upow
    if acc.is_zero:
        raise InternalError("unit-restricted sum vanished identically")
    return acc / to_padic(qbracket_z(m, u.u), context)


def _l_negative_exact(
    k: int, chi: DirichletCharacter, u: Rational, q: Rational, a1: int, p: int
) -> Rational | PadicNumber:
    """L(-k) in the character's scalars: an exact rational for a rational-mode
    character, a PadicNumber at its context for a teichmuller-mode one."""
    main = h_chi(k, 1, (a1,), u, q, chi)
    if chi(p) == 0:
        return main
    scale = chi.lift(qbracket(p, q) ** k * (1 - u) / (1 - u**p))
    return main - chi.value(p) * scale * h_chi(k, 1, (a1,), u**p, q**p, chi)


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
) -> bool:
    """L(-k) ≡ L(-k2) mod p^n whenever k ≡ k2 mod (p-1) p^n.

    Rational-mode characters are checked with the exact valuation of the
    rational difference, which is not capped at the context precision;
    teichmuller-mode ones with `agreement_valuation`, capped there.
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
    q = Fraction(q)
    if chi.mode == "rational":
        diff = _l_negative_exact(k, chi, u.u, q, a1, p) - _l_negative_exact(
            k2, chi, u.u, q, a1, p
        )
        return valuation(diff, p) >= n
    va = l_at_negative(k, chi, u, q, a1, context)
    vb = l_at_negative(k2, chi, u, q, a1, context)
    return agreement_valuation(va, vb) >= n

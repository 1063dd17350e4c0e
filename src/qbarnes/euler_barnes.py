"""q-deformed Euler-Barnes numbers and polynomials, by four exact routes.

H_n^(r)(w, u, q | a_1..a_r) is computed from its finite closed form

    (1-u)^r / (1-q)^n * sum_{l=0..n} C(n,l) (-1)^l q^(lw)
                        prod_j 1/(1 - q^(l a_j) u)

plus three independent cross-checking routes: a binomial addition formula
in w, the Carlitz umbral recurrence for the r=1 numbers, and a closed-form
rational function of q whose value at q = 1 is the classical Frobenius-Euler
limit. Keeping the routes separate is the point: identity suites compare
them rather than trusting any single one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence

from .errors import InternalError, PoleError, PreconditionError
from .exact_numbers import Rational
from .qnum import FractionalArg, QBase, qbracket, rational_power

# ---------------------------------------------------------------------------
# dense univariate polynomials over Fraction: the rational-function route
# assembles over Z and returns its result in this form


class Poly:
    """Coefficient list, low degree first, no trailing zeros; () is zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Rational]):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def const(cls, value: Rational) -> "Poly":
        return cls([value])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the usual convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Rational:
        if self.is_zero:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f, df = _cleared(self)
        g, dg = _cleared(other)
        den = df * dg
        return Poly([Fraction(x, den) for x in _int_mul(f, g)])

    def scale(self, c: Rational) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly(())
        return Poly([c * x for x in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, q: Rational) -> Rational:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        lead = other.leading
        quo = [Fraction(0)] * max(len(rem) - dq, 0)
        for i in range(len(rem) - dq - 1, -1, -1):
            c = rem[i + dq] / lead
            if c == 0:
                continue
            quo[i] = c
            for j, y in enumerate(other.coeffs):
                rem[i + j] -= c * y
        return Poly(quo), Poly(rem)

    def divexact(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise InternalError("expected exact polynomial division, got a remainder")
        return q

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def _int_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists, low degree first.

    The package's one convolution loop. Zero coefficients are skipped, so a
    product with a two-term factor costs two passes over the other operand.
    """
    if not f or not g:
        return []
    fs = [(i, x) for i, x in enumerate(f) if x]
    gs = [(j, y) for j, y in enumerate(g) if y]
    out = [0] * (len(f) + len(g) - 1)
    for j, y in gs:
        for i, x in fs:
            out[i + j] += x * y
    return out


def _cleared(f: Poly) -> tuple[list[int], int]:
    """(integer coefficients, den) with f = integer polynomial / den."""
    den = 1
    for c in f.coeffs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in f.coeffs], den


def _integer_primitive(f: Poly) -> list[int]:
    """Integer coefficient list of f scaled to primitive (content 1)."""
    if f.is_zero:
        return []
    ints = _cleared(f)[0]
    g = _int_content(ints)
    return [x // g for x in ints]


# Machine primes for the coprimality probe. deg gcd mod P >= deg gcd over Q
# whenever P divides neither leading coefficient, so a probe degree of 0
# certifies coprimality outright.
_PROBE_PRIMES = (2305843009213693951, 2147483647, 999999937)


def _gcd_degree_mod_p(f: list[int], g: list[int], P: int) -> int:
    a = [c % P for c in f]
    b = [c % P for c in g]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, P)
        # a mod b in GF(P)
        for i in range(len(a) - len(b), -1, -1):
            c = a[i + len(b) - 1] * inv % P
            if c:
                for j, y in enumerate(b):
                    a[i + j] = (a[i + j] - c * y) % P
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) - 1


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Integer pseudo-remainder of f by g (lc(g)^(deg f - deg g + 1) f mod g)."""
    r = list(f)
    d = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= d and r:
        if r[-1] == 0:
            r.pop()
            continue
        lead = r[-1]
        r = [lg * c for c in r]
        shift = len(r) - 1 - d
        for j, y in enumerate(g):
            r[shift + j] -= lead * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _int_content(f: list[int]) -> int:
    g = 0
    for x in f:
        g = gcd(g, x)
    return g


def _primitive_prs_gcd(f: list[int], g: list[int]) -> list[int]:
    a, b = f, g
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        if r:
            c = _int_content(r)
            r = [x // c for x in r]
        a, b = b, r
    return a


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q: fast modular coprimality probe, exact PRS fallback."""
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    F = _integer_primitive(f)
    G = _integer_primitive(g)
    for P in _PROBE_PRIMES:
        if F[-1] % P and G[-1] % P:
            if _gcd_degree_mod_p(F, G, P) == 0:
                return Poly.const(1)
            break
    h = _primitive_prs_gcd(F, G)
    return Poly(h).monic()


class RationalFunctionQ:
    """Reduced fraction of polynomials in q with a monic denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator: Poly):
        if denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        if numerator.is_zero:
            self.numerator = Poly(())
            self.denominator = Poly.const(1)
            return
        # shared monomial factor q^k, common after clearing negative powers
        k = 0
        while numerator.coeffs[k] == 0 and denominator.coeffs[k] == 0:
            k += 1
        if k:
            numerator = Poly(numerator.coeffs[k:])
            denominator = Poly(denominator.coeffs[k:])
        g = poly_gcd(numerator, denominator)
        if g.degree > 0:
            numerator = numerator.divexact(g)
            denominator = denominator.divexact(g)
        lead = denominator.leading
        self.numerator = numerator.scale(1 / lead)
        self.denominator = denominator.scale(1 / lead)

    def __call__(self, q: Rational) -> Rational:
        den = self.denominator(q)
        if den == 0:
            raise PoleError(f"rational function has a pole at q = {q}", parameter="q")
        return self.numerator(q) / den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __repr__(self) -> str:
        return f"RationalFunctionQ({self.numerator!r} / {self.denominator!r})"


# ---------------------------------------------------------------------------
# parameter bundle


@dataclass(frozen=True)
class BarnesParams:
    """The (a_1..a_r, u, q) triple every H-route shares.

    u = 0 and u = 1 are degenerate (the closed form's prefactor or all its
    denominator factors collapse); a_j = 0 likewise. q may be any QBase,
    including one with exponent > 1 for fractional-argument work.
    """

    a: tuple[int, ...]
    u: Rational
    q: QBase

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        object.__setattr__(self, "u", Fraction(self.u))
        if len(self.a) < 1:
            raise PreconditionError("need at least one a_j", parameter="a")
        if any(aj == 0 for aj in self.a):
            raise PreconditionError("every a_j must be nonzero", parameter="a")
        if self.u == 0 or self.u == 1:
            raise PreconditionError("u must avoid 0 and 1", parameter="u")
        if not isinstance(self.q, QBase):
            q = self.q
            object.__setattr__(self, "q", QBase(Fraction(q)))

    @property
    def r(self) -> int:
        return len(self.a)


# ---------------------------------------------------------------------------
# route 1: the finite closed form


def h_closed(n: int, w: FractionalArg | int, params: BarnesParams) -> Rational:
    """H_n^(r)(w, u, q | a) from the (n+1)-term closed form.

    Fractional w = m/f needs f to divide the base exponent of q, so q^(lw)
    is an integer power of the root.
    """
    if n < 0:
        raise PreconditionError("n must be >= 0", parameter="n")
    w = FractionalArg.coerce(w)
    q = params.q
    qv = q.value
    if qv == 1:
        raise PreconditionError("q = 1; use limit_q_to_1", parameter="q")
    if q.exponent % w.denominator != 0:
        from .errors import ExponentAlignmentError

        raise ExponentAlignmentError(
            f"w = {w.numerator}/{w.denominator} needs its denominator to "
            f"divide the base exponent {q.exponent}",
            parameter="w",
        )
    step = q.exponent // w.denominator
    u = params.u
    root_pow: dict[int, Rational] = {}

    def rpow(e: int) -> Rational:
        if e not in root_pow:
            root_pow[e] = q.power(e)
        return root_pow[e]

    total = Fraction(0)
    for l in range(n + 1):
        term = Fraction(comb(n, l))
        if l % 2:
            term = -term
        term *= rpow(l * w.numerator * step)
        for j, aj in enumerate(params.a):
            factor = 1 - rpow(l * aj * q.exponent) * u
            if factor == 0:
                raise PoleError(
                    f"pole 1 - q^(l a_j) u = 0 at l={l}, j={j}", parameter="u"
                )
            term /= factor
        total += term
    return (1 - u) ** params.r / (1 - qv) ** n * total


# ---------------------------------------------------------------------------
# route 2: addition formula in w


def h_addition(n: int, w: int, params: BarnesParams) -> Rational:
    """H_n(w) = sum_k C(n,k) [w:q]^(n-k) q^(wk) H_k(0); integer w only."""
    if n < 0:
        raise PreconditionError("n must be >= 0", parameter="n")
    qv = params.q.value
    bw = qbracket(w, qv)
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            comb(n, k)
            * bw ** (n - k)
            * rational_power(qv, w * k)
            * h_closed(k, 0, params)
        )
    return total


# ---------------------------------------------------------------------------
# route 3: Carlitz umbral recurrence (r = 1 numbers, parameter u inverted)


def h_carlitz(k: int, u: Rational, q: Rational) -> Rational:
    """H_k(u) from (qH + 1)^m = u H_m for m >= 1, H_0 = 1.

    Solving for H_m pivots on (u - q^m); u equal to any q^m up to k is a
    pole of the recurrence.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    u = Fraction(u)
    q = Fraction(q)
    values = [Fraction(1)]
    for m in range(1, k + 1):
        pivot = u - rational_power(q, m)
        if pivot == 0:
            raise PoleError(f"vanishing pivot u = q^{m} in the recurrence", parameter="u")
        acc = Fraction(0)
        for i in range(m):
            acc += comb(m, i) * rational_power(q, i) * values[i]
        values.append(acc / pivot)
    return values[k]


# ---------------------------------------------------------------------------
# route 4: closed-form rational function of q, and the q -> 1 limit

_FACTOR_Q = ("q",)  # the monomial q itself, from cleared negative powers


def _int_factor(key: tuple, c: int, d: int) -> list[int]:
    """Integer coefficients of a denominator factor at u = c/d, times d.

    The monomial q carries no u, so it is not scaled.
    """
    if key == _FACTOR_Q:
        return [0, 1]
    kind, m = key
    if kind == "A":  # d (1 - u q^m) = d - c q^m, m > 0
        return [d] + [0] * (m - 1) + [-c]
    if kind == "B":  # d (q^m - u) = d q^m - c, m > 0 (cleared form of 1 - u q^-m)
        return [-c] + [0] * (m - 1) + [d]
    raise InternalError(f"unknown factor key {key!r}")


def _divexact_q_minus_1(f: list[int]) -> list[int]:
    """f / (q - 1) over Z by synthetic division from the top."""
    out = [0] * (len(f) - 1)
    carry = 0
    for i in range(len(f) - 1, 0, -1):
        carry += f[i]
        out[i - 1] = carry
    if f and carry + f[0]:
        raise InternalError("expected exact polynomial division, got a remainder")
    return out


def h_rational_in_q(
    n: int, w: int, r: int, a: Sequence[int], u: Rational
) -> RationalFunctionQ:
    """H_n^(r)(w, u, q | a) as a reduced rational function of q.

    Assembled over an explicit least-common-denominator factor multiset so no
    generic polynomial gcd ever runs on the structured products; the factor
    (1-q)^n in the prefactor divides the assembled numerator exactly (the
    q -> 1 limit exists), which is enforced by synthetic division with a
    zero-remainder check. Numerator and denominator are built over Z and
    become a `Poly` only once, for the reduction.
    """
    a = tuple(int(x) for x in a)
    u = Fraction(u)
    if r != len(a):
        raise PreconditionError("r must equal len(a)", parameter="r")
    if len(a) < 1 or any(x == 0 for x in a):
        raise PreconditionError("every a_j must be nonzero", parameter="a")
    if u == 0 or u == 1:
        raise PreconditionError("u must avoid 0 and 1", parameter="u")
    if n < 0:
        raise PreconditionError("n must be >= 0", parameter="n")

    # Per-term denominator factor multisets and numerator monomial shifts.
    term_factors: list[dict[tuple, int]] = []
    term_shift: list[int] = []
    for l in range(n + 1):
        fac: dict[tuple, int] = {}
        shift = 0
        exp_w = l * w
        if exp_w >= 0:
            shift += exp_w
        else:
            fac[_FACTOR_Q] = fac.get(_FACTOR_Q, 0) - exp_w
        for aj in a:
            m = l * aj
            if m == 0:
                continue  # constant (1-u), folded into the scalar below
            if m > 0:
                key = ("A", m)
            else:
                key = ("B", -m)
                shift += -m
            fac[key] = fac.get(key, 0) + 1
        term_factors.append(fac)
        term_shift.append(shift)

    lcm: dict[tuple, int] = {}
    for fac in term_factors:
        for key, mult in fac.items():
            lcm[key] = max(lcm.get(key, 0), mult)

    # With u = c/d, each factor other than q is an integer polynomial over d.
    # Let E count those factors in the common denominator, with multiplicity.
    # Term l carries d^(r - z_l) from its scalar (1-u)^(r - z_l) and
    # d^(E - (r - z_l)) from its missing factors: d^E for every term, the
    # same power the denominator carries. So d^E cancels, and both sides are
    # assembled from the d-scaled factors of `_int_factor`.
    c, d = u.numerator, u.denominator
    factor_powers: dict[tuple, list[list[int]]] = {}

    def fpow(key: tuple, k: int) -> list[int]:
        pows = factor_powers.setdefault(key, [[1]])
        while len(pows) <= k:
            pows.append(_int_mul(pows[-1], _int_factor(key, c, d)))
        return pows[k]

    numerator: list[int] = []
    for l in range(n + 1):
        # scalar: C(n,l)(-1)^l (d-c)^(r - z_l) with z_l the count of l*a_j = 0
        z = sum(1 for aj in a if l * aj == 0)
        scalar = comb(n, l) * (d - c) ** (r - z)
        if l % 2:
            scalar = -scalar
        piece = [0] * term_shift[l] + [scalar]
        for key, mult in lcm.items():
            missing = mult - term_factors[l].get(key, 0)
            if missing:
                piece = _int_mul(piece, fpow(key, missing))
        if len(numerator) < len(piece):
            numerator.extend([0] * (len(piece) - len(numerator)))
        for i, x in enumerate(piece):
            numerator[i] += x

    denominator = [1]
    for key, mult in lcm.items():
        denominator = _int_mul(denominator, fpow(key, mult))

    # Strip (1-q)^n = (-1)^n (q-1)^n from the numerator by synthetic division.
    for _ in range(n):
        numerator = _divexact_q_minus_1(numerator)
    if n % 2:
        numerator = [-x for x in numerator]

    rf = RationalFunctionQ(Poly(numerator), Poly(denominator))
    amax = max(abs(x) for x in a)
    bound = n * max(abs(w), 1) + r * amax * n * (n + 1) // 2 + n
    if rf.numerator.degree > bound or rf.denominator.degree > bound:
        raise InternalError("reduced degree exceeds the provable bound")
    if rf.denominator(Fraction(1)) == 0:
        raise InternalError("denominator vanishes at q = 1 after reduction")
    return rf


def limit_q_to_1(n: int, w: int, r: int, a: Sequence[int], u: Rational) -> Rational:
    """Classical Frobenius-Euler limit: evaluate the reduced form at q = 1."""
    return h_rational_in_q(n, w, r, a, u)(Fraction(1))


# ---------------------------------------------------------------------------
# the distribution relation, returned as an exact residual


def distribution_check(n: int, w: int, f: int, params: BarnesParams) -> Rational:
    """LHS - RHS of the order-f distribution relation; 0 when it holds.

    LHS: H_n(w, u, q | a) / (u-1)^r.
    RHS: [f:q]^n sum over i in {0..f-1}^r of u^(|i|)
         H_n((w + a.i)/f, u^f, q^f | a) / (u^f - 1)^r.
    """
    if f < 1:
        raise PreconditionError("f must be >= 1", parameter="f")
    if params.q.exponent != 1:
        raise PreconditionError(
            "distribution check needs a base with exponent 1", parameter="q"
        )
    u = params.u
    uf = u**f
    if uf == 1:
        raise PoleError("u^f = 1 makes both sides singular", parameter="u")
    qv = params.q.value
    lhs = h_closed(n, w, params) / (u - 1) ** params.r
    fine = BarnesParams(params.a, uf, QBase(params.q.root, f))
    total = Fraction(0)
    for iv in itertools.product(range(f), repeat=params.r):
        warg = FractionalArg(w + sum(aj * ij for aj, ij in zip(params.a, iv)), f)
        total += u ** sum(iv) * h_closed(n, warg, fine)
    rhs = qbracket(f, qv) ** n * total / (uf - 1) ** params.r
    return lhs - rhs

"""q-deformed Euler-Barnes numbers and polynomials, by four exact routes.

H_n^(r)(w, u, q | a_1..a_r) is computed from its finite closed form

    (1-u)^r / (1-q)^n * sum_{l=0..n} C(n,l) (-1)^l q^(lw)
                        prod_j 1/(1 - q^(l a_j) u)

plus three independent cross-checking routes: a binomial addition formula
in w, the Carlitz umbral recurrence for the r=1 numbers, and a closed-form
rational function of q whose value at q = 1 is the classical Frobenius-Euler
limit. Keeping the routes separate is the point: identity suites compare
them rather than trusting any single one.

The closed form (route 1) sums its n+1 terms as integer fractions over a
balanced product tree and reduces once at the end; it still calls no other
route.

The rational function (route 4) is built over Z in one loop over the terms.
With u = c/d, each nonzero exponent m = l a_j contributes one denominator
factor keyed by the signed integer m: d - c q^m for m > 0, and the cleared
d q^|m| - c for m < 0, whose q^|m| moves to the numerator. The common
denominator is the union of the per-term factor counts, times the power of q
that makes every numerator piece an integer polynomial.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence

from .errors import ExponentAlignmentError, InternalError, PoleError, PreconditionError
from .exact_numbers import Rational
from .qnum import FractionalArg, QBase, qbracket, rational_power

# ---------------------------------------------------------------------------
# integer polynomials, low degree first: the rational-function route builds
# and reduces its numerator and denominator over Z; `Poly` only holds the
# monic result, over Fraction


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


def _int_divexact(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g over Z by long division from the top; g has a nonzero top.

    The package's one exact-division routine: a leading quotient that is not
    an integer, or a nonzero remainder, raises `InternalError`.
    """
    rem = list(f)
    dg = len(g) - 1
    lead = g[-1]
    gs = [(j, y) for j, y in enumerate(g) if y]
    quo = [0] * max(len(rem) - dg, 0)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + dg], lead)
        if r:
            raise InternalError("expected exact polynomial division, got a remainder")
        if c:
            quo[i] = c
            for j, y in gs:
                rem[i + j] -= c * y
    if any(rem):
        raise InternalError("expected exact polynomial division, got a remainder")
    return quo


def _cleared(f: Poly) -> tuple[list[int], int]:
    """(integer coefficients, den) with f = integer polynomial / den."""
    den = 1
    for c in f.coeffs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in f.coeffs], den


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


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content; f nonzero."""
    c = _int_content(f)
    return [x // c for x in f]


def _primitive_prs_gcd(f: list[int], g: list[int]) -> list[int]:
    a, b = f, g
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        if r:
            r = _primitive(r)
        a, b = b, r
    return a


def _int_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of two nonzero primitive integer polynomials.

    A modular probe certifies the common case, coprimality, and returns [1];
    otherwise the primitive PRS runs. By Gauss's lemma the result divides f
    and g exactly over Z.
    """
    for P in _PROBE_PRIMES:
        if f[-1] % P and g[-1] % P:
            if _gcd_degree_mod_p(f, g, P) == 0:
                return [1]
            break
    return _primitive_prs_gcd(f, g)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q of two `Poly`s, by `_int_gcd` on their primitive parts."""
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    return Poly(_int_gcd(_primitive(_cleared(f)[0]), _primitive(_cleared(g)[0]))).monic()


def _stripped(f: Sequence[int]) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


class RationalFunctionQ:
    """Reduced fraction of polynomials in q with a monic denominator.

    Built from integer coefficient lists, low degree first, and reduced over
    Z: the shared power of q and the contents come off, then the primitive
    gcd is divided out exactly. `Fraction`s appear only in the monic
    `Poly` numerator and denominator that hold the result.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Sequence[int], denominator: Sequence[int]):
        num = _stripped(numerator)
        den = _stripped(denominator)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.numerator = Poly(())
            self.denominator = Poly.const(1)
            return
        # shared monomial factor q^k, common after clearing negative powers
        k = 0
        while num[k] == 0 and den[k] == 0:
            k += 1
        num, den = num[k:], den[k:]
        cn, cd = _int_content(num), _int_content(den)
        num = [x // cn for x in num]
        den = [x // cd for x in den]
        g = _int_gcd(num, den)
        if len(g) > 1:
            num = _int_divexact(num, g)
            den = _int_divexact(den, g)
        lead = cd * den[-1]
        self.numerator = Poly([Fraction(cn * x, lead) for x in num])
        self.denominator = Poly([Fraction(cd * x, lead) for x in den])

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
    is an integer power of the root. The sum runs over Z: with root = s/t
    and u = c/d, each factor 1/(1 - root^M u) is t^M d / (t^M d - s^M c)
    (s and t swapped for M < 0), so term l is C(n,l)(-1)^l d^r s^A_l t^B_l
    over an integer D_l. Shifting every A_l and B_l by their minimum leaves
    integer numerators, a product tree adds the n+1 fractions, and one
    `Fraction` reduces the result.
    """
    if n < 0:
        raise PreconditionError("n must be >= 0", parameter="n")
    w = FractionalArg.coerce(w)
    q = params.q
    if q.value == 1:
        raise PreconditionError("q = 1; use limit_q_to_1", parameter="q")
    if q.exponent % w.denominator != 0:
        raise ExponentAlignmentError(
            f"w = {w.numerator}/{w.denominator} needs its denominator to "
            f"divide the base exponent {q.exponent}",
            parameter="w",
        )
    e = q.exponent
    step = e // w.denominator
    s, t = q.root.numerator, q.root.denominator
    c, d = params.u.numerator, params.u.denominator
    # q = 0 has no poles, and l = 1 is the first term with a nonzero power
    if s == 0 and n > 0 and (w.numerator < 0 or min(params.a) < 0):
        raise PreconditionError("0 cannot be raised to a negative power", parameter="q")

    # term l = (-1)^l C(n,l) s^A t^B / D, the common d^r left out
    terms: list[tuple[int, int, int, int]] = []
    for l in range(n + 1):
        W = l * w.numerator * step
        A, B, D = W, -W, 1
        for j, aj in enumerate(params.a):
            M = l * aj * e
            if M >= 0:
                factor = t**M * d - s**M * c
                B += M
            else:
                factor = s**-M * d - t**-M * c
                A -= M
            if factor == 0:
                raise PoleError(
                    f"pole 1 - q^(l a_j) u = 0 at l={l}, j={j}", parameter="u"
                )
            D *= factor
        C = comb(n, l)
        terms.append((-C if l % 2 else C, A, B, D))
    # term 0 has A = B = 0, so both minima are <= 0
    a_min = min(A for _, A, _, _ in terms)
    b_min = min(B for _, _, B, _ in terms)
    num, den = _sum_fractions(
        [(C * s ** (A - a_min) * t ** (B - b_min), D) for C, A, B, D in terms]
    )
    # (1-u)^r d^r = (d-c)^r and 1/(1-q)^n = t^(en) / (t^e - s^e)^n
    shift = e * n + b_min
    num *= (d - c) ** params.r * t ** max(shift, 0)
    den *= (t**e - s**e) ** n * s**-a_min * t ** max(-shift, 0)
    return Fraction(num, den)


def _sum_fractions(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of the fractions N/D in `terms` as one unreduced (N, D).

    Adjacent pairs are added level by level (binary splitting), so the big
    products are balanced and the cost follows fast multiplication rather
    than growing quadratically with the size of the result.
    """
    while len(terms) > 1:
        paired = [
            (a * d + c * b, b * d) for (a, b), (c, d) in zip(terms[::2], terms[1::2])
        ]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]


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

def h_rational_in_q(
    n: int, w: int, r: int, a: Sequence[int], u: Rational
) -> RationalFunctionQ:
    """H_n^(r)(w, u, q | a) as a reduced rational function of q.

    With u = c/d, term l is C(n,l)(-1)^l (d-c)^k q^E / prod F_m over the k
    exponents m = l a_j that are nonzero: F_m = d - c q^m for m > 0, and
    F_m = d q^|m| - c for m < 0, whose cleared q^|m| joins E = l w +
    sum_{m<0} |m|. The common denominator takes each F_m, keyed by the signed
    m, at its largest multiplicity in any term, times q^(-min E); so every
    numerator piece is an integer polynomial. The factor (1-q)^n of the
    prefactor divides the sum exactly (the q -> 1 limit exists), which
    `_int_divexact` enforces. `RationalFunctionQ` then reduces the two integer
    lists over Z; `Poly` only holds its monic result.
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

    c, d = u.numerator, u.denominator
    terms: list[tuple[Counter[int], int]] = []
    for l in range(n + 1):
        ms = Counter(l * aj for aj in a if l * aj)
        terms.append((ms, l * w - sum(m for m in ms.elements() if m < 0)))
    common: Counter[int] = Counter()
    for ms, _ in terms:
        common |= ms
    # term 0 has E = 0, so e_min <= 0
    e_min = min(e for _, e in terms)

    powers: dict[int, list[list[int]]] = {}

    def fpow(m: int, k: int) -> list[int]:
        pows = powers.setdefault(m, [[1]])
        gap = [0] * (abs(m) - 1)
        factor = [d, *gap, -c] if m > 0 else [-c, *gap, d]
        while len(pows) <= k:
            pows.append(_int_mul(pows[-1], factor))
        return pows[k]

    numerator: list[int] = []
    for l, (ms, e) in enumerate(terms):
        piece = [0] * (e - e_min) + [(-1) ** l * comb(n, l) * (d - c) ** ms.total()]
        for m, mult in common.items():
            missing = mult - ms.get(m, 0)
            if missing:
                piece = _int_mul(piece, fpow(m, missing))
        if len(numerator) < len(piece):
            numerator.extend([0] * (len(piece) - len(numerator)))
        for i, x in enumerate(piece):
            numerator[i] += x

    denominator = [0] * -e_min + [1]
    for m, mult in common.items():
        denominator = _int_mul(denominator, fpow(m, mult))

    one_minus_q_n = [comb(n, k) * (-1) ** k for k in range(n + 1)]
    rf = RationalFunctionQ(_int_divexact(numerator, one_minus_q_n), denominator)
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

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
balanced product tree; it still calls no other route. Small merges add
without reducing; once a merge's denominators pass a size constant, it
reduces as it adds (Knuth's gcd split), so the root of a large sum comes
out reduced rather than paying one gcd of the whole unreduced pair. Such a
root is then multiplied by the normalization with the cross-reduction of
`Fraction._mul`, and `exact_numbers.coprime_fraction` stores the coprime
result without a further gcd; a sum too small for any merge to reduce
takes one `Fraction` of the normalized pair. Its one loop (`_closed_form`) also takes a
weighted batch sum_i c_i H_n(w_i): term l's denominator D_l depends on l,
a, u and q but not on w, so each D_l is built once, the arguments change
only the numerators, and the batch costs one tree, not one per argument.
Nor does D_l depend on n: the loop serves a run of n (`h_closed_run`) with
one set of D_l, for the largest n, and one tree per n; `h_closed` is the
run of one n.

The rational function (route 4) is built over Z. With u = c/d, each
nonzero exponent m = l a_j contributes one denominator factor keyed by the
signed integer m: d - c q^m for m > 0, and the cleared d q^|m| - c for
m < 0, whose q^|m| moves to the numerator. The common denominator is the
union of the per-term factor counts, times the power of q that makes every
numerator piece an integer polynomial; the pieces are summed over a product
tree, each merge bringing its two sides over the union of their counts,
with route 1's level-by-level pairing loop (`_pairwise`). One modular gcd
(`_int_gcd`: images mod large primes, combined by the Chinese remainder
theorem and certified by exact division) reduces the result; at the first
prime, the common, coprime case is certified one denominator factor at a
time, in linear passes over the numerator (`_coprime_mod`).

The order-f refinement is the distribution relation H_n(w, u, q | a) =
(1-u)^r [f:q]^n / (1-u^f)^r sum_{i in {0..f-1}^r} u^|i| H_n((w + a.i)/f,
u^f, q^f | a). `distribution_check` tests it, the moment measure of a cell
of modulus f is its term i = (x,) over 1-u, H_{k,chi} weights its terms by
chi(i_1)..chi(i_r), and the Euler factor of L(-k) is the order-pd
refinement at the indices p i. `refinement_run` alone builds the refined
base for a run of n, and rejects u^f = 1 and q^f = 1, for all of them:
`distribution_run` checks a run of n in one pass, and `refinement` is the
run of one n. It hands each caller's
batch of indices to route 1 as one weighted sum, and route 1 normalizes it
in its final integer step: the refined closed form's own (1-u^f)^r /
(1-q^f)^n times the prefactor is (1-u)^r / (1-q)^n, so no caller builds
or multiplies a prefactor. The f^r terms of `distribution_check`, the d^r
of a rational-mode H_{k,chi} and the p fine cells of a measure additivity
check share one tree, while a teichmuller-mode H_{k,chi} takes its terms
one at a time, to embed each one in Z_p.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ExponentAlignmentError, InternalError, PoleError, PreconditionError
from .exact_numbers import Frozen, Rational, coprime_fraction, is_prime
from .qnum import FractionalArg, QBase, qbracket, rational_power

# ---------------------------------------------------------------------------
# integer polynomials, low degree first: the rational-function route builds
# and reduces its numerator and denominator over Z; `Poly` only holds the
# monic result, over Fraction


class Poly:
    """Coefficient list, low degree first, no trailing zeros; () is zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Rational]):
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the usual convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __mul__(self, other: "Poly") -> "Poly":
        f, df = _over_common_denominator(self.coeffs)
        g, dg = _over_common_denominator(other.coeffs)
        den = df * dg
        return Poly([Fraction(x, den) for x in _int_mul(f, g)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, q: Rational) -> Rational:
        """The value at q = s/t, by Horner over Z on the coefficients A_i / D:
        sum A_i s^i t^(deg-i) / (D t^deg), one `Fraction` at the end."""
        if self.is_zero:
            return Fraction(0)
        q = Fraction(q)
        s, t = q.numerator, q.denominator
        coeffs, den = _over_common_denominator(self.coeffs)
        acc, t_pow = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            t_pow *= t
            acc = acc * s + c * t_pow
        return Fraction(acc, den * t_pow)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def _over_common_denominator(coeffs: Sequence[Rational]) -> tuple[list[int], int]:
    """Integers A_n and D > 0 with coeffs[n] = A_n / D, D the lcm of the
    denominators (1 for no coefficients)."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _int_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists, low degree first.

    The full, untruncated convolution (`TruncatedSeries.__mul__` has the
    truncated one). Zero coefficients are skipped, so a product with a
    two-term factor costs two passes over the other operand.
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


def _int_quotient(f: Sequence[int], g: Sequence[int]) -> list[int] | None:
    """f / g over Z by long division from the top, or None if g does not
    divide f exactly; g has a nonzero top.

    The package's one long-division loop. It stops at the first leading
    quotient that is not an integer.
    """
    rem = list(f)
    dg = len(g) - 1
    lead = g[-1]
    gs = [(j, y) for j, y in enumerate(g) if y]
    quo = [0] * max(len(rem) - dg, 0)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + dg], lead)
        if r:
            return None
        if c:
            quo[i] = c
            for j, y in gs:
                rem[i + j] -= c * y
    return None if any(rem) else quo


# (c, d, ms): a denominator's binomial factors, with u = c/d (`_coprime_mod`)
Factors = tuple[int, int, Iterable[int]]


def _gcd_mod(f: list[int], g: list[int], P: int) -> list[int]:
    """Monic gcd of f and g in GF(P)[q] by Euclid; P divides neither top."""
    a = [c % P for c in f]
    b = [c % P for c in g]
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
    inv = pow(a[-1], -1, P)
    return [c * inv % P for c in a]


def _int_content(f: list[int]) -> int:
    g = 0
    for x in f:
        g = gcd(g, x)
    return g


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content; f nonzero."""
    c = _int_content(f)
    return [x // c for x in f]


def _coprime_mod(f: list[int], g: list[int], factors: Factors, P: int) -> bool:
    """Whether f and g are coprime in GF(P)[q], for g a constant times q^k0
    times powers of F_m = d - c q^m (m > 0) and d q^|m| - c (m < 0) over the
    distinct m of `factors` = (c, d, ms); P divides neither c, d nor a top.

    Mod P, F_m is a unit times q^|m| - rho, rho = d/c for m > 0 and c/d for
    m < 0: f is folded mod it in one pass, against the powers of rho built
    as running products mod P, and the gcd of the remainder with it has
    degree below |m|. k0 > 0 needs f(0) != 0 mod P.
    """
    c, d, ms = factors
    fp = [x % P for x in f]
    if not g[0] and not fp[0]:
        return False
    rho_pos, rho_neg = d * pow(c, -1, P) % P, c * pow(d, -1, P) % P
    for m in ms:
        M, rho = abs(m), rho_pos if m > 0 else rho_neg
        # f mod (q^M - rho): coefficient j is the sum of f[j + kM] rho^k
        rho_pows = [1]
        for _ in range(len(fp) // M):
            rho_pows.append(rho_pows[-1] * rho % P)
        rem = [sum(map(mul, fp[j::M], rho_pows)) % P for j in range(M)]
        if len(_gcd_mod([-rho, *[0] * (M - 1), 1], _stripped(rem), P)) > 1:
            return False
    return True


def _int_gcd(
    f: list[int], g: list[int], factors: Factors | None = None
) -> tuple[list[int], list[int], list[int]]:
    """(h, f / h, g / h) for h the primitive gcd of two nonzero primitive
    integer polynomials, by Brown's modular algorithm.

    For each prime P, going down from 2^61 - 1, that divides neither top,
    the monic gcd mod P has degree >= deg h. Degree 0 certifies coprimality
    at once, the common case, with one Euclid mod P. Given g's `factors`,
    the first such prime, if it divides neither c nor d, reaches that
    verdict in linear passes by `_coprime_mod` instead; any other verdict
    goes on with the Euclid, so the result is the same. Otherwise each
    image, scaled by gcd(lc f, lc g) so that it is the image of a fixed
    integer multiple of h, joins a CRT accumulator; a lower degree shows
    that every earlier prime was unlucky and restarts it, a higher one is
    skipped. The primitive part of the symmetric lift is h once it divides
    f and g exactly: a primitive common divisor of degree >= deg h is +-h.
    The two quotients of that certificate are returned with it.
    """
    lead = gcd(f[-1], g[-1])
    P, modulus, image = 2**61 - 1, 1, []
    while True:
        if f[-1] % P and g[-1] % P:
            if factors and factors[0] % P and factors[1] % P and _coprime_mod(f, g, factors, P):
                return [1], f, g
            factors = None
            h = _gcd_mod(f, g, P)
            if len(h) == 1:
                return [1], f, g
            if not image or len(h) < len(image):
                modulus, image = 1, [0] * len(h)
            if len(h) == len(image):
                t = pow(modulus, -1, P)
                image = [x + modulus * ((lead * y - x) * t % P) for x, y in zip(image, h)]
                modulus *= P
                lift = _primitive([x - modulus if 2 * x > modulus else x for x in image])
                f_quo = _int_quotient(f, lift)
                g_quo = None if f_quo is None else _int_quotient(g, lift)
                if g_quo is not None:
                    return lift, f_quo, g_quo
        P -= 2
        while not is_prime(P):
            P -= 2


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q of two `Poly`s, by `_int_gcd` on their primitive
    parts; the gcd with zero is the other one made monic, and zero's own is
    zero."""
    if f.is_zero or g.is_zero:
        h = _over_common_denominator((g if f.is_zero else f).coeffs)[0]
    else:
        fz, gz = (_primitive(_over_common_denominator(p.coeffs)[0]) for p in (f, g))
        h = _int_gcd(fz, gz)[0]
    return Poly([Fraction(x, h[-1]) for x in h])


def _stripped(f: Sequence[int]) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


class RationalFunctionQ:
    """Reduced fraction of polynomials in q with a monic denominator.

    Built from integer coefficient lists, low degree first, and reduced over
    Z: the shared power of q and the contents come off, then `_int_gcd`
    returns the two cofactors of the primitive gcd, sped up by the
    denominator's binomial `factors` where known (`_coprime_mod`).
    `Fraction`s appear only in the monic `Poly` numerator and denominator
    that hold the result.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(
        self, numerator: Sequence[int], denominator: Sequence[int], factors: Factors | None = None
    ):
        num = _stripped(numerator)
        den = _stripped(denominator)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.numerator = Poly(())
            self.denominator = Poly([1])
            return
        # shared monomial factor q^k, common after clearing negative powers
        k = 0
        while num[k] == 0 and den[k] == 0:
            k += 1
        num, den = num[k:], den[k:]
        cn, cd = _int_content(num), _int_content(den)
        num = [x // cn for x in num]
        den = [x // cd for x in den]
        _, num, den = _int_gcd(num, den, factors)
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
# parameter bundle, and the checks on a and u that every H-route shares


def _integer_a(a: Sequence[Rational], r: int) -> tuple[int, ...]:
    """a_1..a_r as ints: r must be len(a), and every a_j a nonzero integer; an
    entry equal to one is converted, any other (3/2, say) rejected, not rounded."""
    if r != len(a):
        raise PreconditionError("r must equal len(a)", parameter="r")
    ints = tuple(int(x) for x in a)
    if ints != tuple(a):
        raise PreconditionError("every a_j must be an integer", parameter="a")
    if not ints:
        raise PreconditionError("need at least one a_j", parameter="a")
    if 0 in ints:
        raise PreconditionError("every a_j must be nonzero", parameter="a")
    return ints


def _barnes_u(u: Rational) -> Fraction:
    """u as a Fraction; the closed form degenerates at u = 0 and u = 1."""
    u = Fraction(u)
    if u == 0 or u == 1:
        raise PreconditionError("u must avoid 0 and 1", parameter="u")
    return u


class BarnesParams(Frozen):
    """The (a_1..a_r, u, q) triple every H-route shares, a frozen value.

    a and u are checked, in that order, by `_integer_a` (a is stored as a
    tuple of ints) and `_barnes_u` (u as a Fraction). q may be any QBase,
    including one with exponent > 1 for fractional-argument work; any other
    q is read as a rational and wrapped in a QBase.
    """

    __slots__ = ("a", "u", "q")

    def __init__(self, a: Sequence[Rational], u: Rational, q: QBase | Rational):
        a = _integer_a(a, len(a))
        u = _barnes_u(u)
        if not isinstance(q, QBase):
            q = QBase(Fraction(q))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "q", q)

    @property
    def r(self) -> int:
        return len(self.a)


# ---------------------------------------------------------------------------
# route 1: the finite closed form


def h_closed(n: int, w: FractionalArg | int, params: BarnesParams) -> Rational:
    """H_n^(r)(w, u, q | a) from the (n+1)-term closed form, summed over Z
    as `_closed_form` describes: the one-n case of `h_closed_run`."""
    return _closed_form((n,), [(w.numerator, w.denominator)], None, 1, params, None)[0]


def h_closed_run(ns: Sequence[int], w: FractionalArg | int, params: BarnesParams) -> list[Rational]:
    """[H_n^(r)(w, u, q | a) for n in ns], in one pass of `_closed_form`:
    the D_l are built once, for the largest n, and each n takes its own
    tree. Fractional w = m/f needs f to divide the base exponent of q; an
    int w is w/1 (an int has a numerator and a denominator too). A negative
    n raises first; otherwise the run raises what its largest n alone
    would."""
    return _closed_form(ns, [(w.numerator, w.denominator)], None, 1, params, None)


def _root_exponent(n: int, m: int, f: int, e: int, s: int, a: tuple[int, ...]) -> int:
    """k with q^(lw) = root^(lk), for w = m/f, q = root^e and s the
    numerator of the root: k = m e / f, an integer only when f divides e."""
    if e % f != 0:
        raise ExponentAlignmentError(
            f"w = {m}/{f} needs its denominator to divide the base exponent {e}",
            parameter="w",
        )
    # q = 0 has no poles, and l = 1 is the first term with a nonzero power
    if s == 0 and n > 0 and (m < 0 or min(a) < 0):
        raise PreconditionError("0 cannot be raised to a negative power", parameter="q")
    return m * (e // f)


def _closed_form(
    ns: Sequence[int],
    args: Sequence[tuple[int, int]],
    weights: Sequence[int] | None,
    scale: int,
    params: BarnesParams,
    coarse_u: Fraction | None,
) -> list[Fraction]:
    """sum_i g_i H_n(m_i / f_i) / scale over the arguments (m_i, f_i), for
    integer weights g_i, for each n of the run `ns`; weights None is one
    argument with weight 1, which skips the batch pass. Route 1's one loop:
    `h_closed_run` and `h_closed` are its one-argument case, and the order-f
    `refinement_run` hands it each batch.

    `coarse_u` picks the normalization: None (`h_closed`) gives H_n itself,
    the sum times (1-u)^r / (1-q)^n. `refinement_run` passes its params as
    the refined base, u^f and q^f = root^f, and its own u as `coarse_u`;
    the sum is then times (1-u)^r / (1-root)^n, its prefactor times the
    refined closed form's own normalization.

    The sum runs over Z. With q = root^e, root = s/t and u = c/d, each
    factor 1/(1 - root^M u) is t^M d / (t^M d - s^M c) (s and t swapped for
    M < 0), and q^(lw) = root^(lk) (`_root_exponent`). So term l of H_n(w)
    is C(n,l)(-1)^l d^r s^(l alpha) t^(l beta) over an integer D_l, where
    alpha = k + e sum_{a_j<0} |a_j| and beta = e sum_{a_j>0} a_j - k, and
    only k depends on w. Each D_l is built once: term l of the batch takes
    C(n,l)(-1)^l s^(l (alpha - k + k_lo)) t^(l (beta + k - k_hi)) times the
    integer sum_k g_k s^(l(k - k_lo)) t^(l(k_hi - k)), the weights of equal
    k added, for k_lo and k_hi the least and largest k; a batch with one k
    is that k's terms times the summed weight. Shifting every exponent by
    its minimum over l leaves integer numerators.

    Only C(n,l), those shifts and the normalization depend on n: the D_l
    and the batch's integer sums are built once, for l up to the largest n
    of the run, and each n adds its own n+1 fractions over a product tree.
    While its D_l have fewer than `_REDUCE_BITS` bits together, no merge
    can pass it: the tree is plain (`_add_plain`) and one `Fraction`
    reduces the normalized pair. Otherwise `_add_fractions` reduces the
    merges past `_REDUCE_BITS`, and a root that no merge reduced takes one
    gcd. The normalization, reduced on its own, is then
    cross-reduced with the root as `Fraction._mul` does, which leaves a
    coprime pair for `coprime_fraction`: the result costs no gcd of the
    full pair.

    A negative n raises first. Otherwise a fault is that of the
    per-argument sum at the largest n: the first argument's, then a pole,
    which no argument changes, then the other arguments' in order.
    """
    if min(ns) < 0:
        raise PreconditionError("n must be >= 0", parameter="n")
    q = params.q
    if q.value == 1:
        raise PreconditionError("q = 1; use limit_q_to_1", parameter="q")
    e = q.exponent
    s, t = q.root.numerator, q.root.denominator
    c, d = params.u.numerator, params.u.denominator
    top = max(ns)
    k = _root_exponent(top, *args[0], e, s, params.a)

    # term l = (-1)^l C(n,l) s^(l alpha) t^(l beta) / D_l for args[0], the
    # common d^r left out: the root^(lk) of q^(lw), and the root^|M| that
    # each factor with M < 0 moves to the numerator; `terms` keeps
    # ((-1)^l, D_l), and C(n,l) comes in with n
    neg = sum(aj for aj in params.a if aj < 0)
    alpha, beta = k - e * neg, e * (sum(params.a) - neg) - k
    terms: list[tuple[int, int]] = []
    bits = [0]
    for l in range(top + 1):
        D = 1
        for j, aj in enumerate(params.a):
            M = l * aj * e
            factor = t**M * d - s**M * c if M >= 0 else s**-M * d - t**-M * c
            if factor == 0:
                raise PoleError(
                    f"pole 1 - q^(l a_j) u = 0 at l={l}, j={j}", parameter="u"
                )
            D *= factor
        terms.append((-1 if l % 2 else 1, D))
        bits.append(bits[-1] + D.bit_length())
    weight = 1
    if weights is not None:
        ks = [k, *(_root_exponent(top, m, f, e, s, params.a) for m, f in args[1:])]
        by_k: dict[int, int] = {}
        for kk, g in zip(ks, weights):
            by_k[kk] = by_k.get(kk, 0) + g
        if len(by_k) == 1:
            # every argument has args[0]'s k: one term scaled by its weight
            weight = by_k[k]
        else:
            lo, hi = min(by_k), max(by_k)
            spread = [(kk - lo, hi - kk, g) for kk, g in by_k.items()]
            terms = [
                (C * sum(g * s ** (l * i) * t ** (l * j) for i, j, g in spread), D)
                for l, (C, D) in enumerate(terms)
            ]
            alpha, beta = alpha + lo - k, beta - hi + k
    # (1-u)^r d^r = (d-c)^r and 1/(1-q)^n = t^(en) / (t^e - s^e)^n; for
    # a refinement, u = u0^f with u0 = c0/d0, so (1-u0)^r d^r is
    # (d0^(f-1) (d0-c0))^r, and q0 = root is e = 1
    if coarse_u is None:
        norm = d - c
    else:
        d0 = coarse_u.denominator
        norm, e = d // d0 * (d0 - coarse_u.numerator), 1
    norm = weight * norm**params.r
    out = []
    for n in ns:
        a_min, b_min = min(0, n * alpha), min(0, n * beta)
        fractions = [
            (C * comb(n, l) * s ** (l * alpha - a_min) * t ** (l * beta - b_min), D)
            for l, (C, D) in enumerate(terms[: n + 1])
        ]
        shift = e * n + b_min
        out_num = norm * t ** max(shift, 0)
        out_den = (t**e - s**e) ** n * s**-a_min * t ** max(-shift, 0) * scale
        if bits[n + 1] < _REDUCE_BITS:
            # every merge is plain, and at this size one gcd of the whole pair
            # costs less than the four gcds of the reducing path below
            num, den = _pairwise(fractions, _add_plain)
            out.append(Fraction(num * out_num, den * out_den))
            continue
        num, den, reduced = _pairwise([(N, D, False) for N, D in fractions], _add_fractions)
        if not reduced:
            num, den = _reduced(num, den)
        out_num, out_den = _reduced(out_num, out_den)
        # two coprime pairs multiply to a coprime pair once the gcds across are
        # divided out, as `Fraction._mul` does
        num, out_den = _reduced(num, out_den)
        out_num, den = _reduced(out_num, den)
        out.append(coprime_fraction(num * out_num, den * out_den))
    return out


T = TypeVar("T")


def _pairwise(items: list[T], merge: Callable[[T, T], T]) -> T:
    """`items` combined by `merge` over a balanced binary tree (binary
    splitting): adjacent pairs are merged level by level, an odd last item
    rises unchanged, and the root is returned; `items` is nonempty.

    Both exact sums over Z use it, each with its own merge: route 1 adds
    its term fractions (`_add_fractions`, plain while small and reducing as
    it adds once large), and route 4 adds its numerator pieces over the
    union of their denominator factors (`h_rational_in_q`).
    Balanced operands keep the big products few, so the cost follows the
    size of the result rather than growing quadratically with the count.
    """
    while len(items) > 1:
        paired = list(map(merge, items[::2], items[1::2]))
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


# Route 1's tree adds plainly while the product of a merge's two
# denominators has fewer bits than this, and reduces as it adds past it.
# Timed in process against the plain tree (2-vCPU VM, Python 3.11, best of
# 15 calls, interleaved): at 16,384 the h_closed rows of n = 110-400 take
# 0.80-0.89 of the plain time, h_chi k = 120 quadratic:4 0.36 and
# distribution_check n = 60 0.78, and the hbarnes rows of n = 70-125
# (11-13k-bit denominators) 0.94-1.01. At 4,096 and 8,192 the batches gain
# more, but those hbarnes rows read up to 15% and 4% slower.
_REDUCE_BITS = 16_384


def _add_plain(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """N1/D1 + N2/D2 as the unreduced (N1 D2 + N2 D1, D1 D2)."""
    (a, b), (c, d) = x, y
    return a * d + c * b, b * d


def _add_fractions(
    x: tuple[int, int, bool], y: tuple[int, int, bool]
) -> tuple[int, int, bool]:
    """N1/D1 + N2/D2 for integer fractions flagged reduced or not, and the
    flag of the sum.

    Below `_REDUCE_BITS` bits of D1 D2 the sum is the unreduced (N1 D2 + N2
    D1, D1 D2). Past it, each operand not yet reduced is reduced by one gcd,
    and the two add by Knuth's split (TAOCP vol. 2, 4.5.1): g = gcd(D1, D2)
    and T = N1 (D2/g) + N2 (D1/g), whose common factor with (D1/g) D2 is
    gcd(T, g), so the sum comes out reduced.
    """
    (a, b, x_reduced), (c, d, y_reduced) = x, y
    if b.bit_length() + d.bit_length() < _REDUCE_BITS:
        return a * d + c * b, b * d, False
    if not x_reduced:
        a, b = _reduced(a, b)
    if not y_reduced:
        c, d = _reduced(c, d)
    g = gcd(b, d)
    b //= g
    total = a * (d // g) + c * b
    g = gcd(total, g)
    return total // g, b * (d // g), True


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num and den over their gcd, for den nonzero: 0/den comes out 0/+-1."""
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


# ---------------------------------------------------------------------------
# route 2: addition formula in w


def h_addition(n: int, w: int, params: BarnesParams) -> Rational:
    """H_n(w) = sum_k C(n,k) [w:q]^(n-k) q^(wk) H_k(0); integer w only.
    Takes H_0(0), ..., H_n(0) from `h_closed` and sums them with
    `_addition_sum`."""
    if n < 0:
        raise PreconditionError("n must be >= 0", parameter="n")
    return _addition_sum(n, w, params.q.value, (h_closed(k, 0, params) for k in range(n + 1)))


def _addition_sum(n: int, w: int, qv: Fraction, h0: Iterable[Rational]) -> Rational:
    """Route 2's sum sum_k C(n,k) [w:q]^(n-k) q^(wk) H_k(0) at q = qv, from
    H_0(0), ..., H_n(0) in `h0`: a caller that sums many (n, w) computes
    them once. h0 is read in order, as far as H_n(0), after [w : q] and
    q^w: an iterator of `h_closed` calls, as `h_addition` passes, raises an
    error of q before any pole of an H_k(0). The terms are added as
    integers over one denominator, and one `Fraction` reduces the sum."""
    (b, c), (g, e) = qbracket(w, qv).as_integer_ratio(), rational_power(qv, w).as_integer_ratio()
    h, den = _over_common_denominator([h_k for _, h_k in zip(range(n + 1), h0)])
    # [w:q] = b/c and q^w = g/e, so [w:q]^(n-k) q^(wk) = (b e)^(n-k) (c g)^k / (c e)^n
    top = sum(comb(n, k) * (b * e) ** (n - k) * (c * g) ** k * h_k for k, h_k in enumerate(h))
    return Fraction(top, (c * e) ** n * den)


# ---------------------------------------------------------------------------
# route 3: Carlitz umbral recurrence (r = 1 numbers, parameter u inverted)


def h_carlitz(k: int, u: Rational, q: Rational) -> Rational:
    """H_k(u) from (qH + 1)^m = u H_m for m >= 1, H_0 = 1 (L. Carlitz,
    q-Bernoulli and Eulerian numbers, Trans. AMS 76, 1954).

    With q = s/t and u = c/d, solving for H_m pivots on P_m = c t^m - d s^m,
    so u = q^m for any m up to k is a pole of the recurrence. The values run
    fraction-free, as in E. H. Bareiss's elimination (Math. Comp. 22, 1968):
    every H_i is N_i / D over one running denominator D = P_1..P_m, step m
    multiplies the stored N_i by P_m and appends N_m = d sum_{i<m} C(m,i)
    s^i t^(m-i) N_i, and only the returned value is reduced.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    u = Fraction(u)
    q = Fraction(q)
    c, d = u.numerator, u.denominator
    s, t = q.numerator, q.denominator
    s_pow, t_pow = [1], [1]
    numerators = [1]
    den = 1
    for m in range(1, k + 1):
        s_pow.append(s_pow[-1] * s)
        t_pow.append(t_pow[-1] * t)
        pivot = c * t_pow[m] - d * s_pow[m]
        if pivot == 0:
            raise PoleError(f"vanishing pivot u = q^{m} in the recurrence", parameter="u")
        acc = sum(comb(m, i) * s_pow[i] * t_pow[m - i] * n_i for i, n_i in enumerate(numerators))
        numerators = [n_i * pivot for n_i in numerators]
        numerators.append(d * acc)
        den *= pivot
    return Fraction(numerators[k], den)


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
    m, at its largest multiplicity in any term, times q^(-min E).

    The numerator is summed over a product tree (`_pairwise`; von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 10). A leaf is the integer
    polynomial q^(E - min E) C(n,l)(-1)^l (d-c)^k with its factor counts;
    a merge takes the union of its two sides' counts, multiplies each side
    by the powers F_m^j it lacks of that union, and adds them. So the root's
    counts are the common denominator's, and the root's polynomial is the
    numerator over it, without multiplying every term by every missing
    power in turn. The factor (1-q)^n of the prefactor divides it exactly
    (the q -> 1 limit exists), so a remainder raises `InternalError`.
    `RationalFunctionQ` then reduces the two integer lists over Z, given the
    distinct m; `Poly` only holds its monic result.
    """
    a = _integer_a(a, r)
    u = _barnes_u(u)
    if n < 0:
        raise PreconditionError("n must be >= 0", parameter="n")

    c, d = u.numerator, u.denominator
    terms: list[tuple[Counter[int], int]] = []
    for l in range(n + 1):
        ms = Counter(l * aj for aj in a if l * aj)
        terms.append((ms, l * w - sum(m for m in ms.elements() if m < 0)))
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

    def merge(
        left: tuple[list[int], Counter[int]], right: tuple[list[int], Counter[int]]
    ) -> tuple[list[int], Counter[int]]:
        # each side takes the factor powers it lacks of the two sides' union
        (f, cf), (g, cg) = left, right
        both = cf | cg
        for m, k in both.items():
            if k > cf[m]:
                f = _int_mul(f, fpow(m, k - cf[m]))
            if k > cg[m]:
                g = _int_mul(g, fpow(m, k - cg[m]))
        return [x + y for x, y in itertools.zip_longest(f, g, fillvalue=0)], both

    leaves = [
        ([0] * (e - e_min) + [(-1) ** l * comb(n, l) * (d - c) ** ms.total()], ms)
        for l, (ms, e) in enumerate(terms)
    ]
    numerator, common = _pairwise(leaves, merge)

    denominator = [0] * -e_min + [1]
    for m, mult in common.items():
        denominator = _int_mul(denominator, fpow(m, mult))

    one_minus_q_n = [comb(n, k) * (-1) ** k for k in range(n + 1)]
    quotient = _int_quotient(numerator, one_minus_q_n)
    if quotient is None:
        raise InternalError("expected exact polynomial division, got a remainder")
    rf = RationalFunctionQ(quotient, denominator, (c, d, common))
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
# the order-f refinement, and the distribution relation as an exact residual


def refinement(
    n: int, w: int, a: tuple[int, ...], u: Rational, q: Rational, f: int
) -> Callable[[Iterable[tuple[Rational, Sequence[int]]]], Rational]:
    """The order-f refinement of H_n(w, u, q | a), as the function `refined`
    that takes a nonempty batch of pairs (c, i), i in {0..f-1}^r, to

        (1-u)^r [f:q]^n / (1-u^f)^r  sum c u^|i| H_n((w + a.i)/f, u^f, q^f | a),

    which is H_n(w, u, q | a) when the batch is every i with c = 1: the
    one-n case of `refinement_run`.
    """
    refined = refinement_run((n,), w, a, u, q, f)
    return lambda weighted: refined(weighted)[0]


def refinement_run(
    ns: Sequence[int], w: int, a: tuple[int, ...], u: Rational, q: Rational, f: int
) -> Callable[[Iterable[tuple[Rational, Sequence[int]]]], list[Rational]]:
    """The order-f refinements of H_n(w, u, q | a) for each n of the run
    `ns`, as the function `refined` that takes a batch of pairs (c, i) to
    the list of each n's sum (see `refinement`).

    The terms differ only in their argument, so `refined` hands the batch
    to route 1's `_closed_form` as integer weights and arguments, and the
    run is summed in one pass: one denominator per index l and one product
    tree per n for the whole batch, not one per i or per n. The prefactor
    is not formed: `_closed_form` normalizes by (1-u)^r / (1-q)^n, the
    prefactor times the refined closed form's own (1-u^f)^r / (1-q^f)^n.
    It equals the sum of the terms one by one, and raises what the first
    failing term of the largest n would. u^f = 1 and q^f = 1 raise here;
    the refined `BarnesParams` is built when `refined` is called, after the
    caller's own checks.
    """
    u, q = Fraction(u), Fraction(q)
    uf = u**f
    if uf == 1:
        raise PoleError(f"u^{f} = 1 makes the refined prefactor singular", parameter="u")
    if q**f == 1:
        raise PreconditionError(f"q^{f} = 1 makes the refined base degenerate", parameter="q")

    def refined(weighted: Iterable[tuple[Rational, Sequence[int]]]) -> list[Rational]:
        fine = BarnesParams(a, uf, QBase(q, f))
        pairs = list(weighted)
        # with u = c/d and cv = g/L over the lcm L of the denominators,
        # cv u^|i| = g c^|i| d^(top - |i|) / (L d^top), top the largest |i|
        cvs, L = _over_common_denominator([cv for cv, _ in pairs])
        sizes = [sum(iv) for _, iv in pairs]
        top = max(sizes)
        c, d = u.numerator, u.denominator
        weights = [g * c**z * d ** (top - z) for g, z in zip(cvs, sizes)]
        args = [(w + sum(map(mul, fine.a, iv)), f) for _, iv in pairs]
        return _closed_form(ns, args, weights, L * d**top, fine, u)

    return refined


def distribution_check(n: int, w: int, f: int, params: BarnesParams) -> Rational:
    """LHS - RHS of the order-f distribution relation, 0 when it holds: the
    one-n case of `distribution_run`."""
    return distribution_run((n,), w, f, params)[0]


def distribution_run(ns: Sequence[int], w: int, f: int, params: BarnesParams) -> list[Rational]:
    """LHS - RHS of the order-f distribution relation for each n of the run
    `ns`, 0 where it holds: H_n(w) (`h_closed_run`) less its
    `refinement_run` over i in {0..f-1}^r, all f^r terms in one batch, over
    (u-1)^r."""
    if f < 1:
        raise PreconditionError("f must be >= 1", parameter="f")
    if params.q.exponent != 1:
        raise PreconditionError("distribution check needs a base with exponent 1", parameter="q")
    refined = refinement_run(ns, w, params.a, params.u, params.q.root, f)
    lhs = h_closed_run(ns, w, params)
    rhs = refined((1, iv) for iv in itertools.product(range(f), repeat=params.r))
    return [(x - y) / (params.u - 1) ** params.r for x, y in zip(lhs, rhs)]

"""Exact rational and truncated p-adic arithmetic.

The universal scalar for identity checking is `fractions.Fraction`, which
already guarantees the invariants we need (gcd-normalized, positive
denominator, canonical zero). `Rational` is the package-wide alias.

p-adic values are truncated: a `PadicNumber` stores its valuation, its unit
part modulo p^digits, and `digits`, the number of significant p-adic digits
that actually survived the operations that produced it. Addition of nearly
cancelling values therefore loses digits instead of inventing them, and a
total cancellation raises `PrecisionExhaustedError` rather than returning a
fake zero.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable

from .errors import InternalError, PreconditionError, PrecisionExhaustedError

Rational = Fraction

#: Valuation of zero. Compares correctly against every int.
INFINITY = math.inf

# Deterministic Miller-Rabin witness set, proven complete below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below ~3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise PreconditionError(
            f"{n} exceeds the deterministic primality bound", parameter="p"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer, in O(log valuation) divisions.

    Strips p, p^2, p^4, ... while each divides, then steps back down through
    the same powers: what is left after the climb has valuation below the
    last power's exponent, so each smaller power divides at most once.
    """
    if n % p:
        return 0
    powers = [p]
    v = 0
    while True:
        quotient, rem = divmod(n, powers[-1])
        if rem:
            break
        n = quotient
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for k in range(len(powers) - 2, -1, -1):
        quotient, rem = divmod(n, powers[k])
        if not rem:
            n = quotient
            v += 1 << k
    return v


def valuation(x: Rational | int, p: int) -> int | float:
    """p-adic valuation of a rational; valuation(0, p) is INFINITY."""
    if x == 0:
        return INFINITY
    if isinstance(x, int):
        return _int_valuation(x, p)
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


# Python 3.12 replaced `Fraction(n, d, _normalize=False)` by this classmethod
_from_coprime_ints = getattr(Fraction, "_from_coprime_ints", None) or partial(
    Fraction, _normalize=False
)


def coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator as a `Fraction`, for coprime ints and a nonzero
    denominator of either sign, without the gcd that `Fraction(n, d)` would
    run again on the coprime pair.

    The package's one use of a private `fractions` API: the sign is moved to
    the numerator, and the pair is stored as it is.
    """
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    return _from_coprime_ints(numerator, denominator)


def format_rational(x: Rational | int) -> str:
    """Wire form: "num/den", or bare "num" when the denominator is 1; x is
    a reduced `Fraction` or an int, both of which carry the two parts."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_valuation(v: int | float) -> int | str:
    """Wire form of a valuation: the int, or "inf" for INFINITY."""
    return "inf" if v == INFINITY else int(v)


def parse_rational(s: str) -> Rational:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad rational literal {s!r}: {exc}")


def check_odd_prime(p: int) -> None:
    """Raise unless p is odd and prime; p = 2 is prime but out of scope."""
    if p == 2:
        raise PreconditionError("p = 2 is out of scope, p must be odd", parameter="p")
    if p < 3 or not is_prime(p):
        raise PreconditionError(f"p = {p} is not an odd prime", parameter="p")


class Frozen:
    """Base of the frozen value types: a subclass names its fields in
    `__slots__` and sets each once in `__init__` with `object.__setattr__`.

    Two values are equal when they are of one class and their fields are
    equal, and hash as the tuple of their fields. `repr` reads
    `Name(field=value, ...)`, assigning or deleting any attribute raises
    `AttributeError`, and `pickle` and `copy` rebuild a value by calling
    its class with its fields, so the rebuilt value passes the checks
    again. These are the behaviours `@dataclass(frozen=True)` gave the
    types, without its import cost (ROADMAP, "Decisions that stand").
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # __eq__ and __hash__ read the slots by name, as dataclasses writes
        # them: through a generic getter they took 1.4-1.8x as long
        own = ", ".join(f"self.{name}" for name in cls.__slots__)
        other = ", ".join(f"other.{name}" for name in cls.__slots__)
        namespace: dict = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({own},) == ({other},)\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({own},))\n",
            namespace,
        )
        cls.__eq__ = namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        pairs = zip(self.__slots__, self._values())
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class PadicContext(Frozen):
    """Working prime p (odd) and precision: arithmetic is modulo p^precision.

    p is checked before precision."""

    __slots__ = ("p", "precision")

    def __init__(self, p: int, precision: int):
        check_odd_prime(p)
        if precision < 1:
            raise PreconditionError("precision must be >= 1", parameter="precision")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision


def _check_same_context(
    a: PadicContext,
    b: PadicContext,
    message: str = "operands belong to different p-adic contexts",
) -> None:
    """Raise unless a and b are the same context; identity is tested first,
    since comparing the two field tuples costs more than a small product."""
    if a is not b and a != b:
        raise PreconditionError(message)


class PadicNumber:
    """Truncated p-adic number: p^valuation * unit, unit known mod p^digits.

    `digits` is the count of significant digits (relative precision), so the
    value is pinned down modulo p^(valuation + digits). The zero value is a
    distinct state with valuation INFINITY.
    """

    __slots__ = ("context", "valuation", "unit", "digits")

    def __init__(self, context: PadicContext, valuation: int, unit: int, digits: int):
        if digits < 1 or digits > context.precision:
            raise PreconditionError("digits must lie in 1..precision", parameter="digits")
        unit %= context.p**digits
        if unit % context.p == 0:
            raise PreconditionError("unit part must be coprime to p", parameter="unit")
        self.context = context
        self.valuation = valuation
        self.unit = unit
        self.digits = digits

    @classmethod
    def zero(cls, context: PadicContext) -> "PadicNumber":
        z = object.__new__(cls)
        z.context = context
        z.valuation = INFINITY
        z.unit = 0
        z.digits = 0
        return z

    @classmethod
    def _reduce(cls, context: PadicContext, valuation: int, residue: int, digits: int) -> "PadicNumber":
        """Build from a residue that may still contain powers of p.

        `residue` is the value divided by p^valuation, known mod p^digits.
        A residue of 0 means every tracked digit cancelled.
        """
        residue %= context.p**digits
        if residue == 0:
            raise PrecisionExhaustedError(
                "precision exhausted: result is indistinguishable from zero "
                f"modulo p^{valuation + digits}"
            )
        shift = _int_valuation(residue, context.p)
        d = min(digits - shift, context.precision)
        return cls(context, valuation + shift, residue // context.p**shift, d)

    # -- state ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def abs_precision(self) -> int | float:
        """The value is known modulo p^abs_precision."""
        if self.is_zero:
            return INFINITY
        return self.valuation + self.digits

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return padic_sum((self, other), self.context)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        return PadicNumber(
            self.context, self.valuation, self.context.p**self.digits - self.unit, self.digits
        )

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        _check_same_context(self.context, other.context)
        if self.is_zero or other.is_zero:
            return PadicNumber.zero(self.context)
        d = min(self.digits, other.digits)
        return PadicNumber(
            self.context, self.valuation + other.valuation, self.unit * other.unit, d
        )

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        _check_same_context(self.context, other.context)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero p-adic value")
        if self.is_zero:
            return self
        d = min(self.digits, other.digits)
        inv = pow(other.unit, -1, self.context.p**d)
        return PadicNumber(
            self.context, self.valuation - other.valuation, self.unit * inv, d
        )

    def __pow__(self, n: int) -> "PadicNumber":
        """Integer power; relative precision is preserved on unit powers."""
        if not isinstance(n, int):
            return NotImplemented
        if self.is_zero:
            if n > 0:
                return self
            if n == 0:
                return PadicNumber(self.context, 0, 1, self.context.precision)
            raise ZeroDivisionError("negative power of the zero p-adic value")
        if n == 0:
            return PadicNumber(self.context, 0, 1, self.context.precision)
        unit = pow(self.unit, abs(n), self.context.p**self.digits)
        out = PadicNumber(self.context, self.valuation * abs(n), unit, self.digits)
        if n < 0:
            return PadicNumber(self.context, 0, 1, self.context.precision) / out
        return out

    def __eq__(self, other: object) -> bool:
        """Indistinguishability at the shared precision."""
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.context != other.context:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.valuation != other.valuation:
            return False
        d = min(self.digits, other.digits)
        p = self.context.p
        return self.unit % p**d == other.unit % p**d

    __hash__ = None  # mutable-precision equality is not hash-safe

    def __repr__(self) -> str:
        p = self.context.p
        if self.is_zero:
            return f"PadicNumber(0, p={p})"
        return (
            f"PadicNumber({p}^{self.valuation} * {self.unit} "
            f"+ O({p}^{self.abs_precision}))"
        )

    def to_json_dict(self) -> dict:
        return {
            "p": self.context.p,
            "M": self.context.precision,
            "valuation": format_valuation(self.valuation),
            "unit": self.unit,
        }


def padic_sum(terms: Iterable[PadicNumber], context: PadicContext) -> PadicNumber:
    """The sum of `terms`, known modulo p^(the least abs_precision of a term).

    The terms are added at that joint precision in one pass and reduced once,
    so partial sums that cancel exactly cost nothing; only a total that
    cancels every tracked digit raises `PrecisionExhaustedError`. Zero terms
    are skipped, and no terms sum to zero.
    """
    nonzero = []
    for t in terms:
        _check_same_context(t.context, context)
        if not t.is_zero:
            nonzero.append(t)
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else PadicNumber.zero(context)
    target = min(t.abs_precision for t in nonzero)
    vmin = min(t.valuation for t in nonzero)
    p = context.p
    inner = sum(t.unit * p ** (t.valuation - vmin) for t in nonzero)
    return PadicNumber._reduce(context, vmin, inner, target - vmin)


def to_padic(x: Rational | int, context: PadicContext) -> PadicNumber:
    """Embed a rational, exact to the full context precision."""
    x = Fraction(x)
    if x == 0:
        return PadicNumber.zero(context)
    p, M = context.p, context.precision
    num, den = x.numerator, x.denominator
    vn = _int_valuation(num, p)
    vd = _int_valuation(den, p)
    num //= p**vn
    den //= p**vd
    unit = num * pow(den, -1, p**M) % p**M
    return PadicNumber(context, vn - vd, unit, M)


def agreement_valuation(a: PadicNumber, b: PadicNumber) -> int | float:
    """Largest m with a ≡ b mod p^m, capped at the joint precision.

    This is the valuation of a - b. When every tracked digit of a - b
    cancels, the operands are indistinguishable and the joint precision
    min(a.abs_precision, b.abs_precision) is returned: a lower bound, not
    an exact valuation. Two zeros agree to INFINITY.
    """
    try:
        return (a - b).valuation
    except PrecisionExhaustedError:
        return min(a.abs_precision, b.abs_precision)


def padic_log(x: PadicNumber) -> PadicNumber:
    """Iwasawa logarithm on the 1-units: x must satisfy x ≡ 1 (mod p).

    The series sum (-1)^(n+1) (x-1)^n / n is truncated at the first index
    where n*v - floor(log_p n) reaches the context precision M, with
    v = valuation(x-1); past that point every term vanishes mod p^M (the
    increment v - [jump of floor(log_p)] is >= v - 1 >= 0, so the bound
    never dips back below M).
    """
    ctx = x.context
    p, M = ctx.p, ctx.precision
    if x.is_zero or x.valuation != 0 or x.unit % p != 1:
        raise PreconditionError("padic_log needs x ≡ 1 (mod p)", parameter="x")
    d = x.digits
    y_res = (x.unit - 1) % p**d
    if y_res == 0:
        # x is 1 at every tracked digit; the log vanishes to that precision.
        return PadicNumber.zero(ctx)
    v1 = _int_valuation(y_res, p)
    y = PadicNumber(ctx, v1, y_res // p**v1, d - v1)
    n_stop = 1
    while n_stop * v1 - _floor_log(n_stop, p) < M:
        n_stop += 1
    total: PadicNumber | None = None
    power = y
    for n in range(1, n_stop + 1):
        term = power / to_padic(n, ctx)
        if n % 2 == 0:
            term = -term
        total = term if total is None else total + term
        if n < n_stop:
            power = power * y
    return total


def _floor_log(n: int, p: int) -> int:
    k, q = 0, p
    while q <= n:
        k += 1
        q *= p
    return k


def padic_exp(x: PadicNumber) -> PadicNumber:
    """Exponential; requires valuation(x) >= 1 (odd p convergence domain).

    Truncation index from nu_p(n!) = (n - s_p(n))/(p-1): every term beyond
    ceil(M(p-1) / (v(p-1) - 1)) has valuation >= M.
    """
    ctx = x.context
    p, M = ctx.p, ctx.precision
    if x.is_zero:
        return PadicNumber(ctx, 0, 1, M)
    if x.valuation < 1:
        raise PreconditionError("padic_exp needs valuation(x) >= 1", parameter="x")
    v = x.valuation
    n_stop = -(-M * (p - 1) // (v * (p - 1) - 1))
    total = PadicNumber(ctx, 0, 1, M)
    power = x
    fact = 1
    for n in range(1, n_stop + 1):
        fact *= n
        total = total + power / to_padic(fact, ctx)
        if n < n_stop:
            power = power * x
    return total


def padic_pow(x: PadicNumber, s: int | PadicNumber) -> PadicNumber:
    """x^s: plain powering for integer s, exp(s log x) for p-adic s.

    The p-adic exponent path needs x ≡ 1 (mod p) and valuation(s) >= 0; on
    inputs where both paths apply they agree.
    """
    if isinstance(s, int):
        return x**s
    if not isinstance(s, PadicNumber):
        raise PreconditionError("exponent must be an int or a PadicNumber", parameter="s")
    _check_same_context(
        s.context, x.context, "exponent belongs to a different p-adic context"
    )
    if s.is_zero:
        return PadicNumber(x.context, 0, 1, x.context.precision)
    if s.valuation < 0:
        raise PreconditionError("p-adic exponent needs valuation(s) >= 0", parameter="s")
    lg = padic_log(x)
    if lg.is_zero:
        return PadicNumber(x.context, 0, 1, x.context.precision)
    return padic_exp(s * lg)


@lru_cache(maxsize=None)
def _teichmuller_unit(x_mod_p: int, p: int, M: int) -> int:
    # The lift depends only on x mod p: x = omega(x) * (1-unit), and raising
    # a 1-unit to the p^M kills it mod p^M (for M <= p^M, always).
    w = pow(x_mod_p, p**M, p**M)
    if pow(w, p - 1, p**M) != 1 or (w - x_mod_p) % p != 0:
        raise InternalError(
            f"lift of {x_mod_p} mod {p}^{M} is not a (p-1)-st root of unity ≡ x mod p"
        )
    return w


def teichmuller(x: int, context: PadicContext) -> PadicNumber:
    """The (p-1)-st root of unity congruent to x mod p, via x^(p^M) mod p^M."""
    p, M = context.p, context.precision
    if x % p == 0:
        raise PreconditionError("teichmuller needs gcd(x, p) = 1", parameter="x")
    return PadicNumber(context, 0, _teichmuller_unit(x % p, p, M), M)

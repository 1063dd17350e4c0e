"""q-brackets [x : q] = (1 - q^x)/(1 - q) over exact rationals.

Fractional arguments never introduce radicals: a `QBase` carries q as
root^exponent, and [w/f : q] is evaluated only when f divides the exponent,
so every q-power in sight stays an integer power of the root.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ExponentAlignmentError, PreconditionError
from .exact_numbers import Frozen, Rational


def rational_power(base: Rational, e: int) -> Rational:
    """base^e with a guarded zero: 0 to a negative power is a usage error.
    e must be integral (an int, or a `Fraction` such as 2/1): any other
    exponent is refused, since `Fraction` would return a float."""
    if e % 1:
        raise PreconditionError(f"the exponent must be an integer, got {e}")
    if e < 0 and base == 0:
        raise PreconditionError("0 cannot be raised to a negative power", parameter="q")
    return base**e


class QBase(Frozen):
    """q presented as root^exponent, a frozen value; root is stored as a
    Fraction.

    root = 1 is only meaningful as the classical limit and must be flagged;
    plain q -> 1 evaluation goes through the rational-function route instead.
    The exponent is checked before the flag.
    """

    __slots__ = ("root", "exponent", "classical")

    def __init__(self, root: Rational, exponent: int = 1, classical: bool = False):
        root = Fraction(root)
        if exponent < 1:
            raise PreconditionError("exponent must be >= 1", parameter="exponent")
        if root == 1 and not classical:
            raise PreconditionError(
                "root 1 needs the classical flag; use the q -> 1 limit routines",
                parameter="q",
            )
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "classical", classical)

    @property
    def value(self) -> Rational:
        return rational_power(self.root, self.exponent)

    def power(self, base_exponent: int) -> Rational:
        """root^base_exponent, the only primitive the fractional layer needs."""
        return rational_power(self.root, base_exponent)


class FractionalArg(Frozen):
    """An argument w/f kept unevaluated until paired with an aligned QBase;
    a frozen value."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        if denominator < 1:
            raise PreconditionError("denominator must be >= 1", parameter="w")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def coerce(cls, w: "FractionalArg | int") -> "FractionalArg":
        if isinstance(w, FractionalArg):
            return w
        return cls(w)

    def as_fraction(self) -> Rational:
        return Fraction(self.numerator, self.denominator)


def qbracket(x: int, q: Rational) -> Rational:
    """[x : q] = (1 - q^x)/(1 - q) for integral x; [x : 1] = x is the
    documented limit."""
    q = Fraction(q)
    if q == 1:
        return Fraction(x)
    return (1 - rational_power(q, x)) / (1 - q)


def qbracket_z(m: int, u: Rational) -> Rational:
    """[m : u] in the measure-normalization role; same formula as qbracket."""
    return qbracket(m, u)


def qbracket_base(x: FractionalArg | int, base: QBase) -> Rational:
    """[x : q] for x = w/f, valid only when f divides the base exponent."""
    x = FractionalArg.coerce(x)
    if base.exponent % x.denominator != 0:
        raise ExponentAlignmentError(
            f"argument {x.numerator}/{x.denominator} needs f | exponent, "
            f"got exponent {base.exponent}",
            parameter="w",
        )
    if base.root == 1:
        return x.as_fraction()
    step = base.exponent // x.denominator
    num = 1 - base.power(x.numerator * step)
    den = 1 - base.value
    if den == 0:
        raise PreconditionError("q = 1 with a non-classical base", parameter="q")
    return num / den

"""`refinement` against the three sums it replaced.

`_h_chi_reference`, `_distribution_reference` and `_measure_reference` are
the bodies of `h_chi`, `distribution_check` and `measure_E_value` as they
were when each built its own refined base. Values must agree exactly
(p-adic ones digit for digit), and errors by type, parameter and message.
Two differences are allowed: the u^f = 1 message, which now names the
power, and an h_chi whose running p-adic sum cancels exactly, which now
returns the total (`_h_chi_reference_mapped`). One change is made to
`_h_chi_reference` itself: it checks r after k, where h_chi now checks r
with the a_j, not first.
"""
import itertools
import random
from fractions import Fraction as F

from qbarnes import (
    AdmissibleU,
    BarnesParams,
    DirichletCharacter,
    MeasureCell,
    PadicContext,
    PadicNumber,
    PoleError,
    PrecisionExhaustedError,
    PreconditionError,
    QBarnesError,
    QBase,
    distribution_check,
    h_chi,
    h_closed,
    measure_E_value,
    padic_sum,
    to_padic,
)
from qbarnes.qnum import FractionalArg, qbracket


def _h_chi_reference(k, r, a, u, q, chi, one_pass=False):
    a = tuple(int(x) for x in a)
    u = F(u)
    q = F(q)
    d = chi.modulus
    ud = u**d
    if ud == 1:
        raise PoleError("u^d = 1", parameter="u")
    if q**d == 1:
        raise PreconditionError(f"q^{d} = 1 makes the refined base degenerate", parameter="q")
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    if r != len(a):
        raise PreconditionError("r must equal len(a)", parameter="r")
    base = QBase(q, d)
    params = BarnesParams(a, ud, base)
    prefactor = (1 - u) ** r * qbracket(d, q) ** k / (1 - ud) ** r

    support = [i for i in range(d) if chi(i) != 0]
    one = chi.lift(F(1))

    def terms():
        for iv in itertools.product(support, repeat=r):
            cv = one
            for ij in iv:
                cv = cv * chi.value(ij)
            warg = FractionalArg(sum(aj * ij for aj, ij in zip(a, iv)), d)
            yield cv * chi.lift(u ** sum(iv) * h_closed(k, warg, params))

    if one_pass:
        total = padic_sum(list(terms()), chi.context)
    else:
        total = chi.lift(F(0))
        for term in terms():
            total = total + term
    return chi.lift(prefactor) * total


def _h_chi_reference_mapped(*args):
    """`_h_chi_reference`, except where its running p-adic sum cancels
    exactly: `h_chi` adds the terms in one pass, so it returns their total
    there, and raises only when the total itself cancels."""
    try:
        return _h_chi_reference(*args)
    except PrecisionExhaustedError:
        return _h_chi_reference(*args, one_pass=True)


def _distribution_reference(n, w, f, params):
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
    if qv**f == 1:
        raise PreconditionError(f"q^{f} = 1 makes the refined base degenerate", parameter="q")
    lhs = h_closed(n, w, params) / (u - 1) ** params.r
    fine = BarnesParams(params.a, uf, QBase(params.q.root, f))
    total = F(0)
    for iv in itertools.product(range(f), repeat=params.r):
        warg = FractionalArg(w + sum(aj * ij for aj, ij in zip(params.a, iv)), f)
        total += u ** sum(iv) * h_closed(n, warg, fine)
    rhs = qbracket(f, qv) ** n * total / (uf - 1) ** params.r
    return lhs - rhs


def _measure_reference(cell, k, u, q, a1=1):
    if cell.d != 1:
        raise PreconditionError("moment-measure cells have modulus f p^N", parameter="d")
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    cell.check(u.p)
    q = F(q)
    m = cell.modulus(u.p)
    um = u.u**m
    if um == 1:
        raise PoleError("u^(f p^N) = 1", parameter="u")
    if q**m == 1:
        raise PreconditionError(f"q^{m} = 1 makes the refined base degenerate", parameter="q")
    base = QBase(q, m)
    inner = h_closed(
        k,
        FractionalArg(a1 * cell.x, m),
        BarnesParams((a1,), um, base),
    )
    return qbracket(m, q) ** k * u.u**cell.x / (1 - um) * inner


_OLD_POLE_MESSAGES = {"u^d = 1", "u^f = 1 makes both sides singular", "u^(f p^N) = 1"}


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (QBarnesError, ArithmeticError) as exc:
        return ("error", type(exc).__name__, getattr(exc, "parameter", None), str(exc))
    if isinstance(value, PadicNumber):
        return ("padic", value.to_json_dict())
    return ("value", type(value).__name__, value)


def _compare(reference, function, f, *args):
    """Asserts one input gives the same outcome both ways; returns the
    reference outcome."""
    want = _outcome(reference, *args)
    if want[0] == "error" and want[3] in _OLD_POLE_MESSAGES:
        expected = want[:3] + (f"u^{f} = 1 makes the refined prefactor singular",)
    else:
        expected = want
    assert _outcome(function, *args) == expected, args
    return want


DEGENERATE = "q^2 = 1 makes the refined base degenerate"


def _characters():
    """Rational- and teichmuller-mode characters of modulus 1, 2 and 3."""
    chars = [DirichletCharacter.trivial(d) for d in (1, 2, 3)]
    chars.append(DirichletCharacter.quadratic(3))
    for p, M in ((3, 6), (5, 4)):
        ctx = PadicContext(p, M)
        chars += [DirichletCharacter(1, [1], ctx), DirichletCharacter(2, [0, 1], ctx)]
        # the order-2 character mod 3, with -1 as a (p-1)-st root of unity
        chars.append(DirichletCharacter(3, [0, 1, p**M - 1], ctx))
    chars.append(DirichletCharacter.teichmuller_character(PadicContext(3, 6)))
    return chars


A_ROWS = [(1,), (-2,), (3,), (1, -2), (-1, 3), (2, 2), (-3, -1), (0,), (1, 0)]
U_VALUES = [F(3), F(-1, 2), F(5, 3), F(-3), F(2), F(-1), F(1), F(0)]
Q_VALUES = [F(2), F(-1, 3), F(4), F(3, 2), F(-2), F(-1), F(1), F(0)]


def test_h_chi_matches_reference():
    rng = random.Random(11)
    chars = _characters()
    seen = set()
    for _ in range(700):
        chi = rng.choice(chars)
        a = rng.choice(A_ROWS)
        # r off by one in about one draw in twenty, negative in another
        r = rng.choice([len(a)] * 18 + [len(a) + 1, -len(a)])
        k = rng.choice((-1, 0, 1, 2, 3))
        u, q = rng.choice(U_VALUES), rng.choice(Q_VALUES)
        want = _compare(_h_chi_reference_mapped, h_chi, chi.modulus, k, r, a, u, q, chi)
        seen |= {want[:3], want[3]} if want[0] == "error" else {(want[0], chi.modulus, len(a))}
        if k < 0 and _outcome(_h_chi_reference, 0, r, a, u, q, chi)[0] == "error":
            seen.add(("k < 0 with another fault", want[2]))
        if r < 0:
            seen.add(("r < 0", want[2]))
    assert {"u^d = 1", DEGENERATE, ("error", "PoleError", "u")} <= seen  # poles of h_closed too
    assert {("value", d, r) for d in (1, 2, 3) for r in (1, 2)} <= seen
    assert {("padic", d, r) for d in (1, 2, 3) for r in (1, 2)} <= seen
    # k < 0 loses to a u^d or q^d fault, and wins over a zero a_j or u = 0
    assert {("k < 0 with another fault", p) for p in ("u", "q", "k")} <= seen
    # a negative r is an r fault, after the u^d, q^d and k ones
    assert {("r < 0", p) for p in ("u", "q", "k", "r")} <= seen
    # the mapped case: u^2 - u^3 - u^3 = 0 at u = 1/2, then u^4 makes the
    # total nonzero, which is 1/49 as with the rational quadratic character
    args = (0, 2, (2, 2), F(1, 2), F(2), DirichletCharacter.teichmuller_character(PadicContext(3, 8)))
    assert _outcome(_h_chi_reference, *args)[:2] == ("error", "PrecisionExhaustedError")
    want = _compare(_h_chi_reference_mapped, h_chi, 3, *args)
    assert want == ("padic", to_padic(F(1, 49), PadicContext(3, 8)).to_json_dict())


def test_distribution_check_matches_reference():
    rng = random.Random(12)
    seen = set()
    for _ in range(600):
        a = rng.choice(A_ROWS[:7])
        u = rng.choice(U_VALUES[:6])
        q = rng.choice(Q_VALUES[:6] + [F(1)])
        params = BarnesParams(a, u, QBase(q, rng.choice((1, 1, 1, 2)), classical=q == 1))
        n, w, f = rng.choice((-1, 0, 1, 2, 3)), rng.randint(-2, 3), rng.choice((0, 1, 2, 3))
        want = _compare(_distribution_reference, distribution_check, f, n, w, f, params)
        seen |= {want[:3], want[3]} if want[0] == "error" else {("value", f, len(a), w < 0)}
        if n < 0 and want[2] != "n":
            seen.add(("n < 0 with another fault", want[2]))
    assert {"u^f = 1 makes both sides singular", DEGENERATE} <= seen
    assert {("value", f, r, neg) for f in (1, 2, 3) for r in (1, 2) for neg in (0, 1)} <= seen
    assert {("n < 0 with another fault", p) for p in ("f", "q", "u")} <= seen


def test_measure_E_value_matches_reference():
    rng = random.Random(13)
    us = {3: [F(3), F(1, 3), F(-3), F(6), F(2, 9)], 5: [F(5), F(-1, 5), F(10)]}
    seen = set()
    for _ in range(600):
        p = rng.choice((3, 5))
        u = AdmissibleU(rng.choice(us[p]), p)
        f, N, d = rng.choice((1, 2, 3)), rng.choice((0, 0, 1)), rng.choice((1, 1, 1, 1, 2))
        m = d * f * p**N
        cell = MeasureCell(rng.randint(-1, m), f, N, d)
        k, a1 = rng.choice((-1, 0, 1, 2, 3)), rng.choice((1, -1, 2, 0, 3, -2))
        q = rng.choice([F(4), F(-1), F(1), F(0), F(1, 2), F(-2), F(7, 3)])
        want = _compare(_measure_reference, measure_E_value, m, cell, k, u, q, a1)
        seen |= {want[:3], want[3]} if want[0] == "error" else {("value", m > 3, a1 < 0)}
        if k < 0 and _outcome(_measure_reference, cell, 0, u, q, a1)[0] == "error":
            seen.add(("k < 0 with another fault", want[2]))
    assert DEGENERATE in seen
    assert ("error", "PreconditionError", "a") in seen  # a1 = 0 in the refined base
    assert {("value", big, neg) for big in (0, 1) for neg in (0, 1)} <= seen
    # d and k come before the cell's range and the refined base
    assert {("k < 0 with another fault", p) for p in ("d", "k")} <= seen

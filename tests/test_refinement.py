"""`refinement` against the sums it replaced.

`_h_chi_reference`, `_distribution_reference` and `_measure_reference` are
the bodies of `h_chi`, `distribution_check` and `measure_E_value` as they
were when each built its own refined base. Values must agree exactly
(p-adic ones digit for digit), and errors by type, parameter and message.
Three differences are allowed:
- the u^f = 1 message, which now names the power;
- an h_chi whose running p-adic sum cancels exactly, which now returns the
  total (`_h_chi_reference_mapped`);
- a teichmuller-mode h_chi whose total cancels every tracked digit. The
  refinement now normalizes each term, so the message gives the modulus of
  H_{k,chi} itself: the reference's, which multiplied the lifted prefactor
  in after the sum, shifted by the prefactor's valuation
  (`_cancellation_shifted`).
One change is made to `_h_chi_reference` itself: it checks r after k, where
h_chi now checks r with the a_j, not first.

Two more references are the sums that the refinement's batches replaced
later. `_l_negative_reference` is L(-k) by the old formula, H_{k,chi}(u, q)
less chi(p) [p:q]^k (1-u)/(1-u^p) H_{k,chi}(u^p, q^p), with
`_h_chi_reference` for both H-values; its errors are compared by type and
parameter, since its messages are those of the old sums.
`_additivity_reference` is the cell additivity as p + 1 separate
`measure_E_value` calls.
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
    measure_additivity_check,
    measure_E_value,
    padic_sum,
    to_padic,
    twist_teichmuller,
    valuation,
)
from qbarnes.characters_lfunctions import _l_negative_exact
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
                cv = cv * chi.lift(chi(ij))
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


def _pole_renamed(want, f):
    """`want` with an old u^f = 1 message replaced by the one that names f."""
    if want[0] == "error" and want[3] in _OLD_POLE_MESSAGES:
        return want[:3] + (f"u^{f} = 1 makes the refined prefactor singular",)
    return want


def _compare(reference, function, f, *args):
    """Asserts one input gives the same outcome both ways; returns the
    reference outcome."""
    want = _outcome(reference, *args)
    assert _outcome(function, *args) == _pole_renamed(want, f), args
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


def _cancellation_shifted(want, k, r, a, u, q, chi):
    """`want` with a cancellation's modulus p^m moved to p^(m + v), v the
    valuation of the prefactor ((1-u)/(1-u^d))^r [d:q]^k that the reference
    multiplied in after its sum."""
    if want[:2] != ("error", "PrecisionExhaustedError"):
        return want
    u, q, d = F(u), F(q), chi.modulus
    v = valuation(((1 - u) / (1 - u**d)) ** r * qbracket(d, q) ** k, chi.context.p)
    head, modulus = want[3].rsplit("p^", 1)
    return want[:3] + (f"{head}p^{int(modulus) + v}",)


def _teichmuller_characters():
    """Teichmuller-mode characters with p | d (omega and its twists) and
    with p not dividing d, where chi(p) != 0: the trivial and quadratic
    characters mod 3 and 4, lifted at p = 3, 5 and 7. The twist of the
    quadratic character mod 4 is taken at p = 3 alone (modulus 12), since
    its d^2 terms at p = 7 cost more than all the other draws together."""
    chars = []
    for p in (3, 5, 7):
        for M in (1, 2, 4):
            ctx = PadicContext(p, M)
            rational = [DirichletCharacter.trivial(4), DirichletCharacter.quadratic(4)]
            if p != 3:
                rational += [DirichletCharacter.trivial(3), DirichletCharacter.quadratic(3)]
            chars += [
                DirichletCharacter(c.modulus, [int(v) for v in c.values], ctx) for c in rational
            ]
            chars.append(DirichletCharacter.teichmuller_character(ctx))
            if p == 3:
                chars.append(twist_teichmuller(DirichletCharacter.quadratic(4), 1, ctx))
    return chars


def test_h_chi_teichmuller_cancellation_reports_the_shifted_modulus():
    # low precision makes totals that cancel every tracked digit common
    rng = random.Random(14)
    chars = _teichmuller_characters()
    small = [F(x, y) for x in range(-6, 7) for y in (1, 2, 4) if x % y or y == 1]
    seen = set()
    for _ in range(1000):
        chi = rng.choice(chars)
        a = rng.choice(A_ROWS[:7])
        k, u, q = rng.randint(0, 6), rng.choice(small), rng.choice(small)
        args = (k, len(a), a, u, q, chi)
        want = _outcome(_h_chi_reference_mapped, *args)
        expected = _pole_renamed(_cancellation_shifted(want, *args), chi.modulus)
        assert _outcome(h_chi, *args) == expected, args
        seen.add(want[:2] if want[0] == "error" else ("padic", chi(chi.context.p) != 0))
        if want[:2] == ("error", "PrecisionExhaustedError"):
            seen.add(("shifted", _cancellation_shifted(want, *args) != want))
    assert {("padic", False), ("padic", True), ("shifted", True), ("shifted", False)} <= seen
    assert {("error", "PoleError"), ("error", "PreconditionError")} <= seen


def _l_negative_reference(k, chi, u, q, a1, p):
    u, q = F(u), F(q)
    main = _h_chi_reference_mapped(k, 1, (a1,), u, q, chi)
    if chi(p) == 0:
        return main
    scale = chi.lift(qbracket(p, q) ** k * (1 - u) / (1 - u**p))
    return main - chi.lift(chi(p)) * scale * _h_chi_reference_mapped(k, 1, (a1,), u**p, q**p, chi)


def _exact_outcome(fn, *args):
    """The value, p-adic digits included, or the error's type and parameter."""
    try:
        value = fn(*args)
    except (QBarnesError, ArithmeticError) as exc:
        return ("error", type(exc).__name__, getattr(exc, "parameter", None))
    if isinstance(value, PadicNumber):
        return ("padic", value.valuation, value.unit, value.digits)
    return ("value", type(value).__name__, value)


def test_l_negative_exact_matches_the_old_euler_factor():
    rng = random.Random(15)
    rational = [
        DirichletCharacter.trivial(1),
        DirichletCharacter.trivial(4),
        DirichletCharacter.quadratic(3),
        DirichletCharacter.quadratic(4),
    ]
    teichmuller = _teichmuller_characters()
    seen = set()
    for _ in range(600):
        if rng.random() < 0.5:
            chi, p = rng.choice(rational), rng.choice((3, 5, 7))
        else:
            chi = rng.choice(teichmuller)
            p = chi.context.p
        k, a1 = rng.choice((-1, 0, 1, 2, 3, 4)), rng.choice((1, 1, 2, -1, 0))
        u = rng.choice([F(p), F(1, p), F(-p), F(2 * p), F(2, p * p), F(1, 2), F(-1), F(1), F(0)])
        q = rng.choice([F(1 + p), F(1 + 2 * p), F(4), F(1, 2), F(-1), F(1), F(0), F(7, 3)])
        args = (k, chi, u, q, a1, p)
        want = _exact_outcome(_l_negative_reference, *args)
        assert _exact_outcome(_l_negative_exact, *args) == want, args
        mode = "rational" if chi.context is None else "teichmuller"
        seen.add(want if want[0] == "error" else (want[0], mode, chi(p) != 0))
    # both modes with and without the Euler term, which chi(p) = 0 drops
    modes = (("value", "rational"), ("padic", "teichmuller"))
    assert {(kind, mode, euler) for kind, mode in modes for euler in (False, True)} <= seen
    errors = {("PreconditionError", flag) for flag in ("q", "k", "a")}
    errors |= {("PoleError", "u"), ("PrecisionExhaustedError", None)}
    assert {("error", *error) for error in errors} <= seen


def _additivity_reference(x, f, N, k, u, q, a1=1):
    coarse = measure_E_value(MeasureCell(x, f, N), k, u, q, a1)
    step = f * u.p**N
    fine = F(0)
    for i in range(u.p):
        fine += measure_E_value(MeasureCell(x + i * step, f, N + 1), k, u, q, a1)
    return fine - coarse


def test_measure_additivity_check_matches_per_cell_sum():
    rng = random.Random(16)
    us = {3: [F(3), F(1, 3), F(-3), F(6), F(2, 9)], 5: [F(5), F(-1, 5), F(10)]}
    seen = set()
    for _ in range(300):
        p = rng.choice((3, 5))
        u = AdmissibleU(rng.choice(us[p]), p)
        f, N = rng.choice((0, 1, 2, 3)), rng.choice((-1, 0, 0, 1))
        x = rng.randint(-1, max(f, 1) * p ** max(N, 0))
        k, a1 = rng.choice((-1, 0, 1, 2, 3)), rng.choice((1, -1, 2, 0, 3))
        q = rng.choice([F(4), F(-1), F(1), F(0), F(1, 2), F(-2), F(7, 3)])
        args = (x, f, N, k, u, q, a1)
        want = _outcome(_additivity_reference, *args)
        assert _outcome(measure_additivity_check, *args) == want, args
        seen.add(want[:3] if want[0] == "error" else ("value", want[2] == 0))
    assert ("value", True) in seen
    flags = ("f", "level-N", "x", "k", "a", "q")
    assert {("error", "PreconditionError", flag) for flag in flags} <= seen

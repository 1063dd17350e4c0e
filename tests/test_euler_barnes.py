import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qbarnes import (
    BarnesParams,
    DirichletCharacter,
    ExponentAlignmentError,
    FractionalArg,
    PoleError,
    Poly,
    PreconditionError,
    QBase,
    RationalFunctionQ,
    classical_gf_coefficients,
    distribution_check,
    h_addition,
    h_carlitz,
    h_chi,
    h_closed,
    h_rational_in_q,
    limit_q_to_1,
)
from qbarnes import euler_barnes
from qbarnes.errors import InternalError
from qbarnes.euler_barnes import (
    _coprime_mod,
    _gcd_mod,
    _int_gcd,
    _int_mul,
    _int_quotient,
    poly_gcd,
)
from qbarnes.exact_numbers import is_prime
from qbarnes.verify import run_suite


def _params(a, u, q):
    return BarnesParams(a, F(u), QBase(F(q)))


def test_h_closed_rank_one():
    # H_0 = 1, H_1 = u/(1 - qu)
    p = _params((1,), 3, 2)
    assert h_closed(0, 0, p) == 1
    assert h_closed(1, 0, p) == F(-3, 5)
    u, q = F(5, 7), F(2, 3)
    p2 = _params((1,), u, q)
    assert h_closed(1, 0, p2) == u / (1 - q * u)


def test_h_closed_fractional_argument():
    q = F(4, 9)
    base = QBase(F(2, 3), 2)
    p = BarnesParams((1,), F(5), base)
    got = h_closed(1, FractionalArg(1, 2), p)
    # (1-u)/(1-q) * ( 1/(1-u) - q^{1/2}/(1-qu) ) with q^{1/2} = 2/3
    root = F(2, 3)
    expect = (1 - F(5)) / (1 - q) * (1 / (1 - F(5)) - root / (1 - q * F(5)))
    assert got == expect


def test_h_closed_misaligned_argument():
    p = BarnesParams((1,), F(5), QBase(F(2)))
    from qbarnes import ExponentAlignmentError

    with pytest.raises(ExponentAlignmentError):
        h_closed(1, FractionalArg(1, 2), p)


def test_h_closed_pole_reports_indices():
    # u = q^{-2} hits 1 - q^{2} u = 0 at l = 2 (a = (1,))
    p = _params((1,), F(1, 4), 2)
    with pytest.raises(PoleError) as err:
        h_closed(3, 0, p)
    assert "l=2" in str(err.value) and "j=0" in str(err.value)


def test_h_closed_permutation_invariance():
    u, q = F(3, 2), F(5, 4)
    pa = _params((1, -2, 3), u, q)
    pb = _params((3, 1, -2), u, q)
    for n in range(6):
        assert h_closed(n, 1, pa) == h_closed(n, 1, pb)


def _h_closed_reference(n, w, params):
    """The closed form as a plain loop: n+1 Fractions added one at a time."""
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
    step = q.exponent // w.denominator
    u = params.u
    total = F(0)
    for l in range(n + 1):
        term = F(comb(n, l)) * (-1) ** l * q.power(l * w.numerator * step)
        for j, aj in enumerate(params.a):
            factor = 1 - q.power(l * aj * q.exponent) * u
            if factor == 0:
                raise PoleError(f"pole 1 - q^(l a_j) u = 0 at l={l}, j={j}", parameter="u")
            term /= factor
        total += term
    return (1 - u) ** params.r / (1 - q.value) ** n * total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PreconditionError, PoleError) as exc:
        return (type(exc).__name__, str(exc), exc.parameter)


def test_h_closed_matches_fraction_loop():
    _h_closed_draws()


def _h_closed_draws():
    """2000 seeded h_closed calls against the Fraction loop, faults included.
    Roots: zero, negative, |root| < 1 and > 1; u: negative, non-integer, and
    powers of the root, which put poles at small l."""
    roots = [F(0), F(-1), F(2), F(-2), F(3, 2), F(-2, 3), F(1, 3), F(-5, 4), F(3, 5)]
    us = [F(-3), F(2), F(5, 2), F(-2, 5), F(3, 7), F(-7, 3)]
    rng = random.Random(7)
    seen = set()
    for _ in range(2000):
        root, e = rng.choice(roots), rng.choice((1, 2, 3))
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        u = root ** rng.randint(-4, 4) if root and rng.random() < 0.3 else rng.choice(us)
        if u in (0, 1):
            continue
        w = FractionalArg(rng.randint(-3, 3), rng.choice((1, e, e, e, 2)))
        n = rng.randint(0, 7)
        params = BarnesParams(a, u, QBase(root, e))
        want = _outcome(_h_closed_reference, n, w, params)
        assert _outcome(h_closed, n, w, params) == want, (n, w, params)
        if isinstance(want, tuple):
            seen.add(want[0] if root else "q=0 " + want[1])
        else:
            seen.add(("w<0" if w.numerator < 0 else "w>=0", w.denominator, e))
            seen.add(("mixed a" if min(a) < 0 < max(a) else "one-sign a", n == 0))
            seen.add(("root<0" if root < 0 else "root>=0", abs(root) < 1))
    assert {"PoleError", "ExponentAlignmentError", "q=0 0 cannot be raised to a negative power"} <= seen
    assert {("w<0", 2, 2), ("w<0", 3, 3), ("mixed a", True), ("mixed a", False)} <= seen
    assert {("root<0", True), ("root<0", False), ("root>=0", True)} <= seen


def _per_term_sum(n, terms, params):
    """sum_i c_i H_n(w_i), one h_closed per term."""
    return sum((c * h_closed(n, w, params) for c, w in terms), F(0))


def _batch(n, terms, params):
    """sum_i c_i H_n(w_i) in one batch of route 1's kernel, the c_i brought
    over their lcm as integer weights."""
    scale = lcm(*(F(c).denominator for c, _ in terms))
    weights = [int(c * scale) for c, _ in terms]
    args = [(w.numerator, w.denominator) for _, w in terms]
    return euler_barnes._closed_form((n,), args, weights, scale, params, None)[0]


def test_route1_batch_matches_per_term_sum():
    _batch_draws()


def _batch_draws():
    """1500 seeded batches of (c_i, w_i) against the sum of the c_i
    h_closed(n, w_i): equal values, and the same first fault, which may be a
    pole at (l, j), 0 to a negative power, or a misaligned w."""
    roots = [F(0), F(-1), F(2), F(-2), F(3, 2), F(-2, 3), F(1, 3), F(-5, 4)]
    us = [F(-3), F(2), F(5, 2), F(-2, 5), F(3, 7)]
    coeffs = [F(0), F(1), F(-1), F(3), F(-2, 3), F(5, 4), F(-7, 6)]
    rng = random.Random(23)
    seen = set()
    for _ in range(1500):
        root, e = rng.choice(roots), rng.randint(1, 4)
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        u = root ** rng.randint(-4, 4) if root and rng.random() < 0.3 else rng.choice(us)
        if u in (0, 1):
            continue
        params = BarnesParams(a, u, QBase(root, e))
        # a few distinct arguments, aligned with e, drawn again for the terms
        # so that arguments repeat; an int w is w/1
        dens = [f for f in range(1, e + 1) if e % f == 0]
        args = [FractionalArg(rng.randint(-4, 4), rng.choice(dens)) for _ in range(rng.randint(1, 3))]
        args.append(rng.randint(-3, 3))
        terms = [(rng.choice(coeffs), rng.choice(args)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.1:
            terms.insert(rng.randrange(len(terms) + 1), (F(1), FractionalArg(1, e + 1)))
        n = rng.randint(0, 7)
        want = _outcome(_per_term_sum, n, terms, params)
        assert _outcome(_batch, n, terms, params) == want, (n, terms, params)
        ws = [w for _, w in terms]
        if isinstance(want, tuple):
            seen.add(want[0] if root else "q=0 " + want[1])
            if want[0] == "PoleError" and any(e % w.denominator for w in ws):
                seen.add("pole before a later misaligned w")
            continue
        seen.add(("fractional w", e) if any(w.denominator > 1 for w in ws) else e)
        seen.add(("mixed a" if min(a) < 0 < max(a) else "one-sign a", len(a)))
        cs = [c for c, _ in terms]
        if len(set(ws)) < len(ws):
            seen.add("repeated w")
        # one power of the root for the whole batch, or several
        powers = {w.numerator * e // w.denominator for w in ws}
        seen.add(("one power", len(ws) > 1) if len(powers) == 1 else "several powers")
        if 0 in cs:
            seen.add("zero c")
        if min(cs) < 0:
            seen.add("negative c")
    assert {"PoleError", "ExponentAlignmentError", "q=0 0 cannot be raised to a negative power"} <= seen
    assert "pole before a later misaligned w" in seen
    assert {("fractional w", e) for e in (2, 3, 4)} | {1} <= seen
    assert {(s, r) for s in ("mixed a", "one-sign a") for r in (2, 3)} <= seen
    assert {"repeated w", "zero c", "negative c", "several powers"} <= seen
    assert {("one power", True), ("one power", False)} <= seen


def test_route1_reducing_at_every_merge_matches_the_same_draws(monkeypatch):
    # with no size constant, every merge of route 1's tree reduces its
    # operands and adds by the gcd split, down to the two-leaf merges
    monkeypatch.setattr(euler_barnes, "_REDUCE_BITS", 0)
    _h_closed_draws()
    _batch_draws()


def test_route1_small_size_constant_mixes_plain_and_reducing_sums(monkeypatch):
    # at 40 bits, a draw whose D_l stay under it together takes the plain
    # tree and one Fraction, and a larger one reduces only its upper merges
    monkeypatch.setattr(euler_barnes, "_REDUCE_BITS", 40)
    _h_closed_draws()
    _batch_draws()


def test_route1_large_sums_match_the_plain_tree(monkeypatch):
    # large n, mixed-sign a, negative q and u, and batches whose weights
    # cancel, for one k or for every k: the tree reducing at every merge and
    # at the module's size constant against the plain tree, whose result
    # `Fraction` reduces; the reduced pairs are stored as they are, so each
    # value must come out with a coprime pair and a positive denominator
    rng = random.Random(27)
    draws = []
    for _ in range(4):
        r = rng.randint(1, 3)
        a = [rng.choice((1, 2, 3)) * rng.choice((-1, 1)) for _ in range(r)]
        a[0] = -abs(a[0]) if a[-1] > 0 else abs(a[0])
        root = F(rng.choice((-3, -2, 2, 3)), rng.choice((1, 2, 5)))
        # 7 divides u, so no power of the root meets 1/u: no pole
        u = rng.choice((F(-7, 2), F(-7, 3), F(14, 5), F(-2, 7)))
        draws.append((rng.randint(100, 200), tuple(a), u, root, [(F(1), rng.randint(-3, 3))]))
    # weights that cancel: one k summing to 0, and two ks each summing to 0
    draws.append((120, (-2, 3), F(-5, 2), F(-3, 2), [(F(2, 3), 1), (F(-2, 3), 1)]))
    draws.append((100, (1, -1), F(-2, 5), F(-2, 3), [(F(1), 0), (F(-1), 0), (F(5), 2), (F(-5), 2)]))
    # weights of several ks that leave a nonzero sum
    draws.append((150, (-1, 2, -3), F(-7, 3), F(-5, 2), [(F(3), -2), (F(-1, 4), 1), (F(1), 3)]))
    want = {}
    with monkeypatch.context() as m:
        m.setattr(euler_barnes, "_REDUCE_BITS", 1 << 40)
        m.setattr(euler_barnes, "coprime_fraction", F)
        for i, (n, a, u, root, terms) in enumerate(draws):
            want[i] = _batch(n, terms, _params(a, u, root))
    assert sum(v == 0 for v in want.values()) == 2
    assert all(v.denominator.bit_length() > 2000 for v in want.values() if v)
    for bits in (0, euler_barnes._REDUCE_BITS):
        monkeypatch.setattr(euler_barnes, "_REDUCE_BITS", bits)
        for i, (n, a, u, root, terms) in enumerate(draws):
            got = _batch(n, terms, _params(a, u, root))
            assert got == want[i], (bits, n, a, u, root, terms)
            assert gcd(got.numerator, got.denominator) == 1 and got.denominator > 0


def test_route1_runs_match_one_n_at_a_time():
    # 800 seeded runs of 1-5 n in 0..9, unsorted and with repeats, at int
    # and fractional w, against one h_closed call per n; a run faults as
    # its largest n alone does (a pole at (l, j), 0 to a negative power, a
    # misaligned w), and a negative n first
    roots = [F(0), F(-1), F(2), F(-2), F(3, 2), F(-2, 3), F(1, 3), F(-5, 4)]
    us = [F(-3), F(2), F(5, 2), F(-2, 5), F(3, 7)]
    rng = random.Random(33)
    seen = set()
    for _ in range(800):
        root, e = rng.choice(roots), rng.choice((1, 2, 3))
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        u = root ** rng.randint(-4, 4) if root and rng.random() < 0.3 else rng.choice(us)
        if u in (0, 1):
            continue
        params = BarnesParams(a, u, QBase(root, e))
        w = FractionalArg(rng.randint(-3, 3), rng.choice((1, e, e, 2)))
        ns = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
        want = _outcome(h_closed, max(ns), w, params)
        if isinstance(want, tuple):
            assert _outcome(euler_barnes.h_closed_run, ns, w, params) == want, (ns, w, params)
            seen.add(want[0])
            continue
        assert euler_barnes.h_closed_run(ns, w, params) == [h_closed(n, w, params) for n in ns]
        seen.add("repeated n" if len(set(ns)) < len(ns) else "distinct n")
        seen.add("unsorted" if ns != sorted(ns) else "sorted")
    assert {"PoleError", "ExponentAlignmentError", "PreconditionError"} <= seen
    assert {"repeated n", "distinct n", "unsorted", "sorted"} <= seen
    with pytest.raises(PreconditionError) as exc:
        euler_barnes.h_closed_run((3, -1), 0, _params((1,), 3, 2))
    assert exc.value.parameter == "n"


def test_route1_runs_past_the_size_constant_match_one_n_at_a_time(monkeypatch):
    # a run whose large n reduce merge by merge and whose small n take the
    # plain tree, at the module's size constant, at 40 bits and at none
    reducing = []

    def counting(x, y):
        reducing.append(1)
        return add_fractions(x, y)

    add_fractions = euler_barnes._add_fractions
    monkeypatch.setattr(euler_barnes, "_add_fractions", counting)
    ns = (2, 150, 40, 0, 150, 90)
    for a, u, root, w in (((-2, 3), F(-5, 2), F(-3, 2), 1), ((1, -1, 2), F(-7, 3), F(5, 2), -2)):
        params = _params(a, u, root)
        for bits in (euler_barnes._REDUCE_BITS, 40, 0):
            monkeypatch.setattr(euler_barnes, "_REDUCE_BITS", bits)
            reducing.clear()
            run = euler_barnes.h_closed_run(ns, w, params)
            assert reducing, bits
            assert run == [h_closed(n, w, params) for n in ns], (a, bits)
        assert max(v.denominator.bit_length() for v in run) > 2000


def test_refinement_and_distribution_runs_match_one_n_at_a_time():
    # seeded batches of weighted indices, the coarse u handed to route 1,
    # against one refinement per n; distribution residuals alike
    rng = random.Random(34)
    coeffs = [F(1), F(-1), F(3), F(-2, 3), F(5, 4)]
    seen = set()
    for _ in range(200):
        r, f = rng.randint(1, 2), rng.randint(2, 3)
        a = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(r))
        u = rng.choice((F(-3), F(2), F(5, 2), F(-2, 5), F(3, 7), F(-1)))
        q = rng.choice((F(2), F(-3, 2), F(2, 3), F(-1, 2), F(-1)))
        w = rng.randint(-2, 3)
        ns = [rng.randint(0, 8) for _ in range(rng.randint(1, 4))]
        batch = [
            (rng.choice(coeffs), tuple(rng.randrange(f) for _ in range(r)))
            for _ in range(rng.randint(1, 4))
        ]
        want = _outcome(lambda: euler_barnes.refinement(max(ns), w, a, u, q, f)(batch))
        got = _outcome(lambda: euler_barnes.refinement_run(ns, w, a, u, q, f)(batch))
        if isinstance(want, tuple):
            assert got == want, (ns, w, a, u, q, f, batch)
            seen.add(want[0])
            continue
        assert got == [euler_barnes.refinement(n, w, a, u, q, f)(batch) for n in ns]
        params = _params(a, u, q)
        residuals = euler_barnes.distribution_run(ns, w, f, params)
        assert residuals == [distribution_check(n, w, f, params) for n in ns] == [0] * len(ns)
        seen.add("value")
    assert seen == {"value", "PoleError", "PreconditionError"}


def test_non_integral_a_j_is_rejected_not_rounded():
    # 3/2 was once taken as 1 (BarnesParams, h_rational_in_q), 5/2 as 2
    # (h_chi), and 3/2 as itself (classical_gf_coefficients)
    triv = DirichletCharacter.trivial(1)
    for call in (
        lambda: BarnesParams((F(3, 2),), F(3), QBase(F(2))),
        lambda: h_rational_in_q(2, 0, 1, (F(3, 2),), F(3)),
        lambda: limit_q_to_1(2, 0, 1, (F(3, 2),), F(3)),
        lambda: h_chi(2, 1, (F(5, 2),), F(3), F(2), triv),
        lambda: h_chi(2, 2, (1, F(3, 2)), F(3), F(2), DirichletCharacter.trivial(2)),
        lambda: classical_gf_coefficients(0, F(3), (F(3, 2),), 2),
    ):
        with pytest.raises(PreconditionError, match="must be an integer") as err:
            call()
        assert err.value.parameter == "a"
    # an entry equal to an integer is taken as that integer
    assert BarnesParams((F(2), -1.0), F(3), QBase(F(2))).a == (2, -1)
    assert h_chi(2, 1, (F(2),), F(3), F(2), triv) == h_chi(2, 1, (2,), F(3), F(2), triv)
    assert classical_gf_coefficients(0, F(3), (F(2),), 3) == classical_gf_coefficients(0, F(3), (2,), 3)


def test_q_one_rejected():
    with pytest.raises(PreconditionError):
        h_closed(1, 0, BarnesParams((1,), F(3), QBase(F(1), classical=True)))


def test_carlitz_first_values():
    u, q = F(7, 3), F(2)
    assert h_carlitz(0, u, q) == 1
    assert h_carlitz(1, u, q) == 1 / (u - q)
    with pytest.raises(PoleError):
        h_carlitz(2, F(4), F(2))  # u = q^2 pivot vanishes


def test_carlitz_bridges_closed_form():
    u, q = F(3), F(2)
    p = _params((1,), u, q)
    for k in range(9):
        assert h_carlitz(k, 1 / u, q) == h_closed(k, 0, p)


def _h_carlitz_reference(k, u, q):
    """`h_carlitz` as a Fraction loop that reduces at every step."""
    if k < 0:
        raise PreconditionError("k must be >= 0", parameter="k")
    u = F(u)
    q = F(q)
    values = [F(1)]
    for m in range(1, k + 1):
        pivot = u - q**m
        if pivot == 0:
            raise PoleError(f"vanishing pivot u = q^{m} in the recurrence", parameter="u")
        acc = F(0)
        for i in range(m):
            acc += comb(m, i) * q**i * values[i]
        values.append(acc / pivot)
    return values[k]


def test_carlitz_matches_fraction_reference():
    rng = random.Random(21)

    def fraction(height):
        return F(rng.randint(-height, height), rng.randint(1, height))

    seen = set()
    for _ in range(400):
        k = rng.choice((-1, 0, 0, 1, 2, 5, 9, 14, 20))
        q = rng.choice((F(0), F(-1), F(1), fraction(5), fraction(5), fraction(10**6)))
        kind = rng.choice(("pole 1", "pole k", "zero", "random", "random", "q^(k+1)"))
        m = {"pole 1": 1, "pole k": k, "q^(k+1)": k + 1}.get(kind)
        if m is not None and m >= 1 and q != 0:
            u = q**m
        elif kind == "zero":
            u = F(0)
        else:
            u = fraction(rng.choice((7, 10**6)))
        want = _outcome(_h_carlitz_reference, k, u, q)
        got = _outcome(h_carlitz, k, u, q)
        assert (type(got), got) == (type(want), want), (k, u, q)
        is_value = type(want) is F
        seen.add("value" if is_value else "error")
        message = "" if is_value else want[1]
        seen |= {
            name
            for name, hit in (
                ("k = 0", k == 0),
                ("pole at m = 1", message.endswith("q^1 in the recurrence")),
                ("pole at m = k > 1", k > 1 and message.endswith(f"q^{k} in the recurrence")),
                ("q = 0", q == 0 and is_value),
                ("u = 0", u == 0 and is_value),
                ("q < 0", q < 0 and is_value),
                ("u < 0", u < 0 and is_value),
                ("|q| < 1", 0 < abs(q) < 1 and k > 2 and is_value),
                ("k < 0", not is_value and want[2] == "k"),
            )
            if hit
        }
    assert seen == {
        "value", "error", "k = 0", "pole at m = 1", "pole at m = k > 1", "q = 0",
        "u = 0", "q < 0", "u < 0", "|q| < 1", "k < 0",
    }


def test_addition_formula():
    p = _params((1, 2), F(5, 3), F(3, 2))
    for n in range(6):
        for w in range(4):
            assert h_addition(n, w, p) == h_closed(n, w, p)


def test_addition_sum_from_the_callers_h_k0_matches_h_addition_and_h_closed():
    # seeded draws of rank 1-3, mixed-sign a, rational u and q of either
    # sign; route 2's sum from one list of H_k(0), k <= 8, for every
    # (n, w), w < 0 included, equals h_addition and route 1
    rng = random.Random(18)
    draws = 0
    while draws < 12:
        a = tuple(rng.choice((-2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        u, q = (F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        if u in (0, 1) or q in (0, 1):
            continue
        params = _params(a, u, q)
        try:
            h0 = [h_closed(k, 0, params) for k in range(9)]
        except PoleError:
            continue
        draws += 1
        for n, w in itertools.product(range(9), range(-2, 5)):
            expected = h_closed(n, w, params)
            assert euler_barnes._addition_sum(n, w, q, h0) == expected, (a, u, q, n, w)
            assert h_addition(n, w, params) == expected


def test_distribution_residual_zero():
    p = _params((1, -2), F(5, 2), F(3, 2))
    for f in (2, 3):
        for n in range(5):
            assert distribution_check(n, 1, f, p) == 0


def test_distribution_rejects_root_of_unity_u():
    p = _params((1,), F(-1), F(3, 2))
    with pytest.raises(PoleError):
        distribution_check(1, 0, 2, p)


def test_distribution_rejects_degenerate_refined_base():
    # q = -1 is a valid base, but the order-2 refined base q^2 is 1
    with pytest.raises(PreconditionError, match=r"q\^2 = 1") as err:
        distribution_check(1, 0, 2, _params((1,), F(3), F(-1)))
    assert err.value.parameter == "q"
    assert distribution_check(1, 0, 3, _params((1,), F(3), F(-1))) == 0


def _closed_form_cases():
    """(n, w, a, u) of route 4's comparison with route 1."""
    # u = c/d with d > 1 exercises the cancelled powers of d; negative w and
    # negative a_j exercise the cleared factors q and q^m - u
    cases = [
        (0, 0, (1,), F(3)),
        (2, 1, (1, 2), F(3)),
        (3, 2, (2, -1), F(3)),
        (4, 0, (1, 1, 2), F(3)),
        (5, -1, (1, -2), F(5, 2)),
        (8, 2, (2, -1), F(-2, 5)),
        (6, -2, (-1, 2, 1), F(-3, 4)),
        (7, 1, (-2,), F(5, 2)),
        (8, -1, (1, -1), F(-3, 4)),
        (3, 0, (-1, -2), F(-2, 5)),
        # u = -1: numerator and denominator share a factor, so the modular
        # gcd lifts a nontrivial image and certifies it by exact division
        (3, 1, (1,), F(-1)),
        (2, 0, (2, -1), F(-1)),
        (3, -1, (1, 1), F(-1)),
        (4, 2, (2,), F(-1)),
    ]
    # a seeded grid over mixed-sign a_j and w; a monic denominator coprime to
    # the numerator that agrees with route 1 pins the unique reduced form
    rng = random.Random(8)
    for _ in range(300):
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        d = rng.randint(2, 5)
        c = rng.choice([x for x in range(-7, 8) if x and gcd(x, d) == 1])
        u = F(-1) if rng.random() < 0.2 else F(c, d)
        # n capped lower at larger r keeps the degrees, and the test, small
        cases.append((rng.randint(0, (7, 6, 4)[len(a) - 1]), rng.randint(-3, 3), a, u))
    return cases


def test_rational_in_q_evaluates_to_closed_form(monkeypatch):
    gcd_degrees = []
    int_gcd = euler_barnes._int_gcd

    def recording_gcd(f, g, factors=None):
        result = int_gcd(f, g, factors)
        gcd_degrees.append(len(result[0]) - 1)
        return result

    monkeypatch.setattr(euler_barnes, "_int_gcd", recording_gcd)
    seen = set()
    for n, w, a, u in _closed_form_cases():
        ratfn = h_rational_in_q(n, w, len(a), a, u)
        assert ratfn.denominator.coeffs[-1] == 1, (n, w, a, u)
        assert poly_gcd(ratfn.numerator, ratfn.denominator).degree == 0, (n, w, a, u)
        for q in (F(2), F(5, 3), F(-1, 2), F(7)):
            try:
                want = h_closed(n, w, BarnesParams(a, u, QBase(q)))
            except PoleError:
                seen.add("pole")
                continue
            assert ratfn(q) == want, (n, w, a, u, q)
        seen.add(n == 0)
        if w < 0 and min(a) < 0:
            seen.add("w<0 and a_j<0")
    assert {True, False, "w<0 and a_j<0", "pole"} <= seen
    assert max(gcd_degrees) > 0


def _pseudo_rem(f, g):
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


def _prs_gcd_reference(f, g):
    """Primitive gcd of two primitive integer polynomials by the primitive PRS."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    while b:
        r = _pseudo_rem(a, b)
        if r:
            c = 0
            for x in r:
                c = gcd(c, x)
            r = [x // c for x in r]
        a, b = b, r
    return a


def _split_factor_cases():
    """(n, w, a, u) over u = c/d whose factors d - c q^m split over Z
    (u = -1, +-1/4, 4, 9, 1/8, -8) or not (u = 5/2)."""
    rng = random.Random(10)
    us = [F(-1), F(1, 4), F(-1, 4), F(4), F(9), F(1, 8), F(-8), F(5, 2)]
    cases = []
    for _ in range(400):
        a = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        n = rng.randint(0, (8, 5, 3)[len(a) - 1])
        cases.append((n, rng.randint(-3, 3), a, rng.choice(us)))
    return cases


def test_int_gcd_matches_prs_reference(monkeypatch):
    # every (num, den) route 4 reduces, with and without the denominator's
    # binomial factors; the nontrivial gcds all come from u = -1
    pairs = []

    def capturing_gcd(f, g, factors=None):
        pairs.append((f, g, factors))
        return _int_gcd(f, g, factors)

    monkeypatch.setattr(euler_barnes, "_int_gcd", capturing_gcd)
    for n, w, a, u in _split_factor_cases():
        h_rational_in_q(n, w, len(a), a, u)
    nontrivial = 0
    for f, g, factors in pairs:
        assert factors is not None
        want = _prs_gcd_reference(f, g)
        for h, f_quo, g_quo in (_int_gcd(f, g), _int_gcd(f, g, factors)):
            assert h in (want, [-x for x in want]), (f, g)
            assert _int_mul(h, f_quo) == f and _int_mul(h, g_quo) == g
        nontrivial += len(h) > 1
    assert nontrivial >= 20


def _first_prime(f, g):
    """The first prime `_int_gcd` works at: below 2^61, dividing neither top."""
    P = 2**61 - 1
    while not (f[-1] % P and g[-1] % P and is_prime(P)):
        P -= 2
    return P


def _captured_reductions(monkeypatch, run):
    """The (f, g, factors) of every `_int_gcd` call that run() makes."""
    calls = []
    int_gcd = euler_barnes._int_gcd

    def capturing_gcd(f, g, factors=None):
        calls.append((f, g, factors))
        return int_gcd(f, g, factors)

    with monkeypatch.context() as patch:
        patch.setattr(euler_barnes, "_int_gcd", capturing_gcd)
        run()
    return calls


def test_factorwise_certificate_matches_whole_pair_gcd(monkeypatch):
    # every reduction route 4 makes on the seeded grids above and on the
    # qlimit suite at seeds 0-7 (10 draws, n = 0..10 each): the verdict
    # factor by factor is the whole-pair verdict, and the factors change
    # nothing that _int_gcd returns
    def grids():
        for n, w, a, u in _closed_form_cases() + _split_factor_cases():
            h_rational_in_q(n, w, len(a), a, u)

    reductions = _captured_reductions(monkeypatch, grids)
    qlimit = _captured_reductions(monkeypatch, lambda: [run_suite("qlimit", seed=s) for s in range(8)])
    assert len(qlimit) == 880
    verdicts = Counter()
    for f, g, factors in reductions + qlimit:
        P = _first_prime(f, g)
        coprime = len(_gcd_mod(f, g, P)) == 1
        assert _coprime_mod(f, g, factors, P) == coprime, (f, g, factors)
        # without factors, an image of degree 0 at P returns ([1], f, g)
        assert _int_gcd(f, g, factors) == (([1], f, g) if coprime else _int_gcd(f, g))
        verdicts[coprime] += 1
    assert verdicts[True] > 1000 and verdicts[False] >= 20


def test_whole_pair_gcd_runs_only_past_a_nontrivial_first_image(monkeypatch):
    # the coprime case never reaches the whole-pair Euclid: a fast path
    # switched off would still give every right answer, but not this count
    reductions = []
    int_gcd, gcd_mod = euler_barnes._int_gcd, euler_barnes._gcd_mod

    def tracking_gcd(f, g, factors=None):
        reductions.append((f, g, [0]))
        return int_gcd(f, g, factors)

    def counting_gcd_mod(a, b, P):
        f, g, whole = reductions[-1]
        whole[0] += a is f and b is g
        return gcd_mod(a, b, P)

    with monkeypatch.context() as patch:
        patch.setattr(euler_barnes, "_int_gcd", tracking_gcd)
        patch.setattr(euler_barnes, "_gcd_mod", counting_gcd_mod)
        run_suite("qlimit", seed=0)
    assert len(reductions) == 110
    for f, g, (whole,) in reductions:
        assert (whole > 0) == (len(_gcd_mod(f, g, _first_prime(f, g))) > 1), (f, g)
    assert sum(whole == 0 for _, _, (whole,) in reductions) > 100


def test_factorwise_certificate_on_constructed_pairs(monkeypatch):
    P = 2**61 - 1
    # u = 3/5: |c| != |d|, so the binomial of m > 0 (q^m - d/c) and that of
    # m < 0 (q^|m| - c/d) differ
    c, d = 3, 5

    def binomial(m):
        gap = [0] * (abs(m) - 1)
        return [d, *gap, -c] if m > 0 else [-c, *gap, d]

    G = [1, 2, 0, 7]
    g = _int_mul(_int_mul(binomial(1), binomial(2)), binomial(-3))
    assert _coprime_mod(G, g, (c, d, (1, 2, -3)), P)
    assert _int_gcd(G, g, (c, d, (1, 2, -3))) == _int_gcd(G, g) == ([1], G, g)
    for shared in (2, -3):
        N = _int_mul(binomial(shared), G)
        # the shared factor comes last, then first
        others = tuple(m for m in (1, 2, -3) if m != shared)
        for ms in ((*others, shared), (shared, *others)):
            assert not _coprime_mod(N, g, (c, d, ms), P), (shared, ms)
            assert len(_gcd_mod(N, g, P)) > 1
            h, N_quo, g_quo = _int_gcd(N, g, (c, d, ms))
            assert h in (binomial(shared), [-x for x in binomial(shared)])
            assert (h, N_quo, g_quo) == _int_gcd(N, g)

    # a power of q in the denominator: N(0) = P vanishes mod P, so P is
    # unlucky, and the next prime shows coprimality
    g = [0, *binomial(2)]
    N = [P, 1, 1]
    assert not _coprime_mod(N, g, (c, d, (2,)), P)
    assert len(_gcd_mod(N, g, P)) > 1
    assert _int_gcd(N, g, (c, d, (2,))) == _int_gcd(N, g) == ([1], N, g)
    assert _coprime_mod([P + 1, 1, 1], g, (c, d, (2,)), P)

    # P divides d (u = 1/P, m = 2) or c (u = P/2, m = -1): the factor-wise
    # check is skipped, and the whole-pair gcd decides
    def no_factorwise_check(*args):
        raise AssertionError("the factor-wise check ran where P divides c or d")

    monkeypatch.setattr(euler_barnes, "_coprime_mod", no_factorwise_check)
    for g, factors in (([P, 0, -1], (1, P, (2,))), ([-P, 2], (P, 2, (-1,)))):
        assert _int_gcd(G, g, factors) == _int_gcd(G, g) == ([1], G, g)


def test_int_gcd_survives_unlucky_primes():
    P = 2**61 - 1
    # q - 1 and q - 1 - P agree mod P: the first image is q - 1, which the
    # certificate rejects, and the next prime shows coprimality
    assert _int_gcd([-1, 1], [-1 - P, 1]) == ([1], [-1, 1], [-1 - P, 1])
    # the first image (q + 1)(q - 1) is unlucky; the next, of lower degree,
    # restarts the accumulator
    h, f_quo, g_quo = _int_gcd(_int_mul([1, 1], [-1, 1]), _int_mul([1, 1], [-1 - P, 1]))
    assert (h, f_quo, g_quo) == ([1, 1], [-1, 1], [-1 - P, 1])
    # q + 2^100 needs two primes before its lift is exact
    shared = [2**100, 1]
    h, f_quo, g_quo = _int_gcd(_int_mul(shared, [1, 1]), _int_mul(shared, [-1, 1]))
    assert (h, f_quo, g_quo) == (shared, [1, 1], [-1, 1])
    # a leading coefficient divisible by the first prime skips it
    assert _int_gcd([1, 0, P], [1, P])[0] == [1]
    # mod P both are coprime; over Z they share P q + 1
    h, f_quo, g_quo = _int_gcd(_int_mul([1, P], [2, 1]), _int_mul([1, P], [3, 1]))
    assert (h, f_quo, g_quo) == ([1, P], [2, 1], [3, 1])


def _route4_lists_reference(n, w, a, u):
    """The (numerator / (1-q)^n, denominator) lists route 4 hands to
    `RationalFunctionQ.reduced`, by the per-term loop the product tree
    replaced: each piece multiplied by every factor power it lacks, in
    turn."""
    c, d = u.numerator, u.denominator
    terms = []
    for l in range(n + 1):
        ms = Counter(l * aj for aj in a if l * aj)
        terms.append((ms, l * w - sum(m for m in ms.elements() if m < 0)))
    common = Counter()
    for ms, _ in terms:
        common |= ms
    e_min = min(e for _, e in terms)

    def fpow(m, k):
        factor = [d, *[0] * (abs(m) - 1), -c] if m > 0 else [-c, *[0] * (abs(m) - 1), d]
        out = [1]
        for _ in range(k):
            out = _int_mul(out, factor)
        return out

    numerator = []
    for l, (ms, e) in enumerate(terms):
        piece = [0] * (e - e_min) + [(-1) ** l * comb(n, l) * (d - c) ** ms.total()]
        for m, mult in common.items():
            if mult > ms[m]:
                piece = _int_mul(piece, fpow(m, mult - ms[m]))
        numerator += [0] * (len(piece) - len(numerator))
        for i, x in enumerate(piece):
            numerator[i] += x
    denominator = [0] * -e_min + [1]
    for m, mult in common.items():
        denominator = _int_mul(denominator, fpow(m, mult))
    one_minus_q_n = [comb(n, k) * (-1) ** k for k in range(n + 1)]
    return _int_quotient(numerator, one_minus_q_n), denominator, common


def test_numerator_tree_matches_per_term_loop(monkeypatch):
    # the unreduced lists, before any reduction can hide a wrong numerator;
    # repeated a_j make merges where a side lacks a factor power above 1, and
    # mixed signs put factors m > 0 and m < 0 in one merge
    captured = []
    reduced = RationalFunctionQ.reduced

    def capturing_reduced(numerator, denominator, factors=None):
        captured.append((numerator, denominator, factors[2]))
        return reduced(numerator, denominator, factors)

    monkeypatch.setattr(RationalFunctionQ, "reduced", capturing_reduced)
    repeated = [
        (n, w, a, u)
        for n in (2, 5, 7)
        for w in (-2, 1)
        for a in ((1, 1, -2), (2, 2), (-1, -1), (3, -1, 3))
        for u in (F(5, 2), F(-1), F(-3, 4))
    ]
    cases = _closed_form_cases() + _split_factor_cases() + repeated
    for n, w, a, u in cases:
        h_rational_in_q(n, w, len(a), a, u)
    assert len(captured) == len(cases)
    for case, lists in zip(cases, captured):
        assert lists == _route4_lists_reference(*case), case


def test_rational_in_q_is_reduced():
    ratfn = h_rational_in_q(3, 1, 2, (1, 2), F(3))
    g = poly_gcd(ratfn.numerator, ratfn.denominator)
    assert g.degree == 0
    # denominator normalized monic
    assert ratfn.denominator.coeffs[-1] == 1
    # no accidental pole at q = 1 after reduction
    assert ratfn.denominator(F(1)) != 0


def test_rational_function_reduces_integer_lists():
    def parts(num, den):
        rf = RationalFunctionQ.reduced(num, den)
        return list(rf.numerator.coeffs), list(rf.denominator.coeffs)

    # 3q^2(1 + 2q) / (q^3 (2 + 5q)): the shared q^2 comes off
    assert parts([0, 0, 3, 6], [0, 0, 0, 2, 5]) == ([F(3, 5), F(6, 5)], [0, F(2, 5), 1])
    # contents 2 and 3, negative leading denominator coefficient
    assert parts([4, 6], [-3, 0, -9]) == ([F(-4, 9), F(-2, 3)], [F(1, 3), 0, 1])
    # 2(q - 1)(q + 2) / ((q - 1)(3q + 1)): the gcd q - 1 divides out
    assert parts([-4, 2, 2], [-1, -2, 3]) == ([F(4, 3), F(2, 3)], [F(1, 3), 1])
    # trailing zeros
    assert parts([1, 2, 0, 0], [3, 0, 0]) == ([F(1, 3), F(2, 3)], [1])
    assert parts([0, 0], [5, 1]) == ([], [1])
    with pytest.raises(ZeroDivisionError):
        RationalFunctionQ.reduced([1], [0, 0])

    assert _int_quotient([-2, 1, 1], [-1, 1]) == [2, 1]
    assert _int_quotient([1, 1], [1, 2]) is None  # leading quotient 1/2
    assert _int_quotient([1, 0, 1], [-1, 1]) is None  # q^2 + 1 = (q + 1)(q - 1) + 2


def test_rational_in_q_remainder_is_an_internal_error(monkeypatch):
    # (1 - q)^n always divides the summed numerator; a remainder is a bug
    monkeypatch.setattr(euler_barnes, "_int_quotient", lambda f, g: None)
    with pytest.raises(InternalError, match="exact polynomial division"):
        h_rational_in_q(2, 0, 1, (1,), F(3))


def test_rational_in_q_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def coeffs(expr):
        return [F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, q).all_coeffs())]

    for n, w, a, u in [
        (1, 0, (1,), F(3)),
        (3, 1, (1, 2), F(5, 2)),
        (4, -1, (2, -1), F(-2, 5)),
        (3, 2, (-1, 1), F(-3, 4)),
        (2, -2, (-2,), F(3)),
        (3, 1, (1,), F(-1)),
        (2, 0, (2, -1), F(-1)),
        (3, -1, (1, 1), F(-1)),
        (4, 2, (2,), F(-1)),
    ]:
        su = sympy.Rational(u.numerator, u.denominator)
        total = sum(
            sympy.binomial(n, l) * (-1) ** l * q ** (l * w)
            * sympy.Mul(*[1 / (1 - q ** (l * aj) * su) for aj in a])
            for l in range(n + 1)
        )
        num, den = sympy.fraction(sympy.cancel((1 - su) ** len(a) / (1 - q) ** n * total))
        lead = sympy.Poly(den, q).LC()
        ratfn = h_rational_in_q(n, w, len(a), a, u)
        assert list(ratfn.numerator.coeffs) == coeffs(num / lead), (n, w, a, u)
        assert list(ratfn.denominator.coeffs) == coeffs(den / lead), (n, w, a, u)


def test_limit_q_to_1_matches_classical():
    a, u, w = (1, 2), F(5, 2), 1
    classical = classical_gf_coefficients(w, 1 / u, a, 6)
    for n in range(7):
        assert limit_q_to_1(n, w, 2, a, u) == classical[n]


def _poly_value_reference(poly, q):
    """`Poly.__call__` as the Fraction Horner it replaced."""
    acc = F(0)
    for c in reversed(poly.coeffs):
        acc = acc * q + c
    return acc


def test_poly_value_matches_fraction_horner():
    rng = random.Random(12)

    def fraction():
        return F(rng.randint(-30, 30), rng.randint(1, 20))

    polys = [Poly(()), Poly([F(-7, 3)]), Poly([0, 0, 1])]
    polys += [Poly([fraction() for _ in range(rng.randint(1, 15))]) for _ in range(200)]
    for poly in polys:
        for q in (0, F(0), F(1), F(-1), 2, -3, fraction(), fraction(), fraction()):
            got = poly(q)
            assert type(got) is F and got == _poly_value_reference(poly, q), (poly, q)
    assert Poly(())(F(-5, 3)) == 0
    assert Poly([F(1, 2), F(-3, 4)])(F(-2, 3)) == F(1)


def test_poly_keeps_fractions_and_strips_trailing_zeros():
    poly = Poly([1, F(1, 2), 0])
    assert poly.coeffs == (1, F(1, 2))
    assert all(type(c) is F for c in poly.coeffs)
    assert Poly([0, F(0)]).is_zero


def test_poly_gcd_basic():
    x_minus_1 = Poly((F(-1), F(1)))
    sq = x_minus_1 * x_minus_1
    other = x_minus_1 * Poly((F(2), F(1)))
    assert poly_gcd(sq, other) == x_minus_1
    coprime = poly_gcd(Poly((F(1), F(1))), Poly((F(2), F(1))))
    assert coprime.degree == 0


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.integers(min_value=-2, max_value=2).filter(lambda v: v != 0),
        min_size=1,
        max_size=2,
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_addition_matches_closed_everywhere(n, w, a, u, q):
    if u in (0, 1) or q in (0, 1):
        return
    p = BarnesParams(tuple(a), u, QBase(q))
    try:
        expect = h_closed(n, w, p)
    except PoleError:
        return
    assert h_addition(n, w, p) == expect

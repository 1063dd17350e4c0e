"""Seeded input generators for the three workloads.

Every generator is a pure function of the benchmark seed: the same seed
yields the same inputs in the same order. Streams are infinite and built in
blocks of fixed composition; the closed loop consumes as many blocks as fit
in the measured window. Every block holds the same fixed rows of large
sizes, so runs on different seeds see the same mix of sizes and their
timings stay comparable.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

# Suite seeds for verify-all. `qbarnes verify all` costs four times as much
# at some seeds as at others: most of it is the exact Riemann sums of the
# riemann-limit suite, whose denominators grow like q^(|a| n p^N) when some
# a_j < 0. At seed 0 one sample dominates (p = 7, nu_p(u) = 2, q = 22,
# u = 98, a = (-2,), about 85% of the run). The pool holds the first eight
# suite seeds that, replaying the suite's parameter sampler
# (`qbarnes.verify.ParameterSampler` and `_sample_padic_qu`), draw that same
# sample, draw no other p = 7 sample with a negative a_j, and score within
# 0.5% of seed 0 on a cost model: the sum over the suite's samples, levels
# N = 1..4 and n = 1..3 of p^(N r) * (n * sum(-a_j for a_j < 0) * p^N *
# log2 q)^2, the cost of the gcds in Fraction addition. Timed on a 2-core VM,
# every pool seed took 36-51 s per run, seed 0 included: runs of one seed
# spread as much as the seeds do.
VERIFY_SEED_POOL = (0, 351, 464, 582, 681, 1129, 1211, 1973)


def verify_seed(seed: int) -> int:
    return VERIFY_SEED_POOL[seed % len(VERIFY_SEED_POOL)]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _frac(rng: random.Random, exclude=(0, 1)) -> Fraction:
    while True:
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if x not in exclude:
            return x


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def is_pole(n: int, a, u: Fraction, q: Fraction) -> bool:
    """True when 1 - q^(l a_j) u = 0 for some l <= n: a pole of H_n."""
    return any(q ** (l * aj) * u == 1 for l in range(n + 1) for aj in a)


def _height(x: Fraction) -> float:
    return math.log10(max(abs(x.numerator), x.denominator))


def digits_estimate(n: int, a, u: Fraction, q: Fraction) -> float:
    """About the decimal digits of H_m(w; a, u, q), m <= n: the factors
    1 - q^(l a_j) u, l <= n, multiply up. Over 20000 draws each of the small
    hbarnes and gf-coeffs generators (those with n >= 28 evaluated) the true
    size was at most 14% above it."""
    return n * (n + 1) / 2 * sum(abs(x) for x in a) * _height(q) + (n + 1) * len(a) * _height(u)


# A value over 4300 decimal digits hits the int-to-str defect (see
# defect_probe), so small requests whose value may come near it are drawn
# again: 0.4% of hbarnes draws of (q, u), 0.01% of gf-coeffs ones.
MAX_DIGITS_ESTIMATE = 3600


def _pole_free_qu(rng, n, a, exclude_u=(0, 1, -1)):
    while True:
        q = _frac(rng)
        u = _frac(rng, exclude_u)
        if not is_pole(n, a, u, q) and digits_estimate(n, a, u, q) <= MAX_DIGITS_ESTIMATE:
            return q, u


def _admissible(rng, p: int, valuations=(1, 2)) -> tuple[Fraction, Fraction]:
    """q = 1 mod p and u of valuation v != 0, as the p-adic suites use."""
    q = Fraction(1 + p * rng.choice((1, 2, 3)))
    c = rng.choice([x for x in (1, 2, 4) if x % p])
    u = Fraction(p) ** rng.choice(valuations) * c
    return q, u


# Equal-height values for q and u where a call's cost must not depend on the
# seed: q over the primes 2 and 3, u with a factor 5, so 1 - q^k u never
# vanishes.
Q_SET = (Fraction(3, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-2, 3))
U_SET = (Fraction(5, 2), Fraction(-5, 2), Fraction(2, 5), Fraction(-2, 5))


# ---------------------------------------------------------------------------
# compute-mix: `qbarnes compute` requests through cli.main(argv)

COMPUTE_OPS = (
    "hbarnes", "hbarnes-poly", "gf-coeffs", "classical", "carlitz", "hchi",
    "lvalue", "measure", "mu",
)

# Each block holds every op SMALL_PER_OP times at the sizes users ask for
# (n <= 40, level-N <= 3), and once each large size: hbarnes with n 70, 90
# and 125, hbarnes-poly with n 8, 9 and 10, lvalue with level-N 4, 5 and 6.
# The hbarnes rows stop where the value nears 4300 decimal digits (see
# defect_probe): at most 4050 digits over Q_SET, U_SET and w = 0..3. No
# record of real traffic exists, so every op and every large size gets
# equal weight; this is an assumption, not a measurement. The fixed fields of each large row set its cost (for
# hbarnes-poly a mixed-sign pair of a costs 1.7 times a same-sign one, and
# w and the height of u up to twice; for hbarnes the height of q moves it
# tenfold, so q and u come from the equal-height sets Q_SET and U_SET); the
# seed picks the rest.
SMALL_PER_OP = 4
HCHI_CHARS = ("trivial:1", "quadratic:3", "quadratic:4", "teichmuller")
HBARNES_LARGE = ((70, (1, -2), 1), (90, (-2,), 0), (125, (-1,), 2))  # (n, a, w)
POLY_LARGE = ((8, (1, -2), 1), (9, (-1, -2), 0), (10, (1, 2), 2))  # (n, a, w)
LVALUE_LARGE = ((5, 4, "quadratic:4"), (5, 5, "trivial:1"), (3, 6, "trivial:1"))  # (p, level-N, character)
LARGE_PER_BLOCK = len(HBARNES_LARGE) + len(POLY_LARGE) + len(LVALUE_LARGE)


def defect_probe() -> list[dict]:
    """Requests that hit a known defect, run once per compute-mix run, untimed.

    A value over 4300 decimal digits makes `format_rational` raise
    ValueError (Python's int-to-str limit): every hbarnes request with n
    200-300, and some measure cells at p = 5, level 3. No operation of a
    measured run may fail, so the stream holds none of these; the run
    context reports how each of them ends instead. Left out: `--n 3000`,
    which never finishes.
    """
    q, u = Q_SET[0], U_SET[0]
    return [
        _req("hbarnes", True, n=200, w=0, a=(1, 2), u=Fraction(3), q=Fraction(2)),
        _req("hbarnes", True, n=200, w=1, a=(1, -2), u=u, q=q),
        _req("hbarnes", True, n=250, w=0, a=(-1,), u=u, q=q),
        _req("hbarnes", True, n=300, w=2, a=(1,), u=u, q=q),
        _req("measure", False, k=5, x=9, f=1, level_N=3, u=Fraction(10), q=Fraction(11), a=(2,), p=5),
    ]


def _req(op: str, large: bool, **params) -> dict:
    argv = ["compute", op]
    for key, value in params.items():
        if isinstance(value, Fraction):
            value = _fmt(value)
        elif isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        # --flag=value: argparse takes a bare "-3/2" for an option
        argv.append(f"--{key.replace('_', '-')}={value}")
    return {"op": op, "large": large, "argv": argv, "params": params}


def _hbarnes(rng):
    n = rng.randint(0, 40)
    a = tuple(_nonzero(rng, -3, 3) for _ in range(rng.randint(1, 3)))
    q, u = _pole_free_qu(rng, n, a)
    return _req("hbarnes", False, n=n, w=rng.randint(0, 3), a=a, u=u, q=q)


def _hbarnes_poly(rng, n):
    a = tuple(_nonzero(rng, -2, 2) for _ in range(rng.randint(1, 2)))
    return _req("hbarnes-poly", False, n=n, w=rng.randint(0, 2), a=a, u=_frac(rng), r=len(a))


def _gf(rng):
    n = rng.randint(5, 40)
    r = rng.randint(1, 2)
    a = tuple(_nonzero(rng, -3, 3) for _ in range(r))
    q, u = _pole_free_qu(rng, n, a, exclude_u=(0, 1))
    return _req("gf-coeffs", False, n=n, a=a, u=u, q=q, x=rng.randint(0, 3))


def _classical(rng):
    r = rng.randint(1, 2)
    a = tuple(_nonzero(rng, -3, 3) for _ in range(r))
    return _req("classical", False, n=rng.randint(5, 40), w=rng.randint(0, 3), a=a, u=_frac(rng))


def _carlitz(rng):
    k = rng.randint(5, 40)
    while True:
        q, u = _frac(rng), _frac(rng)
        if all(q**m != u for m in range(k + 1)):
            return _req("carlitz", False, k=k, u=u, q=q)


def _hchi(rng, spec):
    k = rng.randint(0, 15)
    if spec == "teichmuller":
        p = rng.choice((3, 5))
        q, u = _admissible(rng, p)
        return _req("hchi", False, k=k, a=(1,), u=u, q=q, char=spec, p=p, precision=8)
    d = int(spec.split(":")[1])
    r = rng.randint(1, 2)
    a = tuple(_nonzero(rng, -2, 2) for _ in range(r))
    while True:
        q, u = _frac(rng, (0, 1, -1)), _frac(rng, (0, 1, -1))
        if u**d != 1 and not is_pole(k, tuple(aj * d for aj in a), u**d, q):
            return _req("hchi", False, k=k, a=a, u=u, q=q, char=spec)


def _lvalue(rng, p, level, char=None):
    q, u = _admissible(rng, p, (1,))
    return _req(
        "lvalue", char is not None, k=rng.randint(0, 4), a=(rng.choice((1, 1 + p)),), u=u, q=q,
        char=char or rng.choice(("trivial:1", "quadratic:4")), p=p, precision=8, level_N=level,
    )


def _measure(rng):
    p = rng.choice((3, 5))
    q, u = _admissible(rng, p)
    # at p = 5, level 3 some values pass 4300 digits: DEFECT_PROBE runs those
    f, level = rng.randint(1, 2), rng.randint(0, 3 if p == 3 else 2)
    return _req(
        "measure", False, k=rng.randint(0, 5), x=rng.randrange(f * p**level), f=f,
        level_N=level, u=u, q=q, a=(rng.choice((1, 2)),), p=p,
    )


def _mu(rng):
    p = rng.choice((3, 5, 7))
    _, u = _admissible(rng, p, (1, 2, -1))
    f, d, level = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 3)
    return _req(
        "mu", False, x=rng.randrange(d * f * p**level), f=f, d=d, level_N=level, u=u, p=p,
    )


def compute_block(rng: random.Random) -> list[dict]:
    small = {
        "hbarnes": lambda i: _hbarnes(rng),
        "hbarnes-poly": lambda i: _hbarnes_poly(rng, rng.randint(0, 5)),
        "gf-coeffs": lambda i: _gf(rng),
        "classical": lambda i: _classical(rng),
        "carlitz": lambda i: _carlitz(rng),
        "hchi": lambda i: _hchi(rng, HCHI_CHARS[i % len(HCHI_CHARS)]),
        "lvalue": lambda i: _lvalue(rng, rng.choice((3, 5, 7)), rng.randint(1, 3)),
        "measure": lambda i: _measure(rng),
        "mu": lambda i: _mu(rng),
    }
    reqs = [small[op](i) for op in COMPUTE_OPS for i in range(SMALL_PER_OP)]
    for n, a, w in HBARNES_LARGE:
        reqs.append(_req("hbarnes", True, n=n, w=w, a=a, u=rng.choice(U_SET), q=rng.choice(Q_SET)))
    for n, a, w in POLY_LARGE:
        reqs.append(_req("hbarnes-poly", True, n=n, w=w, a=a, u=rng.choice(U_SET), r=len(a)))
    for row in LVALUE_LARGE:
        reqs.append(_lvalue(rng, *row))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# closed-forms: direct library calls on large operands
#
# The cost of these calls grows steeply with n, r, a (signs included: at
# n = 270, a = (-3,) costs twice a = (3,)), w and the height of q, so each
# block runs one call per row of a fixed table of sizes. The seed picks
# what changes the cost little: q and u from Q_SET and U_SET, w where it is
# cheap, jitter in n, and the order of the calls.


# h_closed rows: (n, a, w)
H_CLOSED_ROWS = ((110, (1, -2, 3), 1), (190, (-2, 3), 2), (270, (-3,), 3), (330, (1, -1), 0),
                 (400, (1,), 4))
RATIONAL_ROWS = (("h_rational_in_q", 9, (1, -2)), ("limit_q_to_1", 10, (1, 2)))  # (fn, n, a)
CHARS = (("trivial:1", (1, -2)), ("quadratic:3", (-1,)), ("quadratic:4", (2,)))  # (character, a)


def _call(fn: str, **params) -> dict:
    return {"op": fn, "params": params}


def closed_forms_block(rng: random.Random) -> list[dict]:
    qu = lambda: (rng.choice(Q_SET), rng.choice(U_SET))  # noqa: E731
    calls = []
    for n, a, w in H_CLOSED_ROWS:
        q, u = qu()
        calls.append(_call("h_closed", n=n + rng.randint(-2, 2), w=w, a=a, u=u, q=q))
    for fn, n, a in RATIONAL_ROWS:
        calls.append(_call(fn, n=n, w=rng.randint(0, 2), r=len(a), a=a, u=rng.choice(U_SET)))
    q, u = qu()
    calls.append(_call("h_carlitz", k=90 + rng.randint(-2, 2), u=u, q=q))
    q, u = qu()
    calls.append(_call("q_gf_coefficients", n_max=60, x=rng.randint(0, 3), a=(1, -2), u=u, q=q))
    q, u = qu()
    calls.append(_call("distribution_check", n=60, w=rng.randint(0, 2), f=3, a=(-1, 2), u=u, q=q))
    for spec, a in CHARS:
        q, u = qu()
        calls.append(_call("h_chi", k=120, a=a, u=u, q=q, char=spec))
    rng.shuffle(calls)
    return calls


BLOCKS = {"compute-mix": compute_block, "closed-forms": closed_forms_block}


def stream(workload: str, seed: int):
    """The workload's endless input stream, block after block."""
    rng = _rng(workload, seed)
    block = 0
    while True:
        for item in BLOCKS[workload](rng):
            item["block"] = block
            yield item
        block += 1


def describe(item: dict) -> dict:
    """JSON-safe copy of one generated input, for the run record."""
    out = {"op": item["op"], "block": item.get("block")}
    if "large" in item:
        out["large"] = item["large"]
    out["params"] = {
        k: (_fmt(v) if isinstance(v, Fraction) else list(v) if isinstance(v, tuple) else v)
        for k, v in item["params"].items()
    }
    return out

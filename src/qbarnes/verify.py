"""Machine verification suites for every identity the library computes.

Each suite runs a pinned, seeded parameter grid and reports per-check
residuals (exact rationals, expected 0) or p-adic error valuations
(expected to grow with the level). Nothing here is approximate: residuals
come from exact arithmetic. Every valuation reported is exact
(riemann-limit's come from `riemann_error_runs`, prop5's from
`riemann_error_valuations`, eq8-bridge's from `unit_error_valuations`)
except the `agreement_valuation` of interpolation and unit-power, which
reads the joint precision, a lower bound, when every tracked digit agrees.

A suite that repeats a kernel over an index hands the kernel the whole run
in one call, and the kernel builds once what does not depend on that
index; nothing is cached between calls. Route 1 takes a run of n
(`h_closed_run`, and `distribution_run` for both sides of the distribution
relation), the level sums a run of w (`riemann_error_runs`), and the
L-value sums a run of (k, level) (`l_riemann_run`). The checks keep their
order, so a report is the same byte for byte as one call per value.

A suite is a generator of checks over a seeded `ParameterSampler`; `_suite`
turns it into the callable that builds the whole report. A report is the
plain dict that `qbarnes verify` prints as JSON: the suite's name, one
record per check (its name, params, residual or error valuation, and pass)
and whether every check passed. Suite names double as the CLI `verify`
vocabulary.

The suites share no state, so `all` runs them in forked worker processes,
one per usable CPU. They start and are joined in table order, so the
output is the same byte for byte as one process running them in turn,
which is what happens where the platform has no fork.
A single suite runs in the calling process; run the suites one at a time to
profile them.
"""
from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterator

from .characters_lfunctions import (
    DirichletCharacter,
    _l_negative_exact,
    _tame_part,
    angle_bracket,
    kummer_check,
    l_at_negative,
    l_riemann_run,
    twist_teichmuller,
)
from .errors import PoleError, PreconditionError
from .exact_numbers import (
    INFINITY,
    PadicContext,
    agreement_valuation,
    format_rational,
    format_valuation,
    padic_pow,
    to_padic,
)
from .euler_barnes import (
    BarnesParams,
    _addition_sum,
    distribution_check,
    distribution_run,
    h_carlitz,
    h_closed_run,
    limit_q_to_1,
)
from .padic_integration import (
    DEFAULT_BUDGET,
    AdmissibleU,
    MeasureCell,
    measure_additivity_check,
    measure_bound_check,
    multi_riemann_integral,  # unused here; perfbench's tests assert its tracer wraps this name
    prop5_check,
    riemann_error_runs,
    unit_error_valuations,
)
from .qnum import QBase
from .series import classical_gf_coefficients, q_gf_coefficients


def _weakly_increasing(vals) -> bool:
    return all(b >= a for a, b in zip(vals, vals[1:]))


def _strictly_increasing(vals) -> bool:
    # an infinite valuation means the level is already exact; staying there
    # counts as increasing
    return all(b > a or b == INFINITY for a, b in zip(vals, vals[1:]))


def _past_the_tail(vals, levels, v: int, p: int, D: int = 1) -> bool:
    """Every level N's error valuation is at least v D p^N + N. With
    nu_p(u) = v >= 1 the u^(D p^N) tail of a level sum over D p^N points
    bounds its error, so a sum that loses a single term falls below this."""
    return all(x >= v * D * p**N + N for x, N in zip(vals, levels))


def _first_diff(pairs) -> Fraction:
    """The first nonzero a - b over the pairs; 0 when every pair agrees."""
    return next((a - b for a, b in pairs if a != b), Fraction(0))


def _qu(q: Fraction, u: Fraction) -> dict:
    return {"q": format_rational(q), "u": format_rational(u)}


def _level_record(levels, vals) -> dict:
    """The per-level valuations of a convergence check, for its params."""
    return {"levels": list(levels), "valuations": [format_valuation(x) for x in vals]}


class ParameterSampler:
    """Seeded small-height rational sampling with pole-aware retries."""

    MAX_TRIES = 500

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.resamples = 0

    def fraction(self, exclude=(0, 1)) -> Fraction:
        """x/y with x in [-6, 6] and y in [1, 4], drawn again while in exclude."""
        while True:
            x = Fraction(self.rng.randint(-6, 6), self.rng.randint(1, 4))
            if x not in exclude:
                return x
            self.resamples += 1

    def nonzero_int(self, lo: int, hi: int) -> int:
        while True:
            v = self.rng.randint(lo, hi)
            if v:
                return v

    def barnes(self, r: int, a_max: int, exclude=(0, 1)) -> BarnesParams:
        """a in [-a_max, a_max]^r without zeros, then q, then u."""
        a = tuple(self.nonzero_int(-a_max, a_max) for _ in range(r))
        q = self.fraction(exclude=exclude)
        u = self.fraction(exclude=exclude)
        return BarnesParams(a, u, QBase(q))

    def sample_until(self, build: Callable):
        """Run build() until it stops hitting poles; returns its value and the
        draws this sample rejected (pole retries and excluded fractions)."""
        before = self.resamples
        for _ in range(self.MAX_TRIES):
            try:
                return build(), self.resamples - before
            except PoleError:
                self.resamples += 1
        raise PreconditionError("could not sample pole-free parameters")


# A check generator yields (name, params, passed, value) per check: value is
# the exact residual (a Fraction) or an error valuation (an int or INFINITY).
Checks = Iterator[tuple[str, dict, bool, object]]


def _sampled(sampler: ParameterSampler, count: int, build: Callable) -> Checks:
    """Exact checks on `count` pole-free samples.

    build(i) draws sample i, rerun while it hits a pole, and returns its
    params and the (computed, expected) pairs whose first difference is the
    residual. Pairs left lazy are computed after sampling: no retry there.
    """
    for i in range(count):
        (params, pairs), resamples = sampler.sample_until(lambda: build(i))
        residual = _first_diff(pairs)
        yield f"{i:02d}", {**params, "resamples": resamples}, residual == 0, residual


def _barnes_params(params: BarnesParams) -> dict:
    return {"r": params.r, "a": list(params.a), **_qu(params.q.value, params.u)}


# ---------------------------------------------------------------------------


def _theorem1_gf(sampler: ParameterSampler, budget: int) -> Checks:
    """Generating-function coefficients against the closed form, exactly."""
    n_max = 12
    x_values = (0, 1, 3)

    def build(i):
        params = sampler.barnes(1 + i % 3, 3)
        gf_at_x = {x: q_gf_coefficients(params, x, n_max) for x in x_values}
        closed = {x: h_closed_run(range(n_max + 1), x, params) for x in x_values}
        # x = 0 comes first and covers the numbers H_n = H_n(0)
        pairs = [pair for x in x_values for pair in zip(gf_at_x[x], closed[x])]
        return {**_barnes_params(params), "n_max": n_max, "x": list(x_values)}, pairs

    return _sampled(sampler, 30, build)


def _addition(sampler: ParameterSampler, budget: int) -> Checks:
    """Binomial addition formula in w against the closed form."""

    def build(i):
        params = sampler.barnes(1 + i % 3, 3)
        # route 1's H_n(w) for n <= 8, one run per w; a run builds every
        # pole of its largest n first. Route 2 sums every (n, w) from H_k(0)
        closed = [h_closed_run(range(9), w, params) for w in range(6)]
        pairs = (
            (_addition_sum(n, w, params.q.value, closed[0]), closed[w][n])
            for n in range(9)
            for w in range(6)
        )
        return {**_barnes_params(params), "n_max": 8, "w_max": 5}, pairs

    return _sampled(sampler, 20, build)


def _distribution(sampler: ParameterSampler, budget: int) -> Checks:
    """Order-f distribution relation, exact residuals over the pinned grid."""

    def build(i):
        # q = -1 collapses the order-2 refined base to 1, u = ±1 sits on
        # the u^f = 1 pole
        params = sampler.barnes(1 + i % 2, 2, exclude=(0, 1, -1))
        for f in (2, 3):
            distribution_check(2, 0, f, params)  # pole probe
        pairs = (
            (residual, 0)
            for f in (2, 3)
            for w in (0, 1, 2)
            for residual in distribution_run(range(9), w, f, params)
        )
        return {**_barnes_params(params), "f": [2, 3], "w": [0, 1, 2], "n_max": 8}, pairs

    return _sampled(sampler, 20, build)


def _carlitz_bridge(sampler: ParameterSampler, budget: int) -> Checks:
    """Closed form at r=1, w=0 against the umbral recurrence with u inverted."""

    def build(i):
        q = sampler.fraction(exclude=(0, 1))
        u = sampler.fraction(exclude=(0, 1))
        params = BarnesParams((1,), u, QBase(q))
        recur = [h_carlitz(k, 1 / u, q) for k in range(11)]
        closed = h_closed_run(range(11), 0, params)
        return {**_qu(q, u), "k_max": 10}, [*zip(recur, closed)]

    return _sampled(sampler, 10, build)


def _qlimit(sampler: ParameterSampler, budget: int) -> Checks:
    """q -> 1 limit of the reduced rational form against the classical
    Frobenius-Euler generating function (parameter v = 1/u)."""
    n_max = 10

    def build(i):
        r, w = 1 + i % 2, i % 3
        a = tuple(sampler.nonzero_int(-2, 2) for _ in range(r))
        u = sampler.fraction(exclude=(0, 1))

        def pairs():
            classical = classical_gf_coefficients(w, 1 / u, a, n_max)
            for n in range(n_max + 1):
                yield limit_q_to_1(n, w, r, a, u), classical[n]

        return {"r": r, "a": list(a), "u": format_rational(u), "w": w, "n_max": n_max}, pairs()

    return _sampled(sampler, 10, build)


# ---------------------------------------------------------------------------
# p-adic suites


def _sample_padic_qu(
    sampler: ParameterSampler, p: int, v: int
) -> tuple[Fraction, AdmissibleU, dict]:
    """Integer q ≡ 1 mod p and u of exact valuation v (keeps big sums fast),
    with the params record every check on them starts from."""
    q = Fraction(1 + p * sampler.rng.choice((1, 2, 3)))
    c = sampler.rng.choice([x for x in (1, 2, 3, 4) if x % p])
    u = AdmissibleU(Fraction(p) ** v * c, p)
    return q, u, {"p": p, **_qu(q, u.u)}


_CHARACTERS = {
    "trivial": lambda: DirichletCharacter.trivial(1),
    "quadratic3": lambda: DirichletCharacter.quadratic(3),
    "quadratic4": lambda: DirichletCharacter.quadratic(4),
}


def _riemann_limit(sampler: ParameterSampler, budget: int) -> Checks:
    """Multi-axis Riemann sums of [w + a.x : q]^n against the closed form.

    For v = nu_p(u) >= 1 the observed error valuation must be weakly
    increasing over the levels and at least v p^N + N at every level N:
    the u^(p^N) tail bounds the error, so a sum that loses a single term
    falls below it. The extra nu_p(u) < 0 sample only guarantees the tail
    bound (>= N - 1 at every level): an accidental extra cancellation at a
    coarse level is legitimate there.
    """
    levels = (1, 2, 3, 4)
    for p, r in ((3, 1), (5, 1), (7, 1), (3, 2)):
        vals_of_u = (1, 2, -1) if (p, r) == (3, 1) else (1, 2)
        for v in vals_of_u:
            q, uu, base = _sample_padic_qu(sampler, p, v)
            a = tuple(sampler.nonzero_int(-2, 2) for _ in range(r))
            params = BarnesParams(a, uu.u, QBase(q))
            ns, ws = range(4), (0, 1)
            # each level takes every (n, w) in one call, each w's targets one
            # run of route 1; the checks keep the (n, w) order, and every
            # draw above comes before any sum
            targets = [h_closed_run(ns, w, params) for w in ws]
            by_level = [
                riemann_error_runs(ns, ws, params, uu, N, targets, budget) for N in levels
            ]
            for n in ns:
                for w in ws:
                    vals = [at_level[w][n] for at_level in by_level]
                    if v >= 1:
                        ok = _weakly_increasing(vals) and _past_the_tail(vals, levels, v, p)
                    else:
                        ok = all(x >= N - 1 for x, N in zip(vals, levels))
                    yield f"p{p}-r{r}-v{v}-n{n}-w{w}", {
                        **base,
                        "r": r,
                        "a": list(a),
                        "n": n,
                        "w": w,
                        **_level_record(levels, vals),
                    }, ok, vals[-1]


def _measure_cells(sampler: ParameterSampler, representatives: Callable):
    """The cells both measure suites check, from the same random draws:
    `representatives(modulus, x)` picks each shape's cells from one random
    x. Yields (name, params, cell, k, u, q, a1)."""
    for p in (3, 5):
        for v in (1, 2):
            q, uu, base = _sample_padic_qu(sampler, p, v)
            a1 = sampler.rng.choice((1, 2))
            for k in range(5):
                for f in (1, 2):
                    for N in (0, 1, 2):
                        mod = f * p**N
                        for x in sorted(representatives(mod, sampler.rng.randrange(mod))):
                            yield f"p{p}-v{v}-k{k}-f{f}-N{N}-x{x}", {
                                **base,
                                "a1": a1,
                                "k": k,
                                "f": f,
                                "N": N,
                                "x": x,
                            }, MeasureCell(x, f, N), k, uu, q, a1


def _measure_additivity(sampler: ParameterSampler, budget: int) -> Checks:
    """Moment-measure cell additivity, exact residuals."""
    for name, params, cell, k, uu, q, a1 in _measure_cells(sampler, lambda mod, x: {0, x}):
        diff = measure_additivity_check(cell.x, cell.f, cell.N, k, uu, q, a1)
        yield name, params, diff == 0, diff


def _measure_bound(sampler: ParameterSampler, budget: int) -> Checks:
    """Integrality nu_p(E_k(cell)) >= 0 for nu_p(u) >= 1, q ≡ 1 mod p."""
    cells = _measure_cells(sampler, lambda mod, x: {0, x, mod - 1})
    for name, params, cell, k, uu, q, a1 in cells:
        ok = measure_bound_check(cell, k, uu, q, a1)
        yield name, params, ok, 0 if ok else -1


def _prop5(sampler: ParameterSampler, budget: int) -> Checks:
    """Principal-term cell sums against the closed k-th moment.

    k = 0 must be exact at every level; k >= 1 must strictly gain precision
    with the level and reach v p^N + N at every level N, for v = nu_p(u),
    as riemann-limit's level sums must.
    """
    levels = (1, 2, 3, 4)
    for p in (3, 5):
        q, uu, base = _sample_padic_qu(sampler, p, 1)
        a1 = sampler.rng.choice((1, 2))
        for k in (0, 1, 2):
            vals = [prop5_check(k, uu, q, a1, N, budget) for N in levels]
            if k == 0:
                ok = all(x == INFINITY for x in vals)
            else:
                ok = _strictly_increasing(vals) and _past_the_tail(vals, levels, uu.valuation, p)
            yield f"p{p}-k{k}", {
                **base,
                "a1": a1,
                "k": k,
                **_level_record(levels, vals),
            }, ok, vals[-1]


def _eq8_bridge(sampler: ParameterSampler, budget: int) -> Checks:
    """Unit-restricted moment sums against the two-Euler-factor closed form.

    The error valuation must be weakly increasing over the levels and at
    least v D p^N + N at every level N, for v = nu_p(u) and the D p^N
    points of the level, as riemann-limit's level sums must.
    """
    for p in (3, 5):
        levels = (1, 2, 3, 4) if p == 3 else (1, 2, 3)
        q, uu, base = _sample_padic_qu(sampler, p, 1)
        for label in ("trivial", "quadratic3", "quadratic4"):
            chi = _CHARACTERS[label]()
            a1 = 1 if label != "quadratic4" else 2
            D = _tame_part(chi.modulus, p)
            ks = range(5)
            targets = [_l_negative_exact(k, chi, uu.u, q, a1, p) for k in ks]
            # each level takes every k in one call
            by_level = [
                unit_error_valuations(ks, chi, a1, uu, q, D, N, targets, budget) for N in levels
            ]
            for k, vals in zip(ks, zip(*by_level)):
                ok = _weakly_increasing(vals) and _past_the_tail(vals, levels, uu.valuation, p, D)
                yield f"p{p}-{label}-k{k}", {
                    **base,
                    "character": label,
                    "a1": a1,
                    "k": k,
                    **_level_record(levels, vals),
                }, ok, vals[-1]


def _interpolation(sampler: ParameterSampler, budget: int) -> Checks:
    """l_riemann at s = -k with the omega^k twist against l_at_negative."""
    M = 8
    for p in (3, 5):
        ctx = PadicContext(p, M)
        levels = (2, 3, 4) if p == 3 else (2, 3)
        q, uu, base = _sample_padic_qu(sampler, p, 1)
        for label in ("trivial", "quadratic4"):
            chi = _CHARACTERS[label]()
            twists = [(-k, twist_teichmuller(chi, k, ctx)) for k in range(5)]
            for a1 in (1, 1 + p):
                # every (k, level) of one a1 in one pass over the points
                by_k = l_riemann_run(twists, uu, q, a1, ctx, levels, budget)
                for k, level_sums in enumerate(by_k):
                    closed = l_at_negative(k, chi, uu, q, a1, ctx)
                    for N, level_sum in zip(levels, level_sums):
                        ag = agreement_valuation(level_sum, closed)
                        yield f"p{p}-{label}-a{a1}-k{k}-N{N}", {
                            **base,
                            "M": M,
                            "character": label,
                            "a1": a1,
                            "k": k,
                            "N": N,
                        }, ag >= min(N, M - 2), ag


def _kummer(sampler: ParameterSampler, budget: int) -> Checks:
    """Kummer congruences nu_p(L(-k) - L(-k')) >= n for k ≡ k' mod (p-1)p^n."""
    cases = [
        # p, n, pairs, character label
        (3, 1, ((1, 7), (2, 8), (4, 10)), "trivial"),
        (3, 2, ((1, 19), (2, 20), (3, 21)), "quadratic4"),
        (5, 1, ((1, 21), (2, 22), (3, 23)), "trivial"),
        (5, 2, ((1, 101), (2, 102), (3, 103)), "trivial"),
    ]
    for p, n, pairs, label in cases:
        chi = _CHARACTERS[label]()
        ctx = PadicContext(p, n + 1)
        q = Fraction(1 + p)
        uu = AdmissibleU(Fraction(p), p)
        a1 = 1
        for k, k2 in pairs:
            val = kummer_check(k, k2, n, chi, uu, q, a1, ctx)
            yield f"p{p}-n{n}-{label}-k{k}-k{k2}", {
                "p": p,
                "n": n,
                "character": label,
                **_qu(q, uu.u),
                "a1": a1,
                "k": k,
                "k2": k2,
            }, val >= n, val


def _unit_power(sampler: ParameterSampler, budget: int) -> Checks:
    """<a1 x : q>^(p^n) ≡ 1 mod p^n for every unit x below p^2."""
    M = 6
    for p in (3, 5, 7):
        ctx = PadicContext(p, M)
        one = to_padic(1, ctx)
        for q in (Fraction(1 + p), Fraction(1 + 2 * p)):
            for a1 in (1, p + 2):
                for n in range(1, 6):
                    powers = (
                        padic_pow(angle_bracket(a1 * x, q, ctx), p**n)
                        for x in range(1, p * p)
                        if x % p
                    )
                    worst = min(agreement_valuation(pw, one) for pw in powers)
                    yield f"p{p}-q{q.numerator}-a{a1}-n{n}", {
                        "p": p,
                        "M": M,
                        "q": format_rational(q),
                        "a1": a1,
                        "n": n,
                        "x_range": [1, p * p - 1],
                    }, worst >= n, worst


def _report(suite: str, checks: list[dict]) -> dict:
    """A suite report, the dict `qbarnes verify` prints."""
    return {"suite": suite, "checks": checks, "pass": all(c["pass"] for c in checks)}


def _suite(name: str, checks: Callable[[ParameterSampler, int], Checks]):
    """The suite `name`: builds its whole report from the check generator."""

    def run(seed: int = 0, budget: int = DEFAULT_BUDGET) -> dict:
        records = []
        for check, params, passed, value in checks(ParameterSampler(seed), budget):
            key, text = (
                ("residual", format_rational(value))
                if isinstance(value, Fraction)
                else ("error_valuation", format_valuation(value))
            )
            records.append({"name": f"{name}/{check}", "params": params, key: text, "pass": passed})
        return _report(name, records)

    run.__doc__ = checks.__doc__
    return run


# Every suite keeps the (seed, budget) signature, even those that draw no
# samples or sum no points, so that _suite_report calls them all alike.
SUITES: dict[str, Callable[..., dict]] = {
    name: _suite(name, checks)
    for name, checks in (
        ("theorem1-gf", _theorem1_gf),
        ("addition", _addition),
        ("distribution", _distribution),
        ("riemann-limit", _riemann_limit),
        ("carlitz-bridge", _carlitz_bridge),
        ("qlimit", _qlimit),
        ("measure-additivity", _measure_additivity),
        ("measure-bound", _measure_bound),
        ("prop5", _prop5),
        ("eq8-bridge", _eq8_bridge),
        ("interpolation", _interpolation),
        ("kummer", _kummer),
        ("unit-power", _unit_power),
    )
}


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS
    keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _suite_report(name: str, seed: int, budget: int) -> dict:
    """The report of SUITES[name]. Worker processes are handed this function
    and a suite's name, which pickle by name; an entry of SUITES need not."""
    return SUITES[name](seed=seed, budget=budget)


def _suite_reports(seed: int, budget: int) -> list[dict]:
    """Every suite's report, in table order, from a pool of forked processes,
    one per usable CPU. The pool starts the suites in table order and the
    reports, and an error, are taken in that order too. Where the platform
    has no fork the suites run in this process, in the same order: spawn
    and forkserver workers re-run the caller's main module, so an unguarded
    script that runs "all" would fail in them."""
    # imported here: concurrent.futures costs about as much as qbarnes
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return list(map(_suite_report, SUITES, repeat(seed), repeat(budget)))
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(SUITES), _usable_cpus())
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_suite_report, SUITES, repeat(seed), repeat(budget)))


def run_suite(name: str, seed: int = 0, budget: int = DEFAULT_BUDGET) -> dict:
    """The report of suite `name`, or of every suite for "all".

    "all" runs the suites in forked worker processes, one per usable CPU
    (in this process where there is no fork). Either way the suites start
    and are joined in table order, so the report is the same byte for byte.
    When suites raise, the error is that of the first of them in table
    order. A single suite runs in this process, so run them one at a time
    to profile them.
    """
    if name == "all":
        return _report("all", [c for rep in _suite_reports(seed, budget) for c in rep["checks"]])
    if name not in SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}",
            parameter="suite",
        )
    return _suite_report(name, seed, budget)

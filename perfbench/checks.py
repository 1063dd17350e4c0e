"""Output checks, each by a route independent of the one that produced it.

Every check takes the generated input and the program's output and returns
None when the output is right, or a one-line reason when it is not. They run
after the measured window, so their cost never enters a timing.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial

from qbarnes.characters_lfunctions import DirichletCharacter
from qbarnes.euler_barnes import BarnesParams, h_addition, h_closed
from qbarnes.exact_numbers import valuation
from qbarnes.padic_integration import AdmissibleU, MeasureCell, measure_E_value, mu_value
from qbarnes.qnum import QBase
from qbarnes.series import classical_gf_coefficients
from workloads import is_pole

# Closed forms are re-evaluated modulo these primes; the second is used
# when a denominator vanishes modulo the first. (A Mersenne prime would not
# do: 2 has order 61 modulo 2^61 - 1, so 1 - 2^60 * 2 vanishes there.)
PRIMES = ((1 << 64) - 59, (1 << 63) - 25)
# The library's h_addition makes n + 1 closed-form calls on big numbers and
# takes seconds at n = 300; above this n the same formula is summed mod PRIMES.
EXACT_ADDITION_MAX_N = 60


def _short(x) -> str:
    try:
        return str(x)[:100]
    except ValueError:  # an int over Python's 4300-digit str() limit
        return f"<{type(x).__name__} too long to print>"


def _mismatch(what: str, got, want) -> str | None:
    if got == want:
        return None
    return f"{what}: got {_short(got)}, expected {_short(want)}"


def _agree_mod(what: str, values, evaluate) -> str | None:
    """Compare rationals with evaluate(m), a list of residues mod m."""
    for m in PRIMES:
        try:
            got = [_mod(Fraction(v), m) for v in values]
            want = evaluate(m)
        except (ZeroDivisionError, ValueError):  # a denominator vanishes mod m
            continue
        return _mismatch(f"{what} mod {m}", got, want)
    return f"{what}: every check prime divides a denominator"


# -- modular re-evaluation of the closed form ----------------------------------


def _mod(x: Fraction, m: int) -> int:
    den = x.denominator % m
    if den == 0:
        raise ZeroDivisionError("denominator divisible by the check prime")
    return x.numerator * pow(den, -1, m) % m


def closed_form_mod(n, w_num, w_den, a, u, root, exponent, m) -> int:
    """H_n^(r)(w_num/w_den, u, root^exponent | a) mod m.

    (1-u)^r / (1-q)^n * sum_l C(n,l) (-1)^l q^(l w) prod_j 1/(1 - q^(l a_j) u),
    with q^(l w) = root^(l w_num exponent / w_den), in modular arithmetic
    written here rather than with the library's Fraction code.
    """
    root_m, u_m = _mod(Fraction(root), m), _mod(Fraction(u), m)
    step_w = pow(root_m, w_num * (exponent // w_den), m)
    steps = [pow(root_m, aj * exponent, m) for aj in a]
    pw_w, pws = 1, [1] * len(a)
    total = 0
    for l in range(n + 1):
        term = comb(n, l) * pw_w
        for j, pw in enumerate(pws):
            term = term * pow((1 - pw * u_m) % m, -1, m) % m
            pws[j] = pw * steps[j] % m
        pw_w = pw_w * step_w % m
        total += -term if l % 2 else term
    q_m = pow(root_m, exponent, m)
    prefactor = pow(1 - u_m, len(a), m) * pow(pow(1 - q_m, n, m), -1, m)
    return prefactor * total % m


def addition_mod(n, w, a, u, q, m) -> int:
    """H_n(w) by the addition formula in w, mod m:
    sum_k C(n,k) [w:q]^(n-k) q^(wk) H_k(0)."""
    q_m = _mod(Fraction(q), m)
    bracket = (1 - pow(q_m, w, m)) * pow(1 - q_m, -1, m) % m
    qw = pow(q_m, w, m)
    return sum(
        comb(n, k) * pow(bracket, n - k, m) * pow(qw, k, m) * closed_form_mod(k, 0, 1, a, u, q, 1, m)
        for k in range(n + 1)
    ) % m


def h_chi_mod(k, a, u, q, chi: DirichletCharacter, m: int) -> int:
    """The modulus-d expansion of H_{k,chi} (rational characters) mod m."""
    from itertools import product

    d, r = chi.modulus, len(a)
    u, q = Fraction(u), Fraction(q)
    ud = u**d
    total = 0
    for iv in product(range(d), repeat=r):
        cv = 1
        for ij in iv:
            cv *= chi(ij)
        if cv == 0:
            continue
        h = closed_form_mod(k, sum(aj * ij for aj, ij in zip(a, iv)), d, a, ud, q, d, m)
        total += _mod(Fraction(cv) * u ** sum(iv), m) * h
    bracket = (1 - q**d) / (1 - q)
    prefactor = (1 - u) ** r * bracket**k / (1 - ud) ** r
    return _mod(prefactor, m) * total % m


# -- classical generating function, multiplied back ----------------------------


def classical_product_residual(coeffs, w, v, a) -> int | None:
    """First n where EGF(coeffs) * prod_j (e^(a_j t) - v) != (1-v)^r e^(w t)."""
    order = len(coeffs) - 1
    series = [Fraction(c) / factorial(i) for i, c in enumerate(coeffs)]
    for aj in a:
        factor = [Fraction(aj) ** i / factorial(i) for i in range(order + 1)]
        factor[0] -= v
        series = [
            sum(series[i] * factor[n - i] for i in range(n + 1)) for n in range(order + 1)
        ]
    scale = (1 - v) ** len(a)
    for n in range(order + 1):
        if series[n] != scale * Fraction(w) ** n / factorial(n):
            return n
    return None


# -- checks shared by compute-mix and closed-forms ----------------------------


def _check_limit(n, w, a, u, got) -> str | None:
    """H_n at q -> 1 against the classical Frobenius-Euler numbers at 1/u."""
    want = classical_gf_coefficients(w, 1 / u, a, n)[n]
    return _mismatch("limit at q=1 vs classical(1/u)", got, want)


def _check_rational_function(n, w, a, u, numerator, denominator) -> str | None:
    """The rational function at a sample q against h_closed there."""
    for q0 in (Fraction(2), Fraction(3), Fraction(-2)):
        den = denominator(q0)
        if den != 0 and not is_pole(n, a, u, q0):
            want = h_closed(n, w, BarnesParams(a, u, QBase(q0)))
            return _mismatch(f"rational function at q={q0} vs h_closed", numerator(q0) / den, want)
    return "no pole-free sample q for the rational-function check"


def _check_h_chi(k, a, u, q, spec, got) -> str | None:
    """Rational-mode H_{k,chi}: trivial:1 against h_closed, others mod primes."""
    if spec == "trivial:1":
        return _mismatch("hbarnes (trivial character)", got, h_closed(k, 0, BarnesParams(a, u, QBase(q))))
    kind, _, d = spec.partition(":")
    chi = getattr(DirichletCharacter, kind)(int(d))
    return _agree_mod("modular expansion", [got], lambda m: [h_chi_mod(k, a, u, q, chi, m)])


def _poly_at(coeffs):
    return lambda q0: sum(Fraction(c) * q0**i for i, c in enumerate(coeffs))


# -- compute-mix ---------------------------------------------------------------


def check_compute(req: dict, stdout: str) -> str | None:
    out = json.loads(stdout)
    if "error" in out:
        return f"error {out['error']}: {out.get('message')}"
    pr = req["params"]
    op = req["op"]
    if op == "hbarnes":
        n, w, a, u, q = pr["n"], pr["w"], pr["a"], pr["u"], pr["q"]
        if n > EXACT_ADDITION_MAX_N:
            return _agree_mod("addition formula", [Fraction(out["value"])],
                              lambda m: [addition_mod(n, w, a, u, q, m)])
        params = BarnesParams(a, u, QBase(q))
        return _mismatch("h_addition", Fraction(out["value"]), h_addition(n, w, params))
    if op == "hbarnes-poly":
        n, w, a, u = pr["n"], pr["w"], pr["a"], pr["u"]
        return _check_limit(n, w, a, u, Fraction(out["limit_q1"])) or _check_rational_function(
            n, w, a, u, _poly_at(out["numerator"]), _poly_at(out["denominator"])
        )
    if op == "gf-coeffs":
        params = BarnesParams(pr["a"], pr["u"], QBase(pr["q"]))
        got = [Fraction(c) for c in out["coefficients"]]
        want = [h_closed(n, pr["x"], params) for n in range(pr["n"] + 1)]
        return _mismatch("gf coefficients vs h_closed", got, want)
    if op == "classical":
        got = [Fraction(c) for c in out["coefficients"]]
        bad = classical_product_residual(got, pr["w"], pr["u"], pr["a"])
        return None if bad is None else f"classical series product differs at t^{bad}"
    if op == "carlitz":
        params = BarnesParams((1,), 1 / pr["u"], QBase(pr["q"]))
        return _mismatch("h_closed(r=1, 1/u)", Fraction(out["value"]), h_closed(pr["k"], 0, params))
    if op == "hchi":
        return _check_hchi(pr, out)
    if op == "lvalue":
        need = min(pr["level_N"], pr["precision"] - 2)
        ag = out["agreement_valuation"]
        if ag != "inf" and ag < need:
            return f"agreement_valuation {ag} < {need}"
        return None
    if op == "measure":
        uu = AdmissibleU(pr["u"], pr["p"])
        step = pr["f"] * pr["p"] ** pr["level_N"]
        fine = sum(
            measure_E_value(MeasureCell(pr["x"] + i * step, pr["f"], pr["level_N"] + 1),
                            pr["k"], uu, pr["q"], pr["a"][0])
            for i in range(pr["p"])
        )
        return _mismatch("sum over the p subcells", Fraction(out["value"]), fine)
    if op == "mu":
        uu = AdmissibleU(pr["u"], pr["p"])
        step = pr["d"] * pr["f"] * pr["p"] ** pr["level_N"]
        fine = sum(
            mu_value(MeasureCell(pr["x"] + i * step, pr["f"], pr["level_N"] + 1, pr["d"]), uu)
            for i in range(pr["p"])
        )
        return _mismatch("sum over the p subcells", Fraction(out["value"]), fine)
    return f"no check for op {op!r}"


def _check_hchi(pr: dict, out: dict) -> str | None:
    if pr["char"] == "teichmuller":
        return _check_hchi_teichmuller(pr, out["value"])
    return _check_h_chi(pr["k"], pr["a"], pr["u"], pr["q"], pr["char"], Fraction(out["value"]))


def _check_hchi_teichmuller(pr: dict, value: dict) -> str | None:
    """Sum the expansion over Q with omega(i) replaced by its integer lift."""
    p, M = pr["p"], pr["precision"]
    k, u, q = pr["k"], Fraction(pr["u"]), Fraction(pr["q"])
    a1 = pr["a"][0]
    mod = p**M
    ud = u**p
    params = BarnesParams((a1,), ud, QBase(q, p))
    from qbarnes.qnum import FractionalArg

    total = Fraction(0)
    for i in range(1, p):
        omega = pow(i, mod, mod)  # Teichmuller lift: i^(p^M) mod p^M
        total += omega * u**i * h_closed(k, FractionalArg(a1 * i, p), params)
    exact = (1 - u) * ((1 - q**p) / (1 - q)) ** k / (1 - ud) * total
    if exact == 0:
        return None if value["valuation"] == "inf" else "expected zero"
    v = valuation(exact, p)
    if value["valuation"] != v:
        return f"valuation {value['valuation']} != {v}"
    unit = exact / Fraction(p) ** v
    # both sides carry M digits; the library rounds each summand, so allow
    # the low two digits to differ
    diff = (unit.numerator * pow(unit.denominator, -1, mod) - value["unit"]) % p ** (M - 2)
    return None if diff == 0 else "unit differs from the rational expansion"


# -- closed-forms --------------------------------------------------------------


def check_closed_form(call: dict, result) -> str | None:
    pr = call["params"]
    fn = call["op"]
    if fn == "h_closed":
        return _agree_mod(
            "closed form", [result],
            lambda m: [closed_form_mod(pr["n"], pr["w"], 1, pr["a"], pr["u"], pr["q"], 1, m)],
        )
    if fn == "h_rational_in_q":
        return _check_rational_function(
            pr["n"], pr["w"], pr["a"], pr["u"], result.numerator, result.denominator
        )
    if fn == "limit_q_to_1":
        return _check_limit(pr["n"], pr["w"], pr["a"], pr["u"], result)
    if fn == "h_carlitz":
        params = BarnesParams((1,), 1 / pr["u"], QBase(pr["q"]))
        return _mismatch("h_closed(r=1, 1/u)", result, h_closed(pr["k"], 0, params))
    if fn == "q_gf_coefficients":
        return _agree_mod(
            "closed forms", result,
            lambda m: [
                closed_form_mod(n, pr["x"], 1, pr["a"], pr["u"], pr["q"], 1, m)
                for n in range(pr["n_max"] + 1)
            ],
        )
    if fn == "distribution_check":
        return _mismatch("distribution residual", result, 0)
    if fn == "h_chi":
        return _check_h_chi(pr["k"], pr["a"], pr["u"], pr["q"], pr["char"], result)
    return f"no check for {fn!r}"


# -- verify-all ----------------------------------------------------------------


def check_verify(returncode: int, stdout: bytes) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    report = json.loads(stdout)
    failing = [c["name"] for c in report["checks"] if c.get("pass") is not True]
    if failing or report.get("pass") is not True:
        return f"{len(failing)} checks did not pass, first {failing[:1]}"
    return None

"""Acceptance gate: one test per criterion, each delegating to the same
suite machinery the CLI `verify` command runs (seed 0, default budget).

Every test prints a single [PASS]/[FAIL] line with the measured runtime;
run pytest with -rA (the repo default) to see them all in the report.
"""
import hashlib
import json
import time

from qbarnes.verify import run_suite

SEED = 0

# sha256 of each suite's seed-0 report as `qbarnes verify` prints it
# (json.dumps(report, indent=2, sort_keys=True)). A change that
# alters any byte of a report fails here, so refactors prove "same output".
REPORT_SHA256 = {
    "theorem1-gf": "024a1f53e82be41923c5b2d1bf4025be9bb42eb103e4fa48ca082ecd8989ec54",
    "addition": "2c1bf27f848af86f1697dac8b3c0ec2effb6d206cda1fa99df2965ce4c44ef77",
    "distribution": "3d67935e2d7904aa05c2c0330c7668646adebd1eddb68e01cb1ea6b44a5602bf",
    "riemann-limit": "e908134e6769bfa23491895e6200442eb7f822fb4111587e9dd52f3429e71f56",
    "carlitz-bridge": "178b1cc9b716066652d3bf6f6f28c2f0a534cbaeedab2d4f4983385436f2f183",
    "qlimit": "f7ca05a9dc797cd3e987c1f4b22f28373208d0beeceb8330fc8d176aa20a33b1",
    "measure-additivity": "f67cb6f203b94c2fceac7d5cdcdae939cba6cab360af19880f40a2a270ab188d",
    "measure-bound": "f9bba48ff4e9ae48b8de90289e69684f3c2b1f12a2b3005ef2d1f0cf1d74a1d2",
    "prop5": "9fbac7c2774252ccb8818ebda8962f7ced5d9164ac6ec1bfa2e558eb3aac4bd3",
    "eq8-bridge": "739048a842ac491d3a8cf7000be5a73a177465d08c031ecf50ecb1bad4ac7632",
    "interpolation": "ce044363b24db1de632d2426164e0a57dc9e60932613365b609c7cea1d7dfb23",
    "kummer": "6c056909dec446aa6ee5c3db2a2807fb7e7fe537c21cdc4b07fc1fe9d92c0d55",
    "unit-power": "9abc9b277a22daa2c49f42bddccf69102acc07fde497f4f82991255abc61f54c",
}

# sha256 of the seed-1 riemann-limit report, recorded from the exact
# Fraction sums: a second draw of samples whose large valuations the integer
# axis sums of riemann_error_valuations must reproduce digit for digit
RIEMANN_LIMIT_SEED1_SHA256 = "f813cbe054d610349e6f57e5df2206436e1a72522f4ed67cab11a6abdbb61e4a"

# sha256 of the seed-1 qlimit report, recorded from the Fraction-coefficient
# assembly of h_rational_in_q: a second draw of (a, u, w) for its integer one
QLIMIT_SEED1_SHA256 = "df9e88246ac94e361944d38080fcc57cacb0d21d4cf6e9fd380b67f50e431ebf"

# sha256 of the seed-1 reports of the suites that call h_closed most,
# recorded from its one-Fraction-at-a-time sum: a second draw of samples
# that its integer product-tree sum must reproduce byte for byte
H_CLOSED_SEED1_SHA256 = {
    "theorem1-gf": "0c5c4be483207a4c94615859ca5582d36543888f161dda825a235f937b05769b",
    "addition": "f4a0c510ac9c99d309eac437375f40550da027b644ea0da57d7d6a45a1693de4",
    "distribution": "77c12747ab8de2ed0538582d2266e7a2a7561921e4ab43921ef38f1631b0acf3",
}

# sha256 of the seed-1 reports of the suites that sum against mu_u one axis
# at a time, recorded from their own loops (a rational one for eq8-bridge, a
# p-adic one in l_riemann for interpolation): a second draw of samples that
# eq8-bridge's integer unit sums and l_riemann's riemann_integral must
# reproduce byte for byte
LEVEL_SUM_SEED1_SHA256 = {
    "eq8-bridge": "134d834893636a2388350dde0395b05e17f409ffe897a6f5606290470c4d6a9e",
    "interpolation": "2eb8cd26e0a8f98616b8433499670393974bbd603867d3fb276088dc3f31048f",
}


def _digest(report: dict) -> str:
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_report_shape(report: dict) -> None:
    """The report schema README documents: every check has a name, params,
    pass and exactly one of residual or error_valuation; the report passes
    when all its checks do; and it is plain JSON, so no tuple or Fraction
    leaks into it."""
    for check in report["checks"]:
        value_keys = set(check) - {"name", "params", "pass"}
        assert {"name", "params", "pass"} <= set(check), check
        assert value_keys in ({"residual"}, {"error_valuation"}), check
    assert report["pass"] == all(c["pass"] for c in report["checks"])
    assert json.loads(json.dumps(report)) == report, report["suite"]


def _run(number, suites, description, limit_seconds):
    t0 = time.perf_counter()
    reports = [run_suite(name, seed=SEED) for name in suites]
    dt = time.perf_counter() - t0
    ok = all(r["pass"] for r in reports) and dt < limit_seconds
    label = "+".join(suites)
    checks = sum(len(r["checks"]) for r in reports)
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({label}): "
        f"{description} ({checks} checks, {dt:.1f}s, limit {limit_seconds}s)"
    )
    failing = [c["name"] for r in reports for c in r["checks"] if not c["pass"]]
    assert not failing, f"failing checks: {failing[:10]}"
    for report in reports:
        _assert_report_shape(report)
    for name, report in zip(suites, reports):
        assert _digest(report) == REPORT_SHA256[name], f"the seed-{SEED} {name} report changed"
    assert dt < limit_seconds, f"runtime {dt:.1f}s over the {limit_seconds}s limit"


def test_criterion_01_gf_equals_closed_form():
    _run(
        1,
        ["theorem1-gf"],
        "generating-function coefficients equal the closed form exactly, "
        "30 samples, r <= 3, n <= 12, x in {0,1,3}",
        30,
    )
    assert _digest(run_suite("theorem1-gf", seed=1)) == H_CLOSED_SEED1_SHA256["theorem1-gf"]


def test_criterion_02_addition_formula():
    _run(
        2,
        ["addition"],
        "binomial addition formula exact for n <= 8, w <= 5, r <= 3, 20 samples",
        10,
    )
    assert _digest(run_suite("addition", seed=1)) == H_CLOSED_SEED1_SHA256["addition"]


def test_criterion_03_distribution_relation():
    _run(
        3,
        ["distribution"],
        "order-f distribution relation residual exactly 0, f in {2,3}, "
        "n <= 8, r <= 2, w <= 2, 20 samples",
        60,
    )
    assert _digest(run_suite("distribution", seed=1)) == H_CLOSED_SEED1_SHA256["distribution"]


def test_criterion_04_riemann_sum_convergence():
    _run(
        4,
        ["riemann-limit"],
        "multi-axis Riemann sums: error valuation weakly increasing over "
        "N=1..4 and >= N-1 at the last level, p in {3,5,7}, r in {1,2}",
        180,
    )
    assert _digest(run_suite("riemann-limit", seed=1)) == RIEMANN_LIMIT_SEED1_SHA256


def test_criterion_05_measure_laws():
    _run(
        5,
        ["measure-additivity", "measure-bound"],
        "cell additivity residual exactly 0 and moment integrality "
        "valuation >= 0, k <= 4, f in {1,2}, N <= 2, p in {3,5}, "
        "nu_p(u) in {1,2}",
        60,
    )


def test_criterion_06_principal_term_sums():
    _run(
        6,
        ["prop5"],
        "principal-term cell sums: k = 0 exact at every level, k in {1,2} "
        "strictly gaining valuation over N = 1..4, p in {3,5}",
        60,
    )


def test_criterion_07_q_limit_is_classical():
    _run(
        7,
        ["qlimit"],
        "q -> 1 limit equals classical coefficients at parameter 1/u, "
        "exactly, n <= 10, r <= 2, 10 samples",
        30,
    )
    assert _digest(run_suite("qlimit", seed=1)) == QLIMIT_SEED1_SHA256


def test_criterion_08_carlitz_bridge():
    _run(
        8,
        ["carlitz-bridge"],
        "closed form at r=1, w=0 equals the umbral recurrence at 1/u, "
        "k <= 10, 10 samples",
        5,
    )


def test_criterion_09_bridge_and_interpolation():
    _run(
        9,
        ["eq8-bridge", "interpolation"],
        "unit-restricted moment sums converge to the two-Euler-factor "
        "closed form, and the s = -k Riemann value matches it to joint "
        "precision, p in {3,5}, k <= 4, trivial and quadratic characters",
        180,
    )
    for name, digest in LEVEL_SUM_SEED1_SHA256.items():
        assert _digest(run_suite(name, seed=1)) == digest, f"the seed-1 {name} report changed"


def test_criterion_10_kummer_congruences():
    _run(
        10,
        ["kummer"],
        "nu_p(L(-k) - L(-k')) >= n for k ≡ k' mod (p-1)p^n, three pairs "
        "per (p, n), p in {3,5}, n in {1,2}",
        120,
    )


def test_criterion_11_unit_power_congruence():
    _run(
        11,
        ["unit-power"],
        "<a1 x : q>^(p^n) ≡ 1 mod p^n for all units x < p^2, n <= 5, "
        "p in {3,5,7}",
        30,
    )

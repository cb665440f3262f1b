"""Acceptance gate: eight go/no-go checks, one printed line each.

Run with plain pytest; the CRITERION lines are collected here and echoed in
the terminal summary (see conftest), so they stay visible under output
capture:

    pytest tests/test_acceptance.py

Each check owns its stated tolerance and runtime budget.  A failed assert
carries the collected problem list for that criterion.
"""

import json
import math
import time
from fractions import Fraction as F

import numpy as np

from cesarospec import (
    CoordinateVector,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    GALLERY_SPECS,
    TruncOperator,
    a_matrix,
    b_matrix,
    basis_vector,
    boun_bounds_fit,
    cesaro,
    cesaro_apply,
    cesaro_inverse_apply,
    classify_space,
    compare_seminorms,
    delta,
    delta_eigenvector,
    gm_sup,
    identity,
    iterate_limit_check,
    iterate_via_kernel,
    ops_equal_exact,
    parse_alpha,
    power_iterate,
    resolvent,
    resolvent_point_profile,
    s0_estimate,
    verify_resolvent_point,
)
from cesarospec.cli import main as cli_main
from cesarospec.operators import logbinom

SEED = 20260814

CRITERION_LINES: list = []


def _finish(num: int, problems: list, detail: str, t0: float,
            budget: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        problems.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")
    status = "PASS" if not problems else "FAIL"
    line = f"CRITERION {num}: {status} ({detail}; {elapsed:.1f}s)"
    CRITERION_LINES.append(line)
    print(line)
    assert not problems, "; ".join(problems)


def test_criterion_1_exact_algebra():
    t0 = time.perf_counter()
    problems = []

    d = delta(40)
    if not ops_equal_exact(d @ d, identity(40)):
        problems.append("signed-binomial involution squared is not I at N=40")
    rows = [[F(1, i) if i == j else F(0) for j in range(1, 41)]
            for i in range(1, 41)]
    diag = TruncOperator("recip_diag", 40, rows, "rational")
    if not ops_equal_exact(d @ diag @ d, cesaro(40)):
        problems.append("conjugated reciprocal diagonal is not C at N=40")

    rng = np.random.default_rng(SEED)
    for i in range(200):
        x = [F(int(a), int(b)) for a, b in zip(rng.integers(-99, 100, 100),
                                               rng.integers(1, 20, 100))]
        back = cesaro_inverse_apply(cesaro_apply(CoordinateVector(x)))
        if list(back.values) != x:
            problems.append(f"mean/unmean roundtrip broke on vector {i}")
            break

    if not ops_equal_exact(a_matrix(50) @ b_matrix(50), identity(50)):
        problems.append("A.B is not I at N=50")

    _finish(1, problems,
            "involution, conjugation, 200 roundtrips at N=100, A.B=I, "
            "zero tolerance", t0, budget=10.0)


def test_criterion_2_eigenpairs():
    t0 = time.perf_counter()
    problems = []
    N = 100

    for m in range(1, 11):
        vec = delta_eigenvector(m, N)
        image = cesaro_apply(vec)
        if any(image.values[i] != vec.values[i] / m for i in range(N)):
            problems.append(f"exact eigenvalue relation broke at m={m}")

    for m in range(1, 11):
        vals = delta_eigenvector(m, N).as_float()
        means = np.cumsum(vals) / np.arange(1, N + 1)
        rel = np.max(np.abs(means - vals / m)) / np.max(np.abs(vals))
        if rel > 1e-10:
            problems.append(f"float residual {rel:.2e} at m={m}")

    for m in range(1, 11):
        vals = np.array([(-1) ** (m - 1) * math.exp(logbinom(n - 1, m - 1))
                         for n in range(1, N + 1)])
        means = np.cumsum(vals) / np.arange(1, N + 1)
        rel = np.max(np.abs(means - vals / m)) / np.max(np.abs(vals))
        if rel > 1e-10:
            problems.append(f"log-mode residual {rel:.2e} at m={m}")

    _finish(2, problems,
            "m<=10 at N=100: rational exact, float and log-mode relative "
            "residual <= 1e-10", t0)


def _two_sided_identity_exact(lam: F, N: int) -> bool:
    r = resolvent(lam, N, mode="rational")
    rows = [[r.entry(i, j) for j in range(1, i + 1)] for i in range(1, N + 1)]
    col_acc = [F(0)] * (N + 1)
    for n in range(1, N + 1):
        row = rows[n - 1]
        for m in range(1, n + 1):
            col_acc[m] += row[m - 1]
            want = F(1) if n == m else F(0)
            if col_acc[m] / n - lam * row[m - 1] != want:
                return False
    for n in range(1, N + 1):
        row = rows[n - 1]
        suffix = F(0)
        for m in range(n, 0, -1):
            suffix += row[m - 1] / m
            want = F(1) if n == m else F(0)
            if suffix - lam * row[m - 1] != want:
                return False
    return True


def test_criterion_3_resolvent():
    t0 = time.perf_counter()
    problems = []
    N = 100

    for lam in (F(2), F(-1)):
        if not _two_sided_identity_exact(lam, N):
            problems.append(f"exact two-sided identity broke at lambda={lam}")

    lam = 0.4 + 0.3j
    r = resolvent(lam, N).dense()
    c = cesaro(N, mode="float").dense().astype(complex)
    shifted = c - lam * np.eye(N)
    eye = np.eye(N)
    err = max(np.max(np.abs(shifted @ r - eye)),
              np.max(np.abs(r @ shifted - eye)))
    if err > 1e-12:
        problems.append(f"float identity error {err:.2e} at lambda={lam}")

    ra = resolvent(F(2), 30, mode="rational")
    rb = resolvent(F(3), 30, mode="rational")
    prod = ra @ rb
    for i in range(1, 31):
        for j in range(1, 31):
            if ra.entry(i, j) - rb.entry(i, j) != -prod.entry(i, j):
                problems.append("exact resolvent pair identity broke at "
                                f"({i},{j})")
                break
        else:
            continue
        break

    _finish(3, problems,
            "lambda in {2,-1} exact and 0.4+0.3i <= 1e-12 at N=100, "
            "pair identity exact at N=30", t0, budget=5.0)


def test_criterion_4_golden_table():
    t0 = time.perf_counter()
    problems = []

    prof = {s: classify_space(parse_alpha(s)) for s in GALLERY_SPECS}
    prof["log:beta=1"] = classify_space(parse_alpha("log:beta=1"))
    prof["power:beta=1"] = classify_space(parse_alpha("power:beta=1"))

    def expect(spec, field, outcome):
        got = getattr(prof[spec], field).outcome
        if got != outcome:
            problems.append(f"{spec}.{field}: {got}, expected {outcome}")

    expect("linear", "nuclear", HOLDS)
    expect("linear", "shift_stable", HOLDS)
    expect("linear", "d_continuous", HOLDS)
    expect("linear", "delta_continuous", FAILS)

    expect("sqrt", "nuclear", HOLDS)
    sq = prof["sqrt"]
    if sq.v_alpha.outcome != FAILS or sq.v_alpha.trend != "to_zero":
        problems.append("sqrt gap infimum did not trend to zero")

    for spec, beta in (("log:beta=1", 1.0), ("log:beta=2", 2.0)):
        expect(spec, "nuclear", FAILS)
        expect(spec, "shift_stable", HOLDS)
        expect(spec, "s1_nonempty", HOLDS)
        est = s0_estimate(parse_alpha(spec), k=1).estimate
        if abs(est - (1.0 + beta)) > 0.05:
            problems.append(f"{spec} s0(1) estimate {est:.4f} is not within "
                            f"0.05 of {1.0 + beta}")

    expect("tower", "nuclear", HOLDS)
    expect("tower", "shift_stable", FAILS)
    expect("tower", "delta_continuous", HOLDS)
    expect("tower", "d_continuous", FAILS)

    expect("power:beta=2", "delta_continuous", HOLDS)
    expect("power:beta=1", "delta_continuous", FAILS)

    rs = prof["rsw_b"]
    if rs.v_alpha_value != 1.0 or rs.v_alpha.outcome != HOLDS:
        problems.append(f"rsw_b gap infimum {rs.v_alpha_value}, expected 1.0")

    expect("psum:beta=1/2", "nuclear", HOLDS)
    from cesarospec import banach_step_compactness
    if banach_step_compactness(parse_alpha("psum:beta=1/2")).outcome != HOLDS:
        problems.append("psum single-step compactness did not hold")

    expect("s1_empty", "nuclear", FAILS)
    expect("s1_empty", "s1_nonempty", FAILS)

    warned = [f"{s}: {w}" for s, p in prof.items() for w in p.warnings]
    problems.extend(warned)

    _finish(4, problems, "10 generators, all documented facts reproduced",
            t0, budget=60.0)


def test_criterion_5_equivalences():
    t0 = time.perf_counter()
    problems = []
    inconclusive = []

    for spec in GALLERY_SPECS:
        p = classify_space(parse_alpha(spec))

        pairs = [
            ("inverse<->nuclear", p.inverse_continuous, p.nuclear),
            ("delta<->n/alpha", p.delta_continuous, p.n_over_alpha_zero),
        ]
        for label, left, right in pairs:
            if INCONCLUSIVE in (left.outcome, right.outcome):
                inconclusive.append(f"{spec}:{label}")
            elif left.outcome != right.outcome:
                problems.append(f"{spec}: {label} disagree "
                                f"({left.outcome} vs {right.outcome})")

        trio = (p.d_continuous, p.nuclear, p.shift_stable)
        if any(v.outcome == INCONCLUSIVE for v in trio):
            inconclusive.append(f"{spec}:d<->nuclear&shift")
        else:
            joint = HOLDS if (p.nuclear.outcome == HOLDS
                              and p.shift_stable.outcome == HOLDS) else FAILS
            if p.d_continuous.outcome != joint:
                problems.append(f"{spec}: d-continuity {p.d_continuous.outcome}"
                                f" vs nuclear&shift {joint}")

    _finish(5, problems,
            f"3 equivalences across {len(GALLERY_SPECS)} generators, "
            f"{len(inconclusive)} inconclusive pairs reported, not counted",
            t0)


def test_criterion_6_dynamics():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(SEED)

    worst = 0.0
    for _ in range(20):
        x = CoordinateVector(rng.uniform(-1.0, 1.0, size=30))
        for m in range(1, 6):
            via_kernel = iterate_via_kernel(x, m).as_float()
            via_power = power_iterate(x, m).final().as_float()
            worst = max(worst, float(np.max(np.abs(via_kernel - via_power))))
    if worst > 1e-8:
        problems.append(f"kernel vs power disagreement {worst:.2e}")

    if gm_sup(1) != 1.0:
        problems.append("a_1 is not exactly 1")
    if abs(gm_sup(2) - math.exp(-1)) > 1e-14:
        problems.append("a_2 is not 1/e")
    for m in range(1, 21):
        gap = abs(gm_sup(m, method="closed") - gm_sup(m, method="numeric"))
        if gap > 1e-10:
            problems.append(f"a_{m} closed vs numeric gap {gap:.2e}")

    alphas = [F(n) for n in range(1, 17)]
    violations = 0
    for _ in range(100):
        x = [F(int(a), int(b)) for a, b in zip(rng.integers(-99, 100, 16),
                                               rng.integers(1, 20, 16))]
        cur = CoordinateVector(list(x))
        for m in range(1, 51):
            cur = cesaro_apply(cur)
            for k in range(1, 6):
                if compare_seminorms(alphas, k, list(cur.values), x) > 0:
                    violations += 1
    if violations:
        problems.append(f"{violations} exact seminorm contraction violations")

    for x in (basis_vector(1, 30),
              CoordinateVector(rng.uniform(-1.0, 1.0, size=30)),
              CoordinateVector(rng.uniform(-1.0, 1.0, size=24))):
        v = iterate_limit_check(x, tol=1e-6)
        if v.outcome != HOLDS:
            problems.append(f"iterates failed to settle within 1e-6: {v.reason}")

    _finish(6, problems,
            "kernel<=1e-8 on 20 vectors, a_m<=1e-10 m<=20, exact contraction "
            "k<=5 m<=50 on 100 vectors, iterate limits below 1e-6",
            t0, budget=120.0)


def test_criterion_7_spectral_evidence():
    t0 = time.perf_counter()
    problems = []
    linear = parse_alpha("linear")
    log2 = parse_alpha("log:beta=2")

    for lam in (2.0, 0.4 + 0.3j):
        v = verify_resolvent_point(linear, lam, k=1)
        if v.outcome != HOLDS:
            problems.append(f"linear row sums did not stabilize at {lam}")

    bad = resolvent_point_profile(log2, 0.4)
    if bad.outcome != FAILS:
        problems.append("log:beta=2 at 0.4 did not fail the scan")
    elif bad.witness.get("condition") != "row_sums":
        problems.append(f"unexpected failure witness {bad.witness}")

    for lam in (2.0, -1.0):
        low, high, env = boun_bounds_fit(lam, N=1_000)
        if env.outcome != HOLDS or not (0.0 < low <= high):
            problems.append(f"envelope fit at {lam} gave [{low:.3g},{high:.3g}]"
                            f" {env.outcome}")

    _finish(7, problems,
            "tail row sums stabilize (linear) and grow (log, witness k="
            f"{bad.witness.get('k') if bad.outcome == FAILS else '?'}), "
            "two-sided envelope at N=1000", t0)


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    problems = []

    argv = ["--alpha", "linear", "--experiments", "suite", "--seed", "1729"]
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    code1 = cli_main(argv + ["--out", str(first)])
    code2 = cli_main(argv + ["--out", str(second)])
    if (code1, code2) != (0, 0):
        problems.append(f"suite runs exited {code1}/{code2}, expected 0/0")
    elif first.read_bytes() != second.read_bytes():
        problems.append("reports differ between identical runs")
    else:
        tree = json.loads(first.read_text())
        if tree["mismatches"]:
            problems.append(f"suite reported mismatches: {tree['mismatches']}")

    _finish(8, problems, "byte-identical gallery suite reports, same seed", t0)

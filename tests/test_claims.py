"""The claims ledger: one test per row.

Each row fires, with its exact message, on facts that show its forbidden
combination, and stays quiet when its conclusion is flipped or any of its
verdicts is inconclusive.  Flipping the row's conclusion in the ledger makes
it fire on the facts of `suite --seed 1` or of a named run, so every row is
live: a wrong conclusion would turn a clean run into exit 1.
"""

from pathlib import Path

import pytest

from cesarospec import claims, cli
from cesarospec.trend import FAILS, HOLDS, INCONCLUSIVE

FLIP = {HOLDS: FAILS, FAILS: HOLDS, "in": "out", "out": "in",
        True: False, False: True}

# The runs whose facts the flipped rows are checked against.
RUNS = (
    ["--experiments", "suite", "--seed", "1"],
    ["--alpha", "linear", "--experiments", "resolvent:2", "eigenpairs:1"],
    ["--alpha", "log:beta=2", "--experiments", "resolvent:0.4",
     "eigenpairs:2"],
    ["--alpha", "linear", "--N", "24", "--experiments", "dynamics:e2,1"],
)

_SHIFT = ("the basis-shift operator's continuity verdict ({}) disagrees with "
          "nuclear+shift-stable ({})")
_DELTA = ("alternating-transform evidence tracks disagree: row sums say {}, "
          "the scalar limit says {}")

# Per row id: the facts its message reads beyond its forbidden combination,
# and the message those facts give.
MESSAGES = {
    "gap_forces_nuclear": ({}, "v(alpha) > 0 forces log(n)/alpha_n -> 0, "
                               "but the nuclearity verdict failed"),
    "nuclear_excludes_s1": ({}, "nuclearity and a nonempty S_1 are mutually "
                                "exclusive, yet both verdicts hold"),
    "inverse_implies_nuclear": ({}, "inverse continuity holds but nuclearity "
                                    "fails; the two are provably equivalent"),
    "nuclear_implies_inverse": ({}, "inverse continuity fails but nuclearity "
                                    "holds; the two are provably equivalent"),
    "shift_continuity_implies_both": ({}, _SHIFT.format(HOLDS, FAILS)),
    "both_imply_shift_continuity": ({}, _SHIFT.format(FAILS, HOLDS)),
    "rowsum_track_implies_scalar": ({}, _DELTA.format(HOLDS, FAILS)),
    "scalar_track_implies_rowsum": ({}, _DELTA.format(FAILS, HOLDS)),
    "tail_holds_outside_spectrum": ({}, "tail criterion holds but the point "
                                        "is predicted inside the spectrum"),
    "tail_fails_inside_spectrum": ({}, "tail criterion fails but the point "
                                       "is predicted outside the spectrum"),
    "envelope_two_sided": ({}, "two-sided envelope bound violated"),
    "eigenvector_exact": ({"N": 40},
                          "exact eigenvalue relation violated at N=40"),
    "nuclear_keeps_eigenvectors": ({}, "eigenvector escapes a space whose "
                                       "point spectrum should contain 1/m"),
    "non_nuclear_point_spectrum_one": ({}, "eigenvector lies in a space "
                                           "whose point spectrum should be "
                                           "{1}"),
    "kernel_route": ({"diff": 0.00123},
                     "kernel and iterated-mean routes disagree by 1.230e-03"),
    "power_bounded": ({}, "seminorm contraction under averaging violated"),
    "iterates_settle": ({}, "iterates failed to settle at the first "
                            "coordinate"),
    "mean_ergodic": ({}, "mean-ergodic splitting failed to reconstruct"),
    "difference_involution": ({}, "double forward difference is not the "
                                  "identity"),
    "ab_inverse_pair": ({}, "shifted-difference pair is not mutually "
                            "inverse"),
    "mean_roundtrip": ({}, "inverse mean does not undo the mean"),
    "eigenpair_m3": ({}, "m=3 eigenvector relation broken"),
    "resolvent_identity": ({"resolvent_defect": 2.5e-11},
                           "two-sided inverse defect 2.500e-11 at lambda=2"),
    "noncompact_linear": ({}, "expected holds, got fails"),
    "banach_step_psum": ({}, "expected holds, got fails"),
    "resolvent_point_linear_2": ({}, "expected holds, got fails"),
    "resolvent_scan_log2_04": ({}, "expected fails, got holds"),
    "envelope_lambda_2": ({}, "expected holds, got fails"),
    "kernel_route_m2": ({"kernel_m2_diff": 3e-7},
                        "kernel and mean routes differ by 3.000e-07"),
    "density_sups_decreasing": ({}, "density sup sequence is not strictly "
                                    "decreasing"),
    "exact_contraction": ({}, "exact seminorm contraction violated"),
    "float_ergodic": ({}, "mean-ergodic splitting failed on float input"),
}


@pytest.fixture(scope="module")
def recorded():
    """(rows, facts) of every ledger check the runs make."""
    calls = []
    real = claims.check

    def spy(rows, facts, prefix=""):
        calls.append((rows, facts))
        return real(rows, facts, prefix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "check", spy)
        for argv in RUNS:
            config, _ = cli.assemble_config(cli._build_parser().parse_args(argv))
            assert cli.run(config).mismatches == ()
    return calls


def _flipped(row):
    fact, value = row.forbids[-1]
    return row._replace(forbids=row.forbids[:-1] + ((fact, FLIP[value]),))


@pytest.mark.parametrize("row", claims.LEDGER, ids=lambda row: row.id)
def test_row(row, recorded):
    extra, message = MESSAGES[row.id]
    facts = {**dict(row.forbids), **extra}
    assert claims.check((row,), facts) == [message]
    assert claims.check((_flipped(row),), facts) == []
    for fact, value in row.forbids:
        if value in (HOLDS, FAILS):
            assert claims.check((row,), {**facts, fact: INCONCLUSIVE}) == []
    seen = [f for rows, f in recorded if row in rows]
    assert seen, "no run checks this row"
    assert any(claims.check((_flipped(row),), f) for f in seen)


def test_every_row_has_a_test_and_a_source():
    ids = [row.id for row in claims.LEDGER]
    assert sorted(ids) == sorted(MESSAGES)
    assert len(set(ids)) == len(ids)
    assert all(row.source and row.forbids for row in claims.LEDGER)


def test_readme_lists_every_row_with_its_source():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for row in claims.LEDGER:
        forbids = ", ".join(f"{f} = {v}" for f, v in row.forbids)
        assert f"| `{row.id}` |" in readme
        assert f"| {forbids} | {row.source} |" in readme


def test_lines_come_in_row_order_after_their_prefix():
    a = claims.Claim("a", "s", (("x", HOLDS),), "a saw {x}")
    b = claims.Claim("b", "s", (("y", FAILS),), "b")
    facts = {"x": HOLDS, "y": FAILS, "m": 3}
    assert claims.check((b, a), facts, "run[m={m}] {id}: ") == [
        "run[m=3] b: b", "run[m=3] a: a saw holds"]


def test_a_flipped_row_makes_a_clean_run_exit_1(monkeypatch, capsys):
    row = claims.SPACE[3]   # nuclear_implies_inverse
    assert row.id == "nuclear_implies_inverse"
    monkeypatch.setattr(claims, "SPACE", (_flipped(row),))
    assert cli.main(["--experiments", "profile"]) == 1
    assert capsys.readouterr().err == (
        "mismatch: profile[linear]: inverse continuity fails but nuclearity "
        "holds; the two are provably equivalent\n")

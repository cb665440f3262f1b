"""Batch front end: parse a run configuration, execute experiments, emit reports.

The analysis fields (generator, resolutions, experiment list, seed) are echoed
into the report; delivery details (output path) are not, so identical analyses
produce byte-identical reports no matter where they are written.  Wall-clock
timings are measured but excluded from the emitted bytes unless explicitly
requested, for the same reason.

Exit codes: 0 when every decisive verdict matches its theoretical prediction,
1 when some decisive verdict contradicts one, 2 on a usage or input error.
Inconclusive verdicts are reported as such and never abort a run or flip the
exit code.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import GALLERY_SPECS, banach_step_compactness, classify_space, \
    noncompactness_witness
from .dynamics import cesaro_means, ergodic_decomposition_check, gm_sup, \
    iterate_limit_check, iterate_via_kernel, power_bound_check, power_iterate
from .errors import CesaroError, PreconditionError
from .operators import CoordinateVector, a_matrix, b_matrix, basis_vector, \
    cesaro, cesaro_apply, cesaro_inverse_apply, delta, delta_eigenvector, \
    identity, ops_equal_exact, resolvent
from .sequences import WeightSystem, parse_alpha
from .serialize import dumps_json, format_float, jsonable
from .spectral import IN, OUT, boun_bounds_fit, disc_report, \
    eigenvector_membership, predict_spectra, resolvent_point_profile, \
    verify_resolvent_point
from .trend import FAILS, HOLDS

SCHEMA_VERSION = "2"
OUT_DIR_ENV = "CESAROSPEC_OUT_DIR"

EXPERIMENT_NAMES = ("profile", "spectrum", "resolvent", "eigenpairs",
                    "dynamics", "suite")
# Largest dynamics step count.  Exact iterates grow their numerators with
# every step and the run keeps them all, so memory rises faster than
# linearly: at N = 512 from e1 on a 2-vCPU host, 40 steps take 1.6-2.8 s at
# 80 MB peak RSS and 60 steps 2.5-3.0 s at 129 MB (fresh processes).
DYNAMICS_STEP_CAP = 40
# Largest eigenpair index.  Index m checks its eigenvector against a dense
# cesaro(2m) matrix of integer numerators, so time and memory grow
# quadratically: on the same host a run at index 200 takes 0.5-0.7 s at
# 56 MB peak RSS, 600 takes 1.1-1.3 s at 77 MB.
EIGENPAIR_INDEX_CAP = 200
# Largest resolution.  The criteria and resolvent scans are linear in N: at
# N = 1,000,000 the run `profile spectrum resolvent:2,-1,0.4+0.3i
# eigenpairs:1,2,3 dynamics` takes 9.7 s at 123 MB peak RSS for linear and
# 9.9 s at 153 MB for log:beta=2 (2-vCPU host); at N = 10,000,000 the four
# scans alone take 13-21 s at 674 MB.
N_CAP = 1_000_000
# Largest level count K and resolvent scan depth kmax.  At the default N the
# same run takes 0.6-0.7 s at 55 MB with K = 64, and 1.1 s at 55 MB with
# kmax = 64 (linear and log:beta=2).  With N, K and kmax all at their caps it
# takes 38-41 s at 123 MB.
K_CAP = 64
KMAX_CAP = 64

class UsageError(Exception):
    """Bad flag value, config file field, or experiment token."""


# -- configuration --------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything that determines a report, minus the delivery path."""

    alpha: str = "linear"
    N: int | None = None
    K: int = 4
    kmax: int = 3
    tol: float | None = None
    seed: int = 1729
    experiments: tuple = ("profile",)
    lambdas: tuple = (complex(2),)
    ms: tuple = (1, 2, 3)
    x: str = "e1"
    output: str = "json"


@dataclass(frozen=True)
class Report:
    schema_version: str
    config: dict
    results: tuple          # (experiment token, payload dict) in declared order
    mismatches: tuple
    versions: dict
    wall_times: tuple       # (experiment token, seconds); excluded from bytes


def parse_complex_literal(text: str) -> complex:
    """Accept a+bi (also plain reals and bare bi); i and j both work."""
    t = text.strip().replace(" ", "").replace("i", "j")
    try:
        z = complex(t)
    except ValueError:
        raise UsageError(f"bad complex literal {text!r}; expected a+bi") from None
    if not cmath.isfinite(z):
        raise UsageError(f"complex literal {text!r} is not finite")
    return z


def _parse_int_list(text: str, what: str) -> tuple:
    try:
        vals = tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise UsageError(f"bad {what} list {text!r}; expected ints") from None
    if not vals:
        raise UsageError(f"empty {what} list")
    return vals


def _parse_lambda_list(text: str) -> tuple:
    vals = tuple(parse_complex_literal(p) for p in text.split(",") if p)
    if not vals:
        raise UsageError("empty lambda list")
    return vals


def _validate_x_spec(spec: str) -> str:
    s = spec.strip()
    if s in ("ones", "random"):
        return s
    if s.startswith("e") and s[1:].isdigit() and int(s[1:]) >= 1:
        return s
    raise UsageError(f"bad starting-vector spec {spec!r}; "
                     "expected e<j>, ones, or random")


def _check_counts(values, what: str, cap: int, where: str) -> None:
    if not values or min(values) < 1:
        raise UsageError(f"each {what} in {where} must be >= 1, "
                         f"got {list(values)}")
    if max(values) > cap:
        raise UsageError(f"{what} {max(values)} in {where} exceeds "
                         f"the cap of {cap}")


def _check_config(config: AnalysisConfig) -> None:
    """Every token, range and spec check, whether the config came from flags,
    a config file or code; the m list is checked for the runs that take it."""
    for token in config.experiments:
        name, inline = parse_experiment_token(token)
        if name == "dynamics" and (inline is None or inline[1] is None):
            _check_counts(config.ms, "dynamics step count", DYNAMICS_STEP_CAP,
                          "the m list")
        if name == "eigenpairs" and inline is None:
            _check_counts(config.ms, "eigenpair index", EIGENPAIR_INDEX_CAP,
                          "the m list")
    if config.output not in ("json", "csv"):
        raise UsageError(f"bad output format {config.output!r}; "
                         "expected json or csv")
    _validate_x_spec(config.x)
    for key, low, cap in (("N", 2, N_CAP), ("K", 1, K_CAP),
                          ("kmax", 1, KMAX_CAP), ("seed", 0, None)):
        value = getattr(config, key)
        if value is not None and value < low:
            raise UsageError(f"{key} must be >= {low}")
        if value is not None and cap is not None and value > cap:
            raise UsageError(f"{key} {value} exceeds the cap of {cap}")
    if not all(cmath.isfinite(z) for z in config.lambdas):
        raise UsageError(f"lambda values must be finite, got {config.lambdas}")
    tol = config.tol
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be a finite positive number, got {tol}")
    try:
        parse_alpha(config.alpha)
    except (ValueError, CesaroError) as err:
        raise UsageError(f"bad --alpha {config.alpha!r}: {err}") from None


def parse_experiment_token(token: str) -> tuple:
    """Split name[:inline-args]; returns (name, parsed-args or None)."""
    name, _, arg = token.partition(":")
    if name not in EXPERIMENT_NAMES:
        raise UsageError(f"unknown experiment {name!r}; "
                         f"choose from {', '.join(EXPERIMENT_NAMES)}")
    if not arg:
        return name, None
    if name == "resolvent":
        return name, _parse_lambda_list(arg)
    if name == "eigenpairs":
        ms = _parse_int_list(arg, "m")
        _check_counts(ms, "eigenpair index", EIGENPAIR_INDEX_CAP, repr(token))
        return name, ms
    if name == "dynamics":
        parts = [p for p in arg.split(",") if p]
        x = _validate_x_spec(parts[0] if parts else arg)
        ms = None
        if len(parts) > 1:
            ms = _parse_int_list(",".join(parts[1:]), "step count")
            _check_counts(ms, "dynamics step count", DYNAMICS_STEP_CAP,
                          repr(token))
        return name, (x, ms)
    raise UsageError(f"experiment {name!r} takes no inline arguments")


_CONFIG_FIELDS = {
    "alpha": str, "N": int, "K": int, "kmax": int, "tol": float, "seed": int,
    "experiments": None, "lambda": None, "m": None, "x": str, "output": str,
    "out": str,
}
# Config-file and echo names of the AnalysisConfig fields that differ.
_FIELD_KEYS = {"lambdas": "lambda", "ms": "m"}


def _field_key(name: str) -> str:
    return _FIELD_KEYS.get(name, name)


def _flatten_config(tree: dict, path: str = "") -> dict:
    flat: dict = {}
    for key, val in tree.items():
        where = f"{path}.{key}" if path else str(key)
        if isinstance(val, dict):
            flat.update(_flatten_config(val, where))
        elif key in _CONFIG_FIELDS:
            flat[key] = val
        else:
            raise UsageError(f"config field {where!r}: unknown key")
    return flat


def load_config_file(path: str) -> dict:
    """JSON config: flat keys or nested groups (groups are flattened)."""
    try:
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as err:
        raise UsageError(f"config file {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise UsageError(
            f"config file {path}: line {err.lineno}, col {err.colno}: {err.msg}"
        ) from None
    if not isinstance(tree, dict):
        raise UsageError(f"config file {path}: top level must be an object")
    return _flatten_config(tree)


def _coerce_field(key: str, val):
    want = _CONFIG_FIELDS[key]
    if key == "experiments":
        if isinstance(val, str):
            val = [val]
        if not isinstance(val, list):
            raise UsageError("config field 'experiments': expected a list")
        return tuple(str(t) for t in val)
    if key == "lambda":
        if isinstance(val, (int, float, str)):
            val = [val]
        return tuple(parse_complex_literal(str(v)) for v in val)
    if key == "m":
        if isinstance(val, int):
            val = [val]
        return tuple(int(v) for v in val)
    try:
        return want(val)
    except (TypeError, ValueError):
        raise UsageError(f"config field {key!r}: cannot read {val!r}") from None


def assemble_config(ns: argparse.Namespace) -> tuple:
    """Merge defaults < config file < flags; returns (config, delivery dict)."""
    merged: dict = {}
    if ns.config:
        for key, val in load_config_file(ns.config).items():
            merged[key] = _coerce_field(key, val)
    flag_map = {
        "alpha": ns.alpha, "N": ns.N, "K": ns.K, "kmax": ns.kmax,
        "tol": ns.tol, "seed": ns.seed, "x": ns.x, "output": ns.output,
        "out": ns.out,
    }
    for key, val in flag_map.items():
        if val is not None:
            merged[key] = _coerce_field(key, val)
    if ns.lambdas is not None:
        merged["lambda"] = _parse_lambda_list(ns.lambdas)
    if ns.ms is not None:
        merged["m"] = _parse_int_list(ns.ms, "m")
    if ns.experiments is not None:
        tokens: list = []
        for item in ns.experiments:
            tokens.extend(p for p in item.split(";") if p)
        merged["experiments"] = tuple(tokens)

    config = AnalysisConfig(**{
        f.name: merged[_field_key(f.name)] for f in fields(AnalysisConfig)
        if _field_key(f.name) in merged})
    _check_config(config)
    delivery = {"out": merged.get("out"),
                "include_timings": bool(ns.include_timings)}
    return config, delivery


# -- experiment runners -----------------------------------------------------------


class _RunContext:
    """Shared lazily-computed inputs for the experiment runners."""

    def __init__(self, config: AnalysisConfig):
        self.config = config
        self.seq = parse_alpha(config.alpha)
        self.weights = WeightSystem(self.seq)
        self._profile = None
        self._spectrum = None

    @cached_property
    def rng(self):
        # Built on the first draw, so that runs which draw nothing do not
        # import numpy.random.
        return np.random.default_rng(self.config.seed)

    def profile(self):
        if self._profile is None:
            self._profile = classify_space(self.seq, N=self.config.N)
        return self._profile

    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = predict_spectra(self.profile())
        return self._spectrum


def _run_profile(ctx: _RunContext) -> tuple:
    prof = ctx.profile()
    mism = [f"profile[{prof.alpha}]: {w}" for w in prof.warnings]
    return {"profile": prof}, mism


def _run_spectrum(ctx: _RunContext) -> tuple:
    prof = ctx.profile()
    rep = ctx.spectrum()
    payload = {"profile": prof, "spectrum": rep}
    if prof.s1_nonempty.outcome == HOLDS:
        payload["discs"] = disc_report(
            ctx.seq, kmax=ctx.config.K, tol=ctx.config.tol or 0.05,
            s1=prof.s1_nonempty)
    mism = [f"spectrum[{prof.alpha}]: {w}" for w in prof.warnings]
    return payload, mism


def _run_resolvent(ctx: _RunContext, lambdas) -> tuple:
    sigma = ctx.spectrum().sigma
    entries = []
    mism = []
    for lam in lambdas:
        entry = {"lambda": lam}
        try:
            point = resolvent_point_profile(
                ctx.seq, lam, kmax=ctx.config.kmax, N=ctx.config.N)
        except PreconditionError as err:
            entry["error"] = str(err)
            entries.append(entry)
            continue
        predicted = sigma.contains(lam)
        entry["resolvent_point"] = point
        entry["predicted_membership"] = predicted
        if point.outcome == HOLDS and predicted == IN:
            mism.append(f"resolvent[{lam}]: tail criterion holds but the "
                        "point is predicted inside the spectrum")
        if point.outcome == FAILS and predicted == OUT:
            mism.append(f"resolvent[{lam}]: tail criterion fails but the "
                        "point is predicted outside the spectrum")
        low, high, env = boun_bounds_fit(lam)
        entry["envelope"] = {"lower": low, "upper": high, "verdict": env}
        if env.outcome == FAILS:
            mism.append(f"resolvent[{lam}]: two-sided envelope bound violated")
        entries.append(entry)
    return {"points": entries}, mism


def _is_eigenpair(image: CoordinateVector, vec: CoordinateVector,
                  m: int) -> bool:
    """Whether image = vec / m exactly, for exact vectors, on their integer
    numerators: with image = p / D_p and vec = v / D_v that is
    m p_n D_v == v_n D_p for every n."""
    p, den_p = image.shared()
    v, den_v = vec.shared()
    return all(m * a * den_v == b * den_p for a, b in zip(p, v))


def _run_eigenpairs(ctx: _RunContext, ms) -> tuple:
    nuclear = ctx.profile().nuclear
    entries = []
    mism = []
    for m in ms:
        n_eig = max(40, 2 * m)
        vec = delta_eigenvector(m, n_eig)
        exact_zero = _is_eigenpair(cesaro(n_eig).apply(vec), vec, m)
        membership = eigenvector_membership(
            ctx.seq, m, K=ctx.config.K, N=ctx.config.N)
        entries.append({"m": m, "N": n_eig, "residual_zero": exact_zero,
                        "membership": membership})
        if not exact_zero:
            mism.append(f"eigenpairs[m={m}]: exact eigenvalue relation "
                        f"violated at N={n_eig}")
        if nuclear.outcome == HOLDS and membership.outcome == FAILS:
            mism.append(f"eigenpairs[m={m}]: eigenvector escapes a space "
                        "whose point spectrum should contain 1/m")
        if nuclear.outcome == FAILS and m >= 2 \
                and membership.outcome == HOLDS:
            mism.append(f"eigenpairs[m={m}]: eigenvector lies in a space "
                        "whose point spectrum should be {1}")
    return {"pairs": entries}, mism


def _make_vector(spec: str, n: int, ctx: _RunContext) -> CoordinateVector:
    if spec == "ones":
        return CoordinateVector([Fraction(1)] * n)
    if spec == "random":
        return CoordinateVector(ctx.rng.uniform(-1.0, 1.0, size=n))
    j = int(spec[1:])
    if j > n:
        raise UsageError(f"basis index {j} exceeds vector length {n}")
    return basis_vector(j, n)


def _run_dynamics(ctx: _RunContext, x_spec: str, ms) -> tuple:
    config = ctx.config
    n_dyn = min(config.N or 64, 512)
    x = _make_vector(x_spec, n_dyn, ctx)
    ks = tuple(range(1, min(config.K, 5) + 1))
    entries = []
    mism = []
    M = max(max(ms), 10)
    trace = power_iterate(x, max(M, min(n_dyn, 32)), w=ctx.weights, ks=ks)
    for m in ms:
        final = trace.vectors[m]
        entry = {"m": m, "head": list(final.prefix(8).values),
                 "seminorms": trace.seminorms[m][1]}
        if m <= 5 and n_dyn <= 40:
            diff = float(np.max(np.abs(
                iterate_via_kernel(x, m).as_float().astype(complex)
                - final.as_float().astype(complex))))
            entry["kernel_max_diff"] = diff
            if diff > 1e-8:
                mism.append(f"dynamics[m={m}]: kernel and iterated-mean "
                            f"routes disagree by {diff:.3e}")
        entries.append(entry)

    sups = [{"m": m, "sup": gm_sup(m)} for m in sorted(set(ms))]

    exact_ok = x.exact and ctx.seq.exact_values(1) is not None
    bound = power_bound_check(ctx.weights, trace, K=len(ks), M=M,
                              mode="rational" if exact_ok else "float")
    if bound.outcome == FAILS:
        mism.append("dynamics: seminorm contraction under averaging violated")
    limit = iterate_limit_check(x, tol=config.tol or 1e-6)
    if limit.outcome == FAILS:
        mism.append("dynamics: iterates failed to settle at the first "
                    "coordinate")
    ergodic = ergodic_decomposition_check(ctx.seq, x)
    if ergodic.outcome == FAILS:
        mism.append("dynamics: mean-ergodic splitting failed to reconstruct")

    means = cesaro_means(trace, nmax=min(n_dyn, 32), w=ctx.weights, ks=ks)
    last_gap = None
    if means.distances:
        step, gaps = means.distances[-1]
        last_gap = {"n": step, "gaps": gaps}
    payload = {
        "x": x_spec, "N": n_dyn, "iterates": entries, "density_sups": sups,
        "seminorm_contraction": bound, "pointwise_limit": limit,
        "ergodic_decomposition": ergodic, "means_final_distance": last_gap,
    }
    return payload, mism


def _run_suite(ctx: _RunContext) -> tuple:
    """Deterministic battery over the whole generator gallery plus algebra."""
    mism = []
    rows = []
    for spec_str in GALLERY_SPECS:
        seq = parse_alpha(spec_str)
        prof = classify_space(seq)
        rep = predict_spectra(prof)
        rows.append({
            "alpha": spec_str,
            "nuclear": prof.nuclear.outcome,
            "v_alpha": prof.v_alpha.outcome,
            "v_alpha_value": prof.v_alpha_value,
            "shift_stable": prof.shift_stable.outcome,
            "s1_nonempty": prof.s1_nonempty.outcome,
            "inverse_continuous": prof.inverse_continuous.outcome,
            "d_continuous": prof.d_continuous.outcome,
            "delta_continuous": prof.delta_continuous.outcome,
            "sigma_pt": rep.sigma_pt.kind,
            "sigma": rep.sigma.kind,
            "sigma_star": rep.sigma_star.kind,
            "warnings": prof.warnings,
        })
        mism.extend(f"suite[{spec_str}]: {w}" for w in prof.warnings)

    algebra = {}

    def check(name: str, ok: bool, detail: str):
        algebra[name] = bool(ok)
        if not ok:
            mism.append(f"suite algebra[{name}]: {detail}")

    n_alg = 20
    check("difference_involution",
          ops_equal_exact(delta(n_alg) @ delta(n_alg), identity(n_alg)),
          "double forward difference is not the identity")
    check("ab_inverse_pair",
          ops_equal_exact(a_matrix(n_alg) @ b_matrix(n_alg), identity(n_alg)),
          "shifted-difference pair is not mutually inverse")
    x3 = basis_vector(3, 30)
    back = cesaro_inverse_apply(cesaro_apply(x3))
    check("mean_roundtrip",
          all(back.values[i] == x3.values[i] for i in range(back.valid_len)),
          "inverse mean does not undo the mean")
    vec = delta_eigenvector(3, 40)
    check("eigenpair_m3", _is_eigenpair(cesaro(40).apply(vec), vec, 3),
          "m=3 eigenvector relation broken")
    res = resolvent(2.0, 30, mode="float").dense()
    shifted = cesaro(30, mode="float").dense() - 2.0 * np.eye(30)
    worst = max(float(np.max(np.abs(res @ shifted - np.eye(30)))),
                float(np.max(np.abs(shifted @ res - np.eye(30)))))
    check("resolvent_identity", worst <= 1e-12,
          f"two-sided inverse defect {worst:.3e} at lambda=2")

    linear = parse_alpha("linear")
    log2 = parse_alpha("log:beta=2")
    spots = {
        "noncompact_linear": noncompactness_witness(linear),
        "banach_step_psum": banach_step_compactness(parse_alpha("psum:beta=1/2")),
        "resolvent_point_linear_2": verify_resolvent_point(linear, 2.0),
        "resolvent_scan_log2_04": resolvent_point_profile(log2, 0.4),
        "envelope_lambda_2": boun_bounds_fit(2.0)[2],
    }
    expected = {
        "noncompact_linear": HOLDS,
        "banach_step_psum": HOLDS,
        "resolvent_point_linear_2": HOLDS,
        "resolvent_scan_log2_04": FAILS,
        "envelope_lambda_2": HOLDS,
    }
    for name, verdict in spots.items():
        if verdict.outcome not in (expected[name], "inconclusive"):
            mism.append(f"suite spot[{name}]: expected {expected[name]}, "
                        f"got {verdict.outcome}")

    e1 = basis_vector(1, 20)
    diff = float(np.max(np.abs(
        iterate_via_kernel(e1, 2).as_float()
        - power_iterate(e1, 2).final().as_float())))
    check("kernel_route_m2", diff <= 1e-8,
          f"kernel and mean routes differ by {diff:.3e}")
    sups = [gm_sup(m) for m in range(1, 11)]
    check("density_sups_decreasing",
          all(a > b for a, b in zip(sups, sups[1:])),
          "density sup sequence is not strictly decreasing")
    bound = power_bound_check(linear, basis_vector(1, 24), K=3, M=20,
                              mode="rational")
    if bound.outcome == FAILS:
        mism.append("suite: exact seminorm contraction violated")
    ergodic = ergodic_decomposition_check(
        linear, CoordinateVector(ctx.rng.uniform(-1.0, 1.0, size=24)))
    if ergodic.outcome == FAILS:
        mism.append("suite: mean-ergodic splitting failed on float input")

    payload = {"gallery": rows, "algebra": algebra,
               "spots": {k: v for k, v in spots.items()},
               "seminorm_contraction": bound,
               "ergodic_decomposition": ergodic}
    return payload, mism


def run(config: AnalysisConfig) -> Report:
    """Execute the configured experiments in declared order."""
    _check_config(config)
    ctx = _RunContext(config)
    results = []
    wall_times = []
    mismatches: list = []
    for token in config.experiments:
        name, inline = parse_experiment_token(token)
        started = time.perf_counter()
        if name == "profile":
            payload, mism = _run_profile(ctx)
        elif name == "spectrum":
            payload, mism = _run_spectrum(ctx)
        elif name == "resolvent":
            payload, mism = _run_resolvent(ctx, inline or config.lambdas)
        elif name == "eigenpairs":
            payload, mism = _run_eigenpairs(ctx, inline or config.ms)
        elif name == "dynamics":
            x_spec, ms = inline if inline else (config.x, None)
            payload, mism = _run_dynamics(ctx, x_spec, ms or config.ms)
        else:
            payload, mism = _run_suite(ctx)
        wall_times.append((token, time.perf_counter() - started))
        results.append((token, payload))
        for item in mism:
            if item not in mismatches:
                mismatches.append(item)

    echo = {_field_key(f.name): getattr(config, f.name)
            for f in fields(config)}
    versions = {
        "cesarospec": __version__,
        "numpy": np.__version__,
        "python": ".".join(str(p) for p in sys.version_info[:3]),
    }
    return Report(SCHEMA_VERSION, echo, tuple(results), tuple(mismatches),
                  versions, tuple(wall_times))


# -- emission ---------------------------------------------------------------------


def _report_tree(report: Report, include_timings: bool) -> dict:
    tree = {
        "schema_version": report.schema_version,
        "config": report.config,
        "results": [{"experiment": token, "data": payload}
                    for token, payload in report.results],
        "mismatches": list(report.mismatches),
        "versions": report.versions,
    }
    if include_timings:
        tree["wall_times"] = [
            {"experiment": token, "seconds": seconds}
            for token, seconds in report.wall_times
        ]
    return tree


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def _flatten_tree(node, path: str, rows: list) -> None:
    if isinstance(node, dict):
        for key in node:
            _flatten_tree(node[key], f"{path}.{key}" if path else str(key), rows)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _flatten_tree(item, f"{path}.{i}", rows)
    else:
        rows.append((path, _csv_cell(node)))


def emit(report: Report, fmt: str = "json", include_timings: bool = False) -> bytes:
    """Render the report as canonical JSON or flattened path,value CSV."""
    tree = _report_tree(report, include_timings)
    if fmt == "json":
        return dumps_json(tree).encode()
    if fmt != "csv":
        raise UsageError(f"bad output format {fmt!r}; expected json or csv")
    rows: list = []
    _flatten_tree(jsonable(tree), "", rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("path", "value"))
    writer.writerows(rows)
    return buf.getvalue().encode()


# -- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesarospec",
        description="Run averaging-operator experiments on a power-series "
                    "space and emit a deterministic report.",
    )
    parser.add_argument("--alpha", help="exponent generator, e.g. linear, "
                        "power:beta=2, log:beta=2, table:[1,2,3]")
    parser.add_argument("--N", type=int, help="working resolution")
    parser.add_argument("--K", type=int, help="number of weight levels")
    parser.add_argument("--kmax", type=int,
                        help="weight levels scanned by resolvent checks")
    parser.add_argument("--experiments", nargs="+", metavar="EXPR",
                        help="experiment tokens: profile, spectrum, "
                        "resolvent[:l1,l2,...], eigenpairs[:m1,m2,...], "
                        "dynamics[:x[,m1,m2,...]], suite")
    parser.add_argument("--lambda", dest="lambdas", metavar="L1,L2,...",
                        help="resolvent points as complex literals a+bi")
    parser.add_argument("--m", dest="ms", metavar="M1,M2,...",
                        help="eigenpair indices / iteration counts")
    parser.add_argument("--tol", type=float, help="tolerance override")
    parser.add_argument("--seed", type=int, help="seed for sampled vectors")
    parser.add_argument("--x", help="dynamics starting vector: e<j>, ones, "
                        "random")
    parser.add_argument("--output", choices=("json", "csv"),
                        help="report format (default json)")
    parser.add_argument("--out", help="output file; relative paths resolve "
                        f"under ${OUT_DIR_ENV} when it is set")
    parser.add_argument("--config", help="JSON config file; flags override")
    parser.add_argument("--include-timings", action="store_true",
                        help="embed wall-clock timings (breaks byte-level "
                        "reproducibility)")
    return parser


def _resolve_out(out: str) -> Path:
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        config, delivery = assemble_config(ns)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PreconditionError as err:
        print(f"error: bad input combination: {err}", file=sys.stderr)
        return 2
    data = emit(report, config.output, delivery["include_timings"])
    if delivery["out"]:
        path = _resolve_out(delivery["out"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    for item in report.mismatches:
        print(f"mismatch: {item}", file=sys.stderr)
    return 1 if report.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder installed from outside the package, and the per-layer metrics.

A ``from .x import y`` statement binds a separate name in every importing
module, and each caller resolves the function through its own module's
globals.  ``Recorder.install`` therefore replaces every binding of a target
function in every loaded ``cesarospec`` module (and class attributes for
methods) with one shared wrapper, so that a call is seen whichever module
makes it.  Nothing under ``src/`` is edited.

Spans are kept in memory as ``[name, start, end, parent, note]`` lists and
written out once, after the timed pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Span name prefix -> (module, attribute names).  A dotted attribute
# ``Class.method`` wraps the method on the class.
TARGETS = {
    "criteria": ("cesarospec.criteria", (
        "classify_space", "delta_continuity_check", "inverse_continuity_check",
        "d_continuity_check", "_log_pascal", "koethe_continuity_check",
        "banach_step_compactness", "noncompactness_witness",
    )),
    "exact": ("cesarospec.exact", (
        "sign_minus_exp", "compare_weighted", "weighted_argmax",
        "compare_seminorms",
    )),
    "operators": ("cesarospec.operators", (
        "identity", "cesaro", "delta", "resolvent", "a_matrix", "b_matrix",
        "scaled_e_matrix", "cesaro_apply", "cesaro_inverse_apply",
        "differentiation_apply", "delta_eigenvector",
        "TruncOperator.__init__", "TruncOperator.apply",
        "TruncOperator.compose", "TruncOperator.dense",
        "TruncOperator.as_float_entries", "TruncOperator.log_abs",
    )),
    "dynamics": ("cesarospec.dynamics", (
        "power_iterate", "kernel_matrix", "iterate_via_kernel", "gm_sup",
        "cesaro_means", "power_bound_check", "iterate_limit_check",
        "ergodic_decomposition_check",
    )),
    "spectral": ("cesarospec.spectral", (
        "predict_spectra", "eigenvector_membership", "verify_resolvent_point",
        "resolvent_point_profile", "boun_bounds_fit", "disc_report",
    )),
    "sequences": ("cesarospec.sequences", (
        "parse_alpha", "default_resolution", "seminorm", "nuclearity_check",
        "v_alpha", "shift_stability_check", "n_over_alpha_check",
        "sk_convergence", "s0_estimate",
        "AlphaSequence.values", "AlphaSequence.values_saturated",
        "AlphaSequence.exact_values", "AlphaSequence.alpha_at",
        "AlphaSequence.tail_probes", "WeightSystem.log_w", "WeightSystem.w",
    )),
    "trend": ("cesarospec.trend", (
        "ladder", "classify_limit", "limit_verdict_zero",
        "limit_verdict_positive", "classify_sup", "sup_verdict_bounded",
    )),
    "cli": ("cesarospec.cli", ("run", "emit")),
    "serialize": ("cesarospec.serialize", ("dumps_json",)),
}

DENSE_BUILDERS = ("identity", "cesaro", "delta", "resolvent", "a_matrix",
                  "b_matrix", "scaled_e_matrix")
DENSE_APPLIES = ("apply", "compose", "dense", "as_float_entries", "log_abs")
ITERATES = ("power_iterate", "iterate_via_kernel", "cesaro_means",
            "iterate_limit_check")


def _interval_branch(args, kwargs, result):
    """True when sign_minus_exp reached its interval-arithmetic loop."""
    p, u = args[0], args[1]
    return bool(p > 0 and u != 0)


def _entries(args, kwargs, result):
    return args[0].N ** 2


def _byte_count(args, kwargs, result):
    return len(result)


NOTES = {
    "exact.sign_minus_exp": _interval_branch,
    "operators.TruncOperator.__init__": _entries,
    "cli.emit": _byte_count,
}


class Recorder:
    """Owns the span list and the originals it replaced."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self.kernel_matrix = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "cesarospec" or key.startswith("cesarospec.")]
        for layer, (modname, attrs) in TARGETS.items():
            home = sys.modules[modname]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    fn = cls.__dict__[meth]
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, fn))
                    continue
                fn = getattr(home, attr)
                if attr == "kernel_matrix":
                    self.kernel_matrix = fn
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._restore.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, kernel_cache_misses: int) -> tuple:
    """Per-layer times and counts from one pass's spans.

    Returns (times, counts): times vary from run to run, counts must not.
    A ``<function>_s`` time is inclusive and counts only outermost calls;
    ``<layer>.s`` is the self time of all the layer's spans (duration minus
    the direct child spans).
    """
    n = len(spans)
    child_time = [0.0] * n
    children: list = [[] for _ in range(n)]
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    def has_ancestor(i: int, names) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def outer(*names) -> float:
        """Inclusive time of the named spans, outermost calls only."""
        names = set(names)
        return sum((s[2] - s[1] for i, s in enumerate(spans)
                   if s[0] in names and not has_ancestor(i, names)), 0.0)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    def self_time(prefix: str) -> float:
        """Duration minus direct child spans, over spans named prefix*."""
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                   if s[0].startswith(prefix))

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    delta_name = {"criteria.delta_continuity_check"}
    delta_pairs = sum(1 for i, s in enumerate(spans)
                      if s[0] == "trend.sup_verdict_bounded"
                      and has_ancestor(i, delta_name))
    delta_s = outer("criteria.delta_continuity_check")

    sme_calls = calls("exact.sign_minus_exp")
    sme_s = outer("exact.sign_minus_exp")
    cw = [i for i, s in enumerate(spans) if s[0] == "exact.compare_weighted"]
    escalated = sum(1 for i in cw if any(
        spans[c][0] == "exact.sign_minus_exp" and spans[c][4]
        for c in children[i]))

    times = {
        "criteria.classify_space_s": outer("criteria.classify_space"),
        "criteria.delta_continuity_s": delta_s,
        "criteria.delta_pair_ms": ratio(delta_s, delta_pairs, 1e3),
        "criteria.window_scans_s": outer("criteria.inverse_continuity_check",
                                         "criteria.d_continuity_check"),
        "criteria.log_pascal_s": outer("criteria._log_pascal"),
        "exact.sign_minus_exp_s": sme_s,
        "exact.sign_minus_exp_us": ratio(sme_s, sme_calls, 1e6),
        "operators.dense_build_s": outer(
            *(f"operators.{f}" for f in DENSE_BUILDERS)),
        "operators.dense_apply_s": outer(
            *(f"operators.TruncOperator.{f}" for f in DENSE_APPLIES)),
        "operators.cesaro_apply_s": outer("operators.cesaro_apply"),
        "dynamics.ergodic_s": outer("dynamics.ergodic_decomposition_check"),
        "dynamics.power_bound_check_s": self_time("dynamics.power_bound_check"),
        "dynamics.iterates_s": outer(*(f"dynamics.{f}" for f in ITERATES)),
        "dynamics.kernel_matrix_s": outer("dynamics.kernel_matrix"),
        "spectral.s": self_time("spectral."),
        "sequences.s": self_time("sequences."),
        "trend.s": self_time("trend."),
        "cli.emit_s": outer("cli.emit"),
    }
    counts = {
        "criteria.delta_pairs": delta_pairs,
        "exact.sign_minus_exp_calls": sme_calls,
        "exact.compare_weighted_calls": len(cw),
        "exact.compare_seminorms_calls": calls("exact.compare_seminorms"),
        "exact.trivial_share": ratio(len(cw) - escalated, len(cw)),
        "operators.dense_builds": calls("operators.TruncOperator.__init__"),
        "operators.dense_entries": sum(
            s[4] for s in spans if s[0] == "operators.TruncOperator.__init__"),
        "operators.cesaro_apply_calls": calls("operators.cesaro_apply"),
        "dynamics.kernel_cache_misses": kernel_cache_misses,
        "spectral.resolvent_points": calls("spectral.verify_resolvent_point"),
        "sequences.calls": sum(1 for s in spans
                               if s[0].startswith("sequences.")),
        "trend.sup_verdict_calls": calls("trend.sup_verdict_bounded"),
        "cli.report_bytes": sum(s[4] for s in spans if s[0] == "cli.emit"),
    }
    return times, counts

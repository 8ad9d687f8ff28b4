"""Spans and counts recorded around the program's public functions.

The traced run replaces selected functions with timing wrappers in the
namespaces the program resolves them from, so the program itself is not
edited.  Each wrapper records a span (name, start, end, parent span, op id)
or only bumps a counter for functions called too often for a span.  Spans
stay in memory and are written out when the op ends; ``layer_metrics``
turns them into the per-layer metrics.

A span name is ``<layer>.<function>``; the layer is the program module the
work belongs to, which is not always the namespace patched (``load_csv`` is
patched in ``fairbound.cli`` but is dataset work).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

# (namespace, attribute, span name).  Span wrappers time the call.
SPANS = (
    ("fairbound.experiment", "load_csv", "dataset.load_csv"),
    ("fairbound.cli", "load_csv", "dataset.load_csv"),
    ("fairbound.experiment", "synthesize", "dataset.synthesize"),
    ("fairbound.experiment", "split", "dataset.split"),
    ("fairbound.cli", "load_model", "model.io"),
    ("fairbound.cli", "save_model", "model.io"),
    ("fairbound.experiment", "fit_erm", "trainer.fit_erm"),
    ("fairbound.cli", "fit_erm", "trainer.fit_erm"),
    ("fairbound.experiment", "output_perturb", "privacy.output_perturb"),
    ("fairbound.cli", "output_perturb", "privacy.output_perturb"),
    ("fairbound.experiment", "dpsgd", "privacy.dpsgd"),
    ("fairbound.cli", "dpsgd", "privacy.dpsgd"),
    ("fairbound.experiment", "coefficients", "fairness.coefficients"),
    ("fairbound.cli", "coefficients", "fairness.coefficients"),
    ("fairbound.experiment", "group_fairness_all", "fairness.group_fairness_all"),
    ("fairbound.cli", "group_fairness_all", "fairness.group_fairness_all"),
    ("fairbound.bounds", "theorem3_report", "bounds.theorem3_report"),
    ("fairbound.bounds", "bound_report", "bounds.bound_report"),
    ("fairbound.bounds", "margin_profile", "bounds.margin_profile"),
    ("fairbound.bounds", "refined_lipschitz_profile", "bounds.margin_profile"),
    ("fairbound.experiment", "finite_sample_slacks", "finite_sample.slacks"),
)

# (namespace, attribute, counter name).  Counting wrappers take no time stamp.
COUNTS = (
    ("fairbound.trainer", "objective_gradient", "trainer.grad_evals"),
    ("fairbound.privacy", "gradient", "privacy.sgd_steps"),
    ("fairbound.bounds", "chernoff_term_bound", "bounds.chernoff_solves"),
)

# Counts that depend only on the inputs, so they repeat exactly per op.
DETERMINISTIC = (
    "trainer.grad_evals",
    "privacy.sgd_steps",
    "bounds.chernoff_solves",
    "fairness.group_fairness_all.calls",
)

LAYERS = (
    "dataset", "model", "trainer", "privacy", "fairness",
    "bounds", "finite_sample", "experiment", "cli",
)


class Recorder:
    """In-memory spans and counters of one op."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._fit_digests: set[str] = set()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def note_fit(self, d, lam, tol) -> None:
        """Count ERM solves that repeat an earlier (train set, lambda, tol)."""
        h = hashlib.sha256()
        for arr in (getattr(d, "features", None), getattr(d, "labels", None)):
            if arr is not None:
                h.update(arr.tobytes())
        h.update(repr((lam, tol)).encode())
        key = h.hexdigest()
        if key in self._fit_digests:
            self.add("trainer.fit_erm.repeats")
        self._fit_digests.add(key)

    def dump(self) -> dict:
        return {"op_id": self.op_id, "spans": self.spans, "counts": self.counts}


def _span_wrapper(rec: Recorder, name: str, fn):
    if name == "trainer.fit_erm":
        @functools.wraps(fn)
        def fit_wrapper(d, lam, *args, **kwargs):
            rec.note_fit(d, lam, kwargs.get("tol", args[0] if args else None))
            return rec.span(name, fn, d, lam, *args, **kwargs)
        return fit_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.span(name, fn, *args, **kwargs)
        if name == "dataset.load_csv":
            rec.add("dataset.load_csv.rows", result.n)
        elif name == "bounds.bound_report":
            rec.add("bounds.group_entries", len(result.entries))
        return result
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(name)
        return fn(*args, **kwargs)
    return wrapper


def install(rec: Recorder) -> list[str]:
    """Patch every listed function; returns the names found missing, which
    are then reported with a count of 0."""
    missing = []
    for table, make in ((SPANS, _span_wrapper), (COUNTS, _count_wrapper)):
        for namespace, attr, name in table:
            try:
                module = importlib.import_module(namespace)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{namespace}.{attr}")
                continue
            setattr(module, attr, make(rec, name, fn))
    return missing


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def op_summary(dump: dict) -> dict[str, float]:
    """Raw per-op totals: seconds and calls per span name, self seconds per
    layer, and the counters."""
    spans = dump["spans"]
    out: dict[str, float] = dict(dump["counts"])
    for s, own in zip(spans, self_times(spans)):
        name = s[0]
        out[name + ".s"] = out.get(name + ".s", 0.0) + (s[2] - s[1])
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        layer = name.split(".", 1)[0] + ".self_s"
        out[layer] = out.get(layer, 0.0) + own
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics of the result line, name -> unit: counts and ratios,
# each layer's share of traced op time, and times of functions that every
# workload calls.
REPORTED = {
    "trainer.fit_erm.calls": "count",
    "trainer.grad_evals": "count",
    "trainer.fit_erm.repeat_ratio": "fraction",
    "privacy.sgd_steps": "count",
    "privacy.releases": "count",
    "fairness.group_fairness_all.s": "s",
    "fairness.group_fairness_all.calls": "count",
    "fairness.evals_per_release": "count",
    "fairness.coefficients.s": "s",
    "bounds.theorem3_report.s": "s",
    "bounds.bound_report.s": "s",
    "bounds.bound_report.calls": "count",
    "bounds.margin_profile.s": "s",
    "bounds.chernoff_solves": "count",
    "bounds.ms_per_group_entry": "ms",
    "dataset.load_csv.calls": "count",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in ("dataset", "privacy", "fairness", "bounds")},
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
    "trace_overhead_frac": "fraction",
}

# Times of functions that some workload never calls.  There they read
# exactly 0 on every run, so they are printed but kept out of the result line.
PRINTED = {
    "trainer.fit_erm.s": "s",
    "privacy.dpsgd.s": "s",
    "privacy.us_per_sgd_step": "us",
    "privacy.output_perturb.s": "s",
    "dataset.load_csv.s": "s",
    "dataset.load_csv.rows_per_s": "1/s",
    "dataset.synthesize.s": "s",
    "dataset.split.s": "s",
    "model.io.s": "s",
    "finite_sample.slacks.s": "s",
    "cli.privatize.s": "s",
    "cli.audit.s": "s",
    "cli.bound.s": "s",
    "experiment.run_experiment.s": "s",
    **{f"{layer}.self_s": "s" for layer in ("trainer", "model", "finite_sample", "experiment", "cli")},
}


def layer_metrics(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Per-op means of the per-layer metrics over the traced ops."""
    n = max(len(summaries), 1)
    total: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0.0) + value
    mean = {key: value / n for key, value in total.items()}
    get = lambda key: mean.get(key, 0.0)  # noqa: E731
    releases = get("privacy.output_perturb.calls") + get("privacy.dpsgd.calls")
    derived = {
        "trainer.fit_erm.repeat_ratio": _ratio(get("trainer.fit_erm.repeats"), get("trainer.fit_erm.calls")),
        "privacy.us_per_sgd_step": 1e6 * _ratio(get("privacy.dpsgd.s"), get("privacy.sgd_steps")),
        "privacy.releases": releases,
        "fairness.evals_per_release": _ratio(get("fairness.group_fairness_all.calls"), releases),
        "bounds.ms_per_group_entry": 1e3 * _ratio(get("bounds.bound_report.s"), get("bounds.group_entries")),
        "dataset.load_csv.rows_per_s": _ratio(get("dataset.load_csv.rows"), get("dataset.load_csv.s")),
    }
    busy = sum(get(f"{layer}.self_s") for layer in LAYERS)
    derived.update({f"{layer}.self_share": _ratio(get(f"{layer}.self_s"), busy) for layer in LAYERS})
    return {
        name: derived[name] if name in derived else get(name)
        for name in {**REPORTED, **PRINTED}
        if name not in ("cli.import_s", "trace_overhead_frac")
    }


def largest_self_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics.get(f"{layer}.self_s", 0.0))

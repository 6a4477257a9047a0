"""In-memory span tracer for kantcheck's layers.

The tracer wraps functions in the benchmark's own process; nothing inside
the package changes.  Each wrapped call records one span (name, layer,
parent, start, end) in a list held in memory.  The package imports names
with ``from .x import f``, so a function lives in several module
namespaces at once: ``install`` rebinds every namespace that holds it and
``uninstall`` puts every original back.  ``numpy.linalg`` functions are
looked up at call time, so the ``linalg`` layer wraps them in place.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from kantcheck.campaign import ALL_SUITES

LAYERS = ("campaign", "generators", "verifiers", "hermitian", "posmaps", "constants", "sweep")
LINALG_FUNCTIONS = ("eigh", "eigvalsh", "qr")
FUNCALC = frozenset({"apply_scalar_function", "matrix_power", "matrix_log", "matrix_exp",
                     "superlog_bound"})
ORACLES = frozenset({"grid_max_1d", "alpha_ratio", "beta_generic"})
CLOSED_FORMS = frozenset({"kantorovich_K", "kantorovich_K2", "kantorovich_C", "kantorovich_C2",
                          "beta_power_closed"})

# Span fields.
NAME, LAYER, PARENT, START, END, RAISED, TAG = range(7)
_ABSENT = object()


class Tracer:
    """Records one span per wrapped call and restores every patch it made."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._decomposed: set = set()
        self.repeat_eigs = 0

    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, self._stack[-1] if self._stack else -1,
                time.perf_counter_ns(), 0, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(span, args, result)``
        runs after a call that returned."""

        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                self._close(span)
            if observe is not None:
                observe(self, span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr, _ABSENT)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(namespace, attr)
            else:
                setattr(namespace, attr, original)

    def traced_open(self, layer: str):
        """An ``open`` whose ``with`` block is one span named ``write<suffix>``."""
        tracer = self

        class _Handle:
            def __init__(self, path, *args, **kwargs):
                self._span = tracer._open("write" + Path(path).suffix, layer)
                self._file = open(path, *args, **kwargs)

            def __enter__(self):
                return self._file.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._file.__exit__(*exc)
                finally:
                    tracer._close(self._span)

        return _Handle

    def nesting_errors(self) -> list:
        """Spans left open, or not inside the span that called them."""
        errors = [f"{len(self._stack)} spans still open"] if self._stack else []
        for index, span in enumerate(self.spans):
            if span[END] < span[START]:
                errors.append(f"span {index} {span[NAME]} ends before it starts")
            parent = span[PARENT]
            if parent >= 0:
                outer = self.spans[parent]
                if not (outer[START] <= span[START] and span[END] <= outer[END]):
                    errors.append(f"span {index} {span[NAME]} escapes its parent {outer[NAME]}")
        return errors[:20]

    def write(self, path) -> None:
        names = sorted({(s[LAYER], s[NAME]) for s in self.spans})
        index = {key: i for i, key in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns", "raised"],
                       "names": [f"{layer}.{name}" for layer, name in names],
                       "spans": [[index[(s[LAYER], s[NAME])], s[PARENT], s[START], s[END],
                                  int(s[RAISED])] for s in self.spans]},
                      handle, separators=(",", ":"))


def _observe_run_cell(tracer, span, args, result) -> None:
    span[TAG] = args[1].suite


def _observe_check(tracer, span, args, result) -> None:
    links = result.links
    span[TAG] = (result.theorem_id, len(links), sum(lk.tight for lk in links),
                 sum(not lk.holds for lk in links))
    tracer._decomposed.clear()


def _observe_eig(tracer, span, args, result) -> None:
    arr = np.asarray(args[0], dtype=complex)
    key = (arr.shape, hashlib.blake2b(arr.tobytes(), digest_size=16).digest())
    if key in tracer._decomposed:
        tracer.repeat_eigs += 1
    else:
        tracer._decomposed.add(key)


def _observer(layer: str, name: str):
    if name == "run_cell":
        return _observe_run_cell
    if layer == "verifiers" and name.startswith("check_"):
        return _observe_check
    if name == "eig_hermitian":
        return _observe_eig
    return None


def install(tracer: Tracer) -> None:
    """Wrap every public function of the kantcheck layers and numpy's eigensolvers."""
    modules = {layer: importlib.import_module(f"kantcheck.{layer}") for layer in LAYERS}
    namespaces = [mod for name, mod in sorted(sys.modules.items())
                  if name == "kantcheck" or name.startswith("kantcheck.")]
    for layer, module in modules.items():
        for name, fn in list(vars(module).items()):
            public = not name.startswith("_") and inspect.isfunction(fn)
            if not public or fn.__module__ != module.__name__:
                continue
            wrapper = tracer.wrap(layer, name, fn, _observer(layer, name))
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        tracer.patch(namespace, attr, wrapper)
    for name in LINALG_FUNCTIONS:
        tracer.patch(np.linalg, name, tracer.wrap("linalg", name, getattr(np.linalg, name)))
    # The sweep writes its CSV inline; an ``open`` in its namespace times that block.
    tracer.patch(modules["sweep"], "open", tracer.traced_open("sweep"))


def bindings() -> dict:
    """Current bindings of every attribute ``install`` may touch."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "kantcheck" or name.startswith("kantcheck."):
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    out[(name, attr)] = (module, attr, value)
            out[(name, "open")] = (module, "open", getattr(module, "open", _ABSENT))
    for attr in LINALG_FUNCTIONS:
        out[("numpy.linalg", attr)] = (np.linalg, attr, getattr(np.linalg, attr))
    return out


def changed_bindings(before: dict) -> list:
    """Attributes whose binding differs from the ``bindings()`` taken before."""
    return [f"{module}.{attr}" for (module, attr), (namespace, _, value) in before.items()
            if getattr(namespace, attr, _ABSENT) is not value]


def _suite_of(spans: list, index: int) -> str | None:
    while index >= 0:
        span = spans[index]
        if span[NAME] == "run_cell":
            return span[TAG]
        index = span[PARENT]
    return None


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans, plus per-suite eigensolve counts."""
    spans = tracer.spans
    dur = [(s[END] - s[START]) / 1e9 for s in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            covered[span[PARENT]] += dur[i]
    self_s = Counter()
    entries = Counter()
    failed_entries = Counter()
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        layer = span[LAYER]
        self_s[layer] += dur[i] - covered[i]
        by_name[span[NAME]].append(i)
        parent = span[PARENT]
        if parent < 0 or spans[parent][LAYER] != layer:
            entries[layer] += 1
            failed_entries[layer] += int(span[RAISED])

    def total(names, outermost_of=None) -> tuple[int, float]:
        count, seconds = 0, 0.0
        for name in names:
            for i in by_name.get(name, ()):
                parent = spans[i][PARENT]
                if outermost_of and parent >= 0 and spans[parent][NAME] in outermost_of:
                    continue
                count += 1
                seconds += dur[i]
        return count, seconds

    checks = [i for i, s in enumerate(spans)
              if s[LAYER] == "verifiers" and s[TAG] is not None]
    check_us = defaultdict(list)
    for i in checks:
        check_us[spans[i][TAG][0]].append(dur[i] * 1e6)
    n_checks = len(checks)
    cells_ms = [dur[i] * 1e3 for i in by_name.get("run_cell", ())]
    certify = sum(dur[i] for i, s in enumerate(spans)
                  if s[LAYER] == "hermitian" and s[PARENT] >= 0
                  and spans[s[PARENT]][LAYER] == "generators")
    eigh, _ = total(["eigh"])
    eigvalsh, _ = total(["eigvalsh"])
    eig_calls, _ = total(["eig_hermitian"])
    loewner = total(["loewner_leq"])
    funcalc = total(FUNCALC)
    oracle = total(ORACLES, ORACLES)
    closed = total(CLOSED_FORMS, CLOSED_FORMS)
    linalg_s = sum(dur[i] for i, s in enumerate(spans) if s[LAYER] == "linalg")
    write_s = sum(dur[i] for i in by_name.get("write.csv", ()))
    svg_s = sum(dur[i] for i in by_name.get("svg_line_chart", ()))

    metrics = {
        "campaign.self_s": self_s["campaign"],
        "campaign.cell_ms_p50": statistics.median(cells_ms) if cells_ms else 0.0,
        "campaign.cell_ms_max": max(cells_ms, default=0.0),
        "generators.calls": entries["generators"],
        "generators.self_s": self_s["generators"],
        "generators.certify_s": certify,
        "generators.failed": failed_entries["generators"],
        "verifiers.checks": n_checks,
        "verifiers.links": sum(spans[i][TAG][1] for i in checks),
        "verifiers.tight_links": sum(spans[i][TAG][2] for i in checks),
        "verifiers.failed_links": sum(spans[i][TAG][3] for i in checks),
        "verifiers.self_s": self_s["verifiers"],
    }
    for suite in ALL_SUITES:
        values = check_us.get(suite)
        metrics[f"verifiers.{suite}.us_per_check"] = statistics.fmean(values) if values else 0.0
    metrics.update({
        "hermitian.self_s": self_s["hermitian"],
        "hermitian.loewner_calls": loewner[0],
        "hermitian.loewner_s": loewner[1],
        "hermitian.funcalc_calls": funcalc[0],
        "hermitian.funcalc_s": funcalc[1],
        "hermitian.require_hermitian_calls": total(["require_hermitian"])[0],
        "hermitian.repeat_eig_share": tracer.repeat_eigs / eig_calls if eig_calls else 0.0,
        "posmaps.calls": entries["posmaps"],
        "posmaps.self_s": self_s["posmaps"],
        "constants.oracle_calls": oracle[0],
        "constants.oracle_s": oracle[1],
        "constants.closed_form_s": closed[1],
        "sweep.write_s": write_s,
        "sweep.svg_s": svg_s,
        "linalg.eigh_calls": eigh,
        "linalg.eigvalsh_calls": eigvalsh,
        "linalg.eigensolves_per_check": (eigh + eigvalsh) / n_checks if n_checks else 0.0,
        "linalg.s": linalg_s,
    })

    solves = defaultdict(lambda: [0, 0])
    for name, slot in (("eigh", 0), ("eigvalsh", 1)):
        for i in by_name.get(name, ()):
            suite = _suite_of(spans, i)
            if suite is not None:
                solves[suite][slot] += 1
    per_check = {suite: [solves[suite][0] / len(values), solves[suite][1] / len(values)]
                 for suite, values in check_us.items()}
    return metrics, per_check

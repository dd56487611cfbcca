"""Span tracing of sideshap's layers, installed from outside the package.

A :class:`Tracer` replaces module-level functions and class methods of
``sideshap`` with wrappers that record one span per call: its name, start
and end (``perf_counter_ns``), the span that was open when it started, and
the operation id the benchmark set. Every module of the package that bound
the same function object at import (``from .checkpoint import
save_checkpoint``) is patched too, so a call through any name is seen.
:meth:`Tracer.uninstall` puts every original back.

Spans stay in memory until the traced section ends; :class:`SpanTable`
then derives self times and counts, and :func:`layer_metrics` the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

# Module-level functions wrapped in full: every public function the module
# defines itself. Span names are "<module>.<function>".
WHOLE_MODULES = ("shapley", "training", "evaluation", "checkpoint", "data")

# (module, attribute) pairs wrapped one by one. A dotted attribute is a
# method of a class defined in that module.
SINGLE_TARGETS = (
    ("autodiff", "gelu"),
    ("autodiff", "matmul"),
    ("autodiff", "softmax"),
    ("autodiff", "layer_norm"),
    ("autodiff", "Tensor.backward"),
    ("autodiff", "Optimizer.step"),
    ("transformer", "MaskedTransformer.block_states"),
    ("sidenet", "SideTunedModel.surrogate_logits"),
    ("sidenet", "SideTunedModel.explainer_raw"),
    ("sidenet", "CombinedModel.explain"),
    ("shapley", "Game.evaluate"),
    ("data", "SyntheticDataset.save"),
    ("data", "SyntheticDataset.load"),
    ("cli", "main"),
)


def _nbytes_of(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_matmul(args, kwargs, result):
    # multiply-accumulates: one per output element per contracted index
    a = args[0]
    return int(result.data.size) * int(a.shape[-1]), 0


def _count_gelu(args, kwargs, result):
    return int(args[0].data.size), 0


def _count_block_states(args, kwargs, result):
    # (token rows computed under a mask, kept tokens among them)
    tokens = np.asarray(args[1])
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    if mask is None:
        return 0, 0
    mask = np.asarray(mask)
    rows = tokens.shape[0] * tokens.shape[1] if tokens.ndim == 3 else tokens.shape[0]
    return int(rows), int(mask.sum())


def _count_batch_rows(args, kwargs, result):
    tokens = np.asarray(args[1])
    return (int(tokens.shape[0]) if tokens.ndim == 3 else 1), 0


def _count_game_rows(args, kwargs, result):
    masks = np.asarray(args[1])
    return (int(masks.shape[0]) if masks.ndim == 2 else 1), 0


def _count_file_bytes(args, kwargs, result):
    return _nbytes_of(args[0] if args else kwargs.get("path")), 0


COUNTERS = {
    "autodiff.matmul": _count_matmul,
    "autodiff.gelu": _count_gelu,
    "transformer.MaskedTransformer.block_states": _count_block_states,
    "sidenet.SideTunedModel.surrogate_logits": _count_batch_rows,
    "shapley.Game.evaluate": _count_game_rows,
    "checkpoint.load_checkpoint": _count_file_bytes,
    "checkpoint.save_checkpoint": _count_file_bytes,
}


class Tracer:
    """Records spans at sideshap's layer boundaries while installed."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one tuple per span: (name_id, t0, t1, parent, op, count_a, count_b)
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self._patched: list = []  # (owner, attribute, original) in patch order

    # -- spans ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                a = b = 0
                if counter is not None and returned:
                    a, b = counter(args, kwargs, result)
                spans[idx] = (name_id, t0, t1, parent, self.op, a, b)

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- install / uninstall --------------------------------------------
    def _package_modules(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def targets(self):
        """(span name, owner, attribute) for every entry point to wrap."""
        pkg = self.package.__name__
        out = []
        for short in WHOLE_MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out.append((f"{short}.{attr}", mod, attr))
        for short, dotted in SINGLE_TARGETS:
            mod = sys.modules[f"{pkg}.{short}"]
            owner = mod
            parts = dotted.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            name = f"{short}.{dotted}"
            if all(t[0] != name for t in out):
                out.append((name, owner, parts[-1]))
        return out

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._package_modules()
        try:
            for name, owner, attr in self.targets():
                if inspect.ismodule(owner):
                    original = getattr(owner, attr)
                    wrapper = self.wrap(name, original)
                    # every module namespace that bound this function object
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patched.append((mod, key, original))
                                setattr(mod, key, wrapper)
                else:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapper = staticmethod(self.wrap(name, raw.__func__))
                    else:
                        wrapper = self.wrap(name, raw)
                    self._patched.append((owner, attr, raw))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.uninstall()  # a renamed entry point must not leave half the wrappers
            raise

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at uninstall")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------
    def write(self, path, meta: dict):
        """Write every span as one row of a JSON table."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump({"meta": meta, "names": self.names,
                       "columns": ["name", "start_ns", "end_ns", "parent",
                                   "op", "count_a", "count_b"],
                       "spans": self.spans}, f, separators=(",", ":"))
        os.replace(tmp, path)


def is_traced(fn) -> bool:
    raw = fn.__func__ if isinstance(fn, staticmethod) else fn
    return getattr(raw, "__wrapped_by_tracer__", False)


class SpanTable:
    """Column view of finished spans with self times and ancestor lookups."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        rows = tracer.spans
        if any(r is None for r in rows):
            raise RuntimeError("unfinished span in trace")
        arr = np.array(rows, dtype=np.int64).reshape(-1, 7)
        self.name = arr[:, 0]
        self.t0 = arr[:, 1]
        self.t1 = arr[:, 2]
        self.parent = arr[:, 3]
        self.op = arr[:, 4]
        self.a = arr[:, 5]
        self.b = arr[:, 6]
        self.dur = self.t1 - self.t0
        child = np.zeros(len(arr), dtype=np.int64)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child

    def __len__(self):
        return len(self.name)

    def select(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def nearest_ancestor(self, candidates) -> np.ndarray:
        """Index of the nearest enclosing span named in ``candidates``, or -1."""
        ids = {self.names.index(c) for c in candidates if c in self.names}
        out = np.full(len(self), -1, dtype=np.int64)
        names, parents = self.name.tolist(), self.parent.tolist()
        for i, p in enumerate(parents):
            if p >= 0:  # parents open before their children, so p < i
                out[i] = p if names[p] in ids else out[p]
        return out

    def total_s(self, name: str) -> float:
        return float(self.dur[self.select(name)].sum()) / 1e9

    def self_s(self, name: str) -> float:
        return float(self.self_ns[self.select(name)].sum()) / 1e9

    def calls(self, name: str) -> int:
        return int(self.select(name).sum())

    def covered_ns(self) -> int:
        """Time inside root spans, which never overlap in one thread."""
        return int(self.dur[self.parent < 0].sum())


def find_wrappers(package) -> list:
    """Names in the package that still hold a tracer wrapper."""
    prefix = package.__name__
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in vars(mod).items():
            if is_traced(value):
                found.append(f"{mod_name}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod_name:
                for meth, raw in vars(value).items():
                    if is_traced(raw):
                        found.append(f"{mod_name}.{attr}.{meth}")
    return found


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "autodiff.gelu_s": ("s", "lower"),
    "autodiff.gelu_elems": ("count", "lower"),
    "autodiff.matmul_s": ("s", "lower"),
    "autodiff.matmul_macs": ("count", "lower"),
    "autodiff.softmax_s": ("s", "lower"),
    "autodiff.layer_norm_s": ("s", "lower"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.optimizer_step_s": ("s", "lower"),
    "transformer.block_states_s": ("s", "lower"),
    "transformer.block_states_calls": ("count", "lower"),
    "transformer.backbone_passes_per_explain": ("count", "lower"),
    "transformer.kept_token_frac": ("ratio", "higher"),
    "transformer.macs_vs_analytic": ("ratio", "lower"),
    "sidenet.explain_self_s": ("s", "lower"),
    "sidenet.surrogate_logits_s": ("s", "lower"),
    "sidenet.explainer_raw_s": ("s", "lower"),
    "sidenet.side_macs_vs_analytic": ("ratio", "lower"),
    "shapley.exact_shapley_self_s": ("s", "lower"),
    "shapley.game_evaluate_self_s": ("s", "lower"),
    "shapley.kernelshap_self_s": ("s", "lower"),
    "shapley.memo_hit_frac": ("ratio", "higher"),
    "shapley.sample_subsets_s": ("s", "lower"),
    "shapley.efficiency_normalize_s": ("s", "lower"),
    "training.classifier_self_s": ("s", "lower"),
    "training.surrogate_self_s": ("s", "lower"),
    "training.explainer_self_s": ("s", "lower"),
    "training.classifier_steps": ("count", "lower"),
    "training.surrogate_steps": ("count", "lower"),
    "training.explainer_steps": ("count", "lower"),
    "training.value_rows": ("count", "lower"),
    "training.surrogate_val_kl": ("nats", "lower"),
    "training.explainer_val_loss": ("loss", "lower"),
    "evaluation.insertion_deletion_self_s": ("s", "lower"),
    "evaluation.value_rows": ("count", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.digest_s": ("s", "lower"),
    "checkpoint.bytes_read": ("bytes", "lower"),
    "checkpoint.bytes_written": ("bytes", "lower"),
    "checkpoint.load_mb_per_s": ("MB/s", "higher"),
    "data.generate_s": ("s", "lower"),
    "data.load_s": ("s", "lower"),
    "data.save_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.commands": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.uncovered_s": ("s", "lower"),
}

STAGES = ("classifier", "surrogate", "explainer")


def layer_metrics(tab: SpanTable):
    """Per-layer metrics from one traced section, plus why any is empty.

    Times are totals over the section. Metrics the trace alone cannot give
    (MAC ratios, losses, overhead) are filled in by the caller.
    """
    m, notes = {}, {}
    sel = tab.select
    for op in ("gelu", "matmul", "softmax", "layer_norm"):
        m[f"autodiff.{op}_s"] = tab.total_s(f"autodiff.{op}")
    m["autodiff.gelu_elems"] = int(tab.a[sel("autodiff.gelu")].sum())
    m["autodiff.matmul_macs"] = int(tab.a[sel("autodiff.matmul")].sum())
    m["autodiff.backward_s"] = tab.total_s("autodiff.Tensor.backward")
    m["autodiff.optimizer_step_s"] = tab.total_s("autodiff.Optimizer.step")

    bs_name = "transformer.MaskedTransformer.block_states"
    bs = sel(bs_name)
    m["transformer.block_states_s"] = tab.total_s(bs_name)
    m["transformer.block_states_calls"] = int(bs.sum())
    explain = "sidenet.CombinedModel.explain"
    n_explain = tab.calls(explain)
    in_explain = tab.nearest_ancestor([explain]) >= 0
    m["transformer.backbone_passes_per_explain"] = (
        float((bs & in_explain).sum()) / n_explain if n_explain else 0.0)
    if not n_explain:
        notes["transformer.backbone_passes_per_explain"] = "no explain calls"
    masked_rows = int(tab.a[bs].sum())
    m["transformer.kept_token_frac"] = (
        float(tab.b[bs].sum()) / masked_rows if masked_rows else 0.0)
    if not masked_rows:
        notes["transformer.kept_token_frac"] = "no masked backbone passes"

    m["sidenet.explain_self_s"] = tab.self_s(explain)
    m["sidenet.surrogate_logits_s"] = tab.total_s("sidenet.SideTunedModel.surrogate_logits")
    m["sidenet.explainer_raw_s"] = tab.total_s("sidenet.SideTunedModel.explainer_raw")

    m["shapley.exact_shapley_self_s"] = tab.self_s("shapley.exact_shapley")
    m["shapley.game_evaluate_self_s"] = tab.self_s("shapley.Game.evaluate")
    m["shapley.kernelshap_self_s"] = tab.self_s("shapley.kernelshap")
    # rows asked of Game.evaluate against surrogate rows it had to compute
    surrogate = sel("sidenet.SideTunedModel.surrogate_logits")
    evaluate = "shapley.Game.evaluate"
    requested = int(tab.a[sel(evaluate)].sum())
    computed = int(tab.a[surrogate & (tab.nearest_ancestor([evaluate]) >= 0)].sum())
    m["shapley.memo_hit_frac"] = 1.0 - computed / requested if requested else 0.0
    if not requested:
        notes["shapley.memo_hit_frac"] = "no Game.evaluate calls"
    m["shapley.sample_subsets_s"] = tab.total_s("shapley.sample_subsets")
    m["shapley.efficiency_normalize_s"] = (tab.total_s("shapley.efficiency_normalize")
                                           + tab.total_s("shapley.efficiency_normalize_grid"))

    stage_names = [f"training.train_{s}" for s in STAGES]
    stage_anc = tab.nearest_ancestor(stage_names)
    anc_name = np.where(stage_anc >= 0, tab.name[stage_anc], -1)
    step = sel("autodiff.Optimizer.step")
    for stage, span in zip(STAGES, stage_names):
        m[f"training.{stage}_self_s"] = tab.self_s(span)
        sid = tab.names.index(span) if span in tab.names else -2
        m[f"training.{stage}_steps"] = int((step & (anc_name == sid)).sum())
    m["training.value_rows"] = int(tab.a[surrogate & (stage_anc >= 0)].sum())

    insdel = "evaluation.insertion_deletion"
    m["evaluation.insertion_deletion_self_s"] = tab.self_s(insdel)
    m["evaluation.value_rows"] = int(
        tab.a[surrogate & (tab.nearest_ancestor([insdel]) >= 0)].sum())

    load_s = tab.total_s("checkpoint.load_checkpoint")
    m["checkpoint.load_s"] = load_s
    m["checkpoint.save_s"] = tab.total_s("checkpoint.save_checkpoint")
    m["checkpoint.digest_s"] = tab.total_s("checkpoint.fnv1a_64")
    m["checkpoint.bytes_read"] = int(tab.a[sel("checkpoint.load_checkpoint")].sum())
    m["checkpoint.bytes_written"] = int(tab.a[sel("checkpoint.save_checkpoint")].sum())
    m["checkpoint.load_mb_per_s"] = (m["checkpoint.bytes_read"] / 1e6 / load_s
                                     if load_s else 0.0)
    if not load_s:
        notes["checkpoint.load_mb_per_s"] = "no checkpoint loads"

    m["data.generate_s"] = tab.total_s("data.generate_dataset")
    m["data.load_s"] = tab.total_s("data.SyntheticDataset.load")
    m["data.save_s"] = tab.total_s("data.SyntheticDataset.save")
    m["cli.self_s"] = tab.self_s("cli.main")
    m["cli.commands"] = tab.calls("cli.main")
    m["trace.spans"] = len(tab)
    return m, notes

"""Spans around the calls into each layer of the program, installed from
the benchmark's own files.

Each target is patched where it is defined and in every module that
imported it by name (``chars.char_T`` and ``cli.char_T`` alike); methods
are patched on their class under every attribute name that holds them
(``__add__`` and ``__radd__``).  ``GaussianRational`` is left alone: its
methods run about 10^5 times a round and the wrapper would cost more than
they do.

Spans are kept in memory as (name, start, end, parent) and written out
when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (layer, metric, module, attribute): the calls timed in each layer
TARGETS = (
    ("scalars", "ratfunc_add", "scalars", "_rf_add"),
    ("scalars", "ratfunc_mul", "scalars", "_rf_mul"),
    # the reciprocal step of every division; the product is in ratfunc_mul
    ("scalars", "ratfunc_div", "scalars", "RatFunc.inverse"),
    ("scalars", "laurent_mul", "scalars", "LaurentPoly.__mul__"),
    ("scalars", "tower_add", "scalars", "TowerElem.__add__"),
    ("scalars", "tower_mul", "scalars", "TowerElem.__mul__"),
    ("scalars", "canonical_json", "scalars", "canonical_json"),
    ("specht", "build_rep", "specht", "build_rep"),
    ("specht", "word_matrix", "specht", "word_matrix"),
    ("specht", "mat_mul", "specht", "mat_mul"),
    ("specht", "mat_trace", "specht", "mat_trace"),
    ("symgroup", "reduce_to_composition", "symgroup", "reduce_to_composition"),
    ("symgroup", "alt_classes", "symgroup", "alt_classes"),
    ("combinat", "std_tableaux", "combinat", "std_tableaux"),
    ("hecke", "b_elem", "hecke", "b_elem"),
    ("hecke", "a_elem", "hecke", "a_elem"),
    ("hecke", "t_in_b", "hecke", "t_in_b"),
    ("hecke", "b_in_a", "hecke", "b_in_a"),
    ("hecke", "scale", "hecke", "HeckeElem.scale"),
    ("chars", "char_table", "chars", "char_table"),
    ("chars", "twisted_char", "chars", "twisted_char"),
    ("chars", "class_polys", "chars", "class_polys"),
    ("chars", "alt_class_polys", "chars", "alt_class_polys"),
    ("cli", "main", "cli", "main"),
)
LAYERS = ("scalars", "specht", "symgroup", "combinat", "hecke", "chars", "cli")
# lru_caches whose hit ratio shows how much work queries share
CACHES = (
    ("chars.twisted_value", "chars", "_twisted_value"),
    ("chars.f_vector", "chars", "_f_vector"),
    ("chars.g_vector", "chars", "_g_vector"),
    ("specht.perm_traces", "specht", "_perm_traces"),
)


def _replace(modules, module, attr, make):
    """Patch ``module.attr`` wherever the same object is bound."""
    mod = modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(mod, cls_name)
        orig = vars(owner)[meth]
        new = make(orig)
        for key, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, key, new)
        return
    orig = getattr(mod, attr)
    new = make(orig)
    for other in modules.values():
        for key, value in list(vars(other).items()):
            if value is orig:
                setattr(other, key, new)


class Tracer:
    """Installs the span wrappers and turns the spans into layer metrics."""

    def __init__(self, modules):
        self.spans = []
        self.stack = [-1]
        self.conj_s_calls = 0
        self.max_dim = 0
        self.caches = {name: getattr(modules[mod], attr) for name, mod, attr in CACHES}
        for layer, metric, module, attr in TARGETS:
            _replace(modules, module, attr,
                     lambda fn, name=f"{layer}.{metric}": self._wrap(name, fn))
        _replace(modules, "symgroup", "Permutation.conj_s", self._count_conj_s)
        _replace(modules, "specht", "build_rep", self._observe_dim)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_conj_s(self, fn):
        def counted(perm, i):
            self.conj_s_calls += 1
            return fn(perm, i)
        return counted

    def _observe_dim(self, fn):
        def observed(lam):
            rep = fn(lam)
            self.max_dim = max(self.max_dim, rep.dim)
            return rep
        return observed

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counts so far."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child_s = defaultdict(float)
        for idx in range(len(self.spans) - 1, -1, -1):  # children follow parents
            name, start, end, parent = self.spans[idx]
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_s.pop(idx, 0.0)
            if parent >= 0:
                child_s[parent] += dur
        out = {}
        layer_s = defaultdict(float)
        for layer, metric, _module, _attr in TARGETS:
            name = f"{layer}.{metric}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            layer_s[layer] += self_s[name]
        total = sum(layer_s.values())
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_s[layer], "s")
            out[f"{layer}.self_share"] = (layer_s[layer] / total if total else 0.0, "ratio")
        out["symgroup.conj_s.calls"] = (self.conj_s_calls, "count")
        out["specht.max_dim"] = (self.max_dim, "count")
        for name, fn in self.caches.items():
            info = fn.cache_info()
            looked = info.hits + info.misses
            out[f"{name}.hits"] = (info.hits, "count")
            out[f"{name}.misses"] = (info.misses, "count")
            out[f"{name}.hit_ratio"] = (info.hits / looked if looked else 0.0, "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": [[index[n], round(s, 7), round(e, 7), p]
                                 for n, s, e, p in self.spans]}, fh)

"""Spans around hgsparse's layer boundaries, recorded from outside.

The tracer replaces the names that hgsparse modules import from one another
(and the package re-exports) with wrappers, so a call such as
`hgsparse.balance.pair_strengths` made from inside the balance loop is
recorded without touching the program.  Spans are kept in memory as
[name, start, end, parent] and summarised after the run; `remove()` puts
every original back, so untraced ops run the unmodified code.
"""

from __future__ import annotations

import importlib
import sys
import time

# (defining module, qualified name); a span is named "<module>.<qualname>"
TARGETS = (
    ("cli", "dispatch"),
    ("hypergraph", "parse_hypergraph"),
    ("hypergraph", "serialize_hypergraph"),
    ("pipeline", "StreamState.push"),
    ("pipeline", "StreamState.finish"),
    ("pipeline", "fast_sparsify"),
    ("pipeline", "bucket_by_weight"),
    ("pipeline", "contract_components"),
    ("sparsify", "sparsify_weighted"),
    ("sparsify", "reduce_weighted"),
    ("sparsify", "make_plan"),
    ("sparsify", "sample_sparsifier"),
    ("balance", "run_balance"),
    ("balance", "init_weights"),
    ("balance", "find_max_bad"),
    ("balance", "transfer_step"),
    ("graph", "pair_strengths"),
    ("verify", "all_cuts_report"),
)
# spans whose return values feed the per-layer counts
KEEP_RESULTS = frozenset({
    "sparsify.sample_sparsifier", "balance.run_balance", "verify.all_cuts_report",
})
OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.results: list[tuple[str, object]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        keep = name in KEEP_RESULTS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if keep:
                results.append((name, out))
            return out

        return traced

    def install(self) -> None:
        loaded = [m for key, m in sys.modules.items()
                  if key == "hgsparse" or key.startswith("hgsparse.")]
        for module_name, qualname in TARGETS:
            module = importlib.import_module(f"hgsparse.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original), original)
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for mod in loaded:
                if getattr(mod, qualname, None) is original:
                    self._patch(mod, qualname, wrapper, original)

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def root(self, fn):
        """fn wrapped as the root span of one op."""
        return self._wrap(OP, fn)

    def totals(self) -> dict[str, list]:
        """name -> [calls, seconds, self seconds] over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return out

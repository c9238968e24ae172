"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install` replaces each traced function in every `cogrowth`
namespace that holds it (``cogrowth.pipeline.build_core``,
``cogrowth.spectral.pf_eigen`` as `certify_inequality` looks it up, the
package's own re-exports), so calls between modules and calls from the
benchmark both pass through a wrapper.  `uninstall` puts the originals
back.  The timed runs never install it.

A span is (name, parent index, start, end); a layer's self time is its
span's duration minus that of its direct children.  Helpers called once
per element (sort keys, formatting, `sigma`) are not traced: a wrapper
would cost more than their work.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> functions whose calls are recorded
TRACED = {
    "words": ("apply_whitehead", "cyclic_reduce", "parse_word"),
    "core_graph": ("build_core", "collapse_core", "label_sets"),
    "whitehead": ("choose_automorphism", "whitehead_graph_of_core", "find_cut_vertices"),
    "automaton": ("build_automaton", "collapse_automaton", "SStateSet.from_collapse",
                  "word_census", "isomorphic", "accepts", "sample_accepted_word"),
    "spectral": ("ose", "make_nse", "adjacency", "decompose", "derive_m1", "pf_eigen",
                 "certify_inequality"),
    "pipeline": ("reduce_step", "reduce_full"),
    "cli": ("main",),
}


def _count_build_core(counts, args, result):
    counts["core_graph.letters_folded"] += sum(len(w) for w in args[0])


def _count_states(counts, args, result):
    counts["automaton.states_built"] += result.n_states


def _count_pf(counts, args, result):
    counts["spectral.pf_eigen.iterations"] += result.iterations
    counts["spectral.pf_eigen.order"] += args[0].size


def _count_step(counts, args, result):
    counts["pipeline.steps"] += 1


# work counts read off each call's arguments and result
COUNTERS = {
    "core_graph.build_core": _count_build_core,
    "automaton.build_automaton": _count_states,
    "automaton.collapse_automaton": _count_states,
    "spectral.pf_eigen": _count_pf,
    "pipeline.reduce_step": _count_step,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self):
        import cogrowth.cli  # noqa: F401  (imported so its namespace is wrapped too)

        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "cogrowth" or n.startswith("cogrowth."))]
        for module, names in TRACED.items():
            mod = sys.modules[f"cogrowth.{module}"]
            for name in names:
                full = f"{module}.{name}"
                if "." in name:  # a classmethod
                    cls_name, attr = name.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, classmethod(self._wrap(full, original.__func__)))
                    self._restore.append((cls, attr, original))
                    continue
                original = getattr(mod, name)
                wrapper = self._wrap(full, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            self._restore.append((ns, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per traced name over the recorded spans."""
        child = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

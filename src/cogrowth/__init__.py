"""Core graphs, subgroup-language automata, Whitehead edge collapse, and
Perron-Frobenius cogrowth certificates for f.g. subgroups of free groups.

Importing the package does not import numpy.  The names of `spectral`
and `pipeline`, the two modules that build matrices, are resolved on
first use (PEP 562), so `from cogrowth import reduce_full` loads numpy
and `from cogrowth import build_core` does not.
"""

from .words import (
    Alphabet,
    WhiteheadAutomorphism,
    apply_whitehead,
    cyclic_reduce,
    format_word,
    free_reduce,
    parse_word,
)
from .core_graph import (
    CollapseData,
    CoreGraph,
    build_core,
    collapse_core,
    label_sets,
)
from .whitehead import (
    choose_automorphism,
    find_cut_vertices,
    whitehead_graph_of_core,
)
from .automaton import (
    Automaton,
    SStateSet,
    accepts,
    build_automaton,
    collapse_automaton,
    isomorphic,
    word_census,
)

# name -> the numpy-importing module that defines it, imported on first use
_LAZY = {
    **dict.fromkeys(
        ("AdjacencyMatrix", "adjacency", "certify_inequality", "decompose",
         "derive_m1", "make_nse", "ose", "pf_eigen"),
        "spectral",
    ),
    **dict.fromkeys(("ReductionTrace", "StepReport", "reduce_full", "reduce_step"), "pipeline"),
}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)

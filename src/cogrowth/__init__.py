"""Core graphs, subgroup-language automata, Whitehead edge collapse, and
Perron-Frobenius cogrowth certificates for f.g. subgroups of free groups.

The package is plain Python: no module of it imports numpy.

`import cogrowth` loads no submodule.  Each name of `__all__` loads its
module on first use (PEP 562), and is read from that module on every
use, never cached here.
"""

# the names each submodule lends the package
_EXPORTS = {
    "words": ("Alphabet", "WhiteheadAutomorphism", "apply_whitehead", "cyclic_reduce",
              "format_word", "free_reduce", "parse_word"),
    "core_graph": ("CollapseData", "CoreGraph", "build_core", "collapse_core", "label_sets"),
    "whitehead": ("choose_automorphism", "find_cut_vertices", "whitehead_graph_of_core"),
    "automaton": ("Automaton", "SStateSet", "accepts", "build_automaton", "collapse_automaton",
                  "isomorphic", "word_census"),
    "spectral": ("AdjacencyMatrix", "adjacency", "certify_inequality", "decompose",
                 "derive_m1", "make_nse", "ose", "pf_eigen"),
    "pipeline": ("ReductionTrace", "StepReport", "reduce_full", "reduce_step"),
    "errors": (),
}
# each name -> its submodule; a submodule maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)

"""Core graphs, subgroup-language automata, Whitehead edge collapse, and
Perron-Frobenius cogrowth certificates for f.g. subgroups of free groups.

The package is plain Python: no module of it imports numpy.
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
from .spectral import (
    AdjacencyMatrix,
    adjacency,
    certify_inequality,
    decompose,
    derive_m1,
    make_nse,
    ose,
    pf_eigen,
)
from .pipeline import ReductionTrace, StepReport, reduce_full, reduce_step

__all__ = sorted(name for name in dir() if not name.startswith("_"))

"""Sierpinski products of graphs: construction and map enumeration, exact
packing chromatic numbers, constructive colorings for complete / path /
star families, and recognition of products of two trees."""

from .coloring import (PackingColoring, VerifyResult, chi_rho_decision,
                       chi_rho_exact, chi_rho_naive, greedy_upper_bound,
                       verify_packing_coloring)
from .errors import (ColoringCoverageError, ConstructionError,
                     ConstructionOutOfRange, DisconnectedGraphError,
                     EnumerationBudgetExceeded, FactorMismatchError,
                     GraphTooLargeError, InconsistentTraceError,
                     InputFormatError, NotATreeError, SearchBudgetExceeded,
                     SierpackError)
from .families import (FAMILIES, FamilyValue, SpineDecomposition,
                       color_class_T, complete_by_K2_value,
                       complete_pair_value, corona_table_value,
                       path_path_min_map, path_star_min_map,
                       spine_decompose, star_path_min_map, star_star_min_map)
from .formats import (emit_dot, emit_graph_text, parse_graph6,
                      parse_graph_text, sniff_parse)
from .graphs import (Balls, Graph, complete, corona, diameter,
                     distances, free_trees, independence_number, is_connected,
                     is_tree, max_packing, path, random_tree, star,
                     tree_canonical_form, tree_iso_map, tree_isomorphic,
                     two_packing_number)
from .product import (EdgeKind, ProductGraph, SierpinskiChiResult, VertexMap,
                      automorphisms, enumerate_maps, sierpinski_chi,
                      sierpinski_product)
from .recognition import (Factorization, PeelStep, PeelTrace,
                          RecognitionOutcome, pendant_split_edges,
                          recognize_tree_product, reconstruct_map)

__version__ = "0.1.0"

"""Exact counting of spanning trees and segmental spanning forests in
branched Z_p-towers of finite multigraphs.

The package is organised bottom-up:

  linalg   -- exact integer / Laurent-polynomial determinants, series at g = 1 + T
  graph    -- multigraphs with ramification marks, Laplacians, tail pruning, JSON
  cover    -- derived (voltage) covers at finite levels
  seal     -- segment decomposition and admissible sets
  forests  -- tree/forest counts (ints), by determinant and by enumeration
  iwasawa  -- characteristic elements, mu/lambda/nu, verification harnesses
  families -- parametrised example families with closed-form forest counts
  cli      -- JSON command line front end
"""

from .graph import Multigraph, RamificationData, Edge, build_graph, laplacian, prune_tails
from .linalg import LaurentPoly, det_int, det_laurent, expand_at_gamma, mu_lambda
from .cover import CoverGraph, build_cover, segment_preimage
from .seal import DecompositionError, Segment, SegmentDecomposition, admissible_paths, admissible_sets, decompose
from .forests import forest_count_bruteforce, forest_count_det, kappa

__all__ = [
    "Multigraph", "RamificationData", "Edge", "build_graph", "laplacian", "prune_tails",
    "LaurentPoly", "det_int", "det_laurent", "expand_at_gamma", "mu_lambda",
    "CoverGraph", "build_cover", "segment_preimage",
    "DecompositionError", "Segment", "SegmentDecomposition",
    "admissible_paths", "admissible_sets", "decompose",
    "forest_count_bruteforce", "forest_count_det", "kappa",
]

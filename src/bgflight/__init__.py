"""Numerics for a kinetic random-flight limit: collision-series densities,
the generating matrix function, single-site scattering inputs, supporting
partition and path combinatorics, and lattice-point statistics."""

__version__ = "0.1.0"

from .gmatrix import (GBatch, GMatrix, g_auto, g_bessel_k2, g_contour,
                      g_rows, g_series)
from .kinetic import (ChainBlock, DensityValue,
                      EstimateResult, GaussianSymbol, f_term, pair_estimate,
                      pair_quadrature, rho_combinatorial, rho_lb, rho_new,
                      sample_lb_block, symbol_inner)
from .lattice import LatticeWindow, PointSample, generate, joint_test
from .partitions import (MarkedPartition, OrderedPartition, Partition,
                         enumerate_marked, enumerate_partitions, iota_embed,
                         nc_expand, nc_reduce, reduce_marked,
                         split_plus_minus)
from .paths import (WeightedCollisionGraph, enumerate_paths,
                    partition_to_path, path_sum_identity_check,
                    path_sum_identity_residuals, total_weight)
from .scattering import GaussianPotential, ScatteringModel

__all__ = [
    "GBatch", "GMatrix", "g_auto", "g_bessel_k2", "g_contour", "g_rows",
    "g_series", "ChainBlock", "DensityValue",
    "EstimateResult", "GaussianSymbol", "f_term", "pair_estimate",
    "pair_quadrature", "rho_combinatorial", "rho_lb", "rho_new",
    "sample_lb_block", "symbol_inner", "LatticeWindow",
    "PointSample",
    "generate", "joint_test", "MarkedPartition", "OrderedPartition",
    "Partition", "enumerate_marked", "enumerate_partitions", "iota_embed",
    "nc_expand", "nc_reduce", "reduce_marked", "split_plus_minus",
    "WeightedCollisionGraph", "enumerate_paths", "partition_to_path",
    "path_sum_identity_check", "path_sum_identity_residuals",
    "total_weight",
    "GaussianPotential", "ScatteringModel",
]

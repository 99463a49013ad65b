"""Quaternionic quantum walks on finite graphs.

Construction of quaternionic walk transition matrices, computation of
their full right spectra through complexification, and numerical
verification of the determinant identities linking the walk to weighted
graph zeta functions.
"""

from .graph import Graph, parse_graph
from .qmatrix import QuatMatrix, right_eigenvalues
from .quaternion import Quaternion, canonical_class_rep, parse_quaternion
from .spectra import (
    SpectrumReport,
    compare_spectra,
    spectrum_alpha_coin,
    spectrum_direct,
    spectrum_grover,
    spectrum_theorem_general,
)
from .walks import CoinMap, build_U, grover_matrix, unitarity_condition
from .zeta import ihara_bass, ihara_hashimoto, quaternionic_identity, weighted_zeta_identity

__version__ = "0.1.0"

__all__ = [
    "CoinMap",
    "Graph",
    "QuatMatrix",
    "Quaternion",
    "SpectrumReport",
    "build_U",
    "canonical_class_rep",
    "compare_spectra",
    "grover_matrix",
    "ihara_bass",
    "ihara_hashimoto",
    "parse_graph",
    "parse_quaternion",
    "quaternionic_identity",
    "right_eigenvalues",
    "spectrum_alpha_coin",
    "spectrum_direct",
    "spectrum_grover",
    "spectrum_theorem_general",
    "unitarity_condition",
    "weighted_zeta_identity",
]

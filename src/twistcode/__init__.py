"""Twisted permutation codes from affine and symplectic groups.

Two infinite families of frequency permutation arrays whose minimum
distance strictly beats the repetition lower bound, built and verified
exactly at desk scale: the affine family over GF(p) (p odd prime,
p > k >= 2) and the symplectic family Sp(4, 2^n) twisted by an outer
automorphism realised through the exterior square.

The package exports what the command line, the demos and the library
example use, and the exceptions those raise; everything else is reached
through its module.
"""

from .affine import AffineParams, build_affine_twisted, enumerate_group
from .codes import (
    CodewordFileError,
    NontrivialKernelError,
    build_twisted_code,
    min_distance_by_support,
    min_distance_pairwise,
    read_code,
    write_code,
)
from .fields import BinaryField, PrimeField
from .linalg import Matrix
from .symplectic import SymplecticSpace, TauConstructionError, build_symplectic_twisted

__version__ = "0.1.0"

__all__ = [
    "AffineParams",
    "BinaryField",
    "CodewordFileError",
    "Matrix",
    "NontrivialKernelError",
    "PrimeField",
    "SymplecticSpace",
    "TauConstructionError",
    "build_affine_twisted",
    "build_symplectic_twisted",
    "build_twisted_code",
    "enumerate_group",
    "min_distance_by_support",
    "min_distance_pairwise",
    "read_code",
    "write_code",
]

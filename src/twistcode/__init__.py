"""Twisted permutation codes from affine and symplectic groups.

Two infinite families of frequency permutation arrays whose minimum
distance strictly beats the repetition lower bound, built and verified
exactly at desk scale: the affine family over GF(p) (p odd prime,
p > k >= 2) and the symplectic family Sp(4, 2^n) twisted by an outer
automorphism realised through the exterior square.
"""

from .affine import (
    AffineParams,
    b_power,
    build_affine_twisted,
    enumerate_group,
    matrix_A,
    matrix_B,
    omega_sum,
)
from .codes import (
    Code,
    CodewordFileError,
    IndexedDomain,
    NontrivialKernelError,
    Representation,
    build_twisted_code,
    check_code_size,
    check_distance_invariance,
    hamming_distance,
    letter_counts_constant,
    min_distance_by_support,
    min_distance_pairwise,
    read_code,
    repetition_lower_bound,
    support_size,
    write_code,
)
from .fields import BinaryField, PrimeField
from .linalg import Matrix, exterior_square
from .report import VerificationReport
from .symplectic import (
    SymplecticSpace,
    TauConstructionError,
    build_outer_automorphism,
    build_symplectic_twisted,
    fixed_projective_count,
    generate_group,
    is_transvection,
    projective_points,
    symplectic_form,
    transvection,
)

__version__ = "0.1.0"

__all__ = [
    "AffineParams",
    "BinaryField",
    "Code",
    "CodewordFileError",
    "IndexedDomain",
    "Matrix",
    "NontrivialKernelError",
    "PrimeField",
    "Representation",
    "SymplecticSpace",
    "TauConstructionError",
    "VerificationReport",
    "b_power",
    "build_affine_twisted",
    "build_outer_automorphism",
    "build_symplectic_twisted",
    "build_twisted_code",
    "check_code_size",
    "check_distance_invariance",
    "enumerate_group",
    "exterior_square",
    "fixed_projective_count",
    "generate_group",
    "hamming_distance",
    "is_transvection",
    "letter_counts_constant",
    "matrix_A",
    "matrix_B",
    "min_distance_by_support",
    "min_distance_pairwise",
    "omega_sum",
    "projective_points",
    "read_code",
    "repetition_lower_bound",
    "support_size",
    "symplectic_form",
    "transvection",
    "write_code",
]

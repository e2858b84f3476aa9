"""Nodal finite element de Rham families on simplicial meshes.

Construction and machine verification of vertex-continuous H(curl)/H(div)
element families (smoothness grades r = 0, 1, 2 plus the edge-continuous
H(div) variant), their global de Rham complexes, boundary-condition counts,
jet and bubble sequences, and the 2D symmetric-stress construction.
"""

from .assembly import (assemble_d, assemble_space, dim_formula, dof_savings,
                       family_row, homogeneous_row_report, restrict_homogeneous,
                       space_equal, verify_decomposition, verify_exactness)
from .elements import (dof_matrix, dual_basis, element_def, jet_complex_ranks,
                       subsimplex_bubble_dims, unisolvence_check)
from .forms import FormPolynomial, Simplex, dim_full, dim_trimmed, trimmed_basis
from .mesh import SimplicialMesh, cube_center_fan_grid

__all__ = [
    "FormPolynomial", "Simplex", "SimplicialMesh",
    "assemble_d", "assemble_space", "cube_center_fan_grid", "dim_formula",
    "dim_full", "dim_trimmed", "dof_matrix", "dof_savings", "dual_basis",
    "element_def", "family_row", "homogeneous_row_report",
    "jet_complex_ranks", "restrict_homogeneous",
    "space_equal", "subsimplex_bubble_dims", "trimmed_basis",
    "unisolvence_check", "verify_decomposition", "verify_exactness",
]

__version__ = "0.1.0"

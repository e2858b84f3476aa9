"""Nodal finite element de Rham families on simplicial meshes.

Construction and machine verification of vertex-continuous H(curl)/H(div)
element families (smoothness grades r = 0, 1, 2 plus the edge-continuous
H(div) variant), their global de Rham complexes, boundary-condition counts,
and the 2D symmetric-stress construction.  The checks of jet and bubble
sequences and of the claims no command runs are in ``derham.claims``,
which this package does not import.
"""

from .assembly import (assemble_d, assemble_space, dim_formula, dof_savings,
                       family_row, homogeneous_row_report, restrict_homogeneous,
                       verify_exactness)
from .elements import dof_matrix, dual_basis, element_def, unisolvence_check
from .forms import dim_full, dim_trimmed
from .mesh import SimplicialMesh, cube_center_fan_grid

__all__ = [
    "SimplicialMesh", "assemble_d", "assemble_space", "cube_center_fan_grid",
    "dim_formula", "dim_full", "dim_trimmed", "dof_matrix", "dof_savings",
    "dual_basis", "element_def", "family_row", "homogeneous_row_report",
    "restrict_homogeneous", "unisolvence_check", "verify_exactness",
]

__version__ = "0.1.0"

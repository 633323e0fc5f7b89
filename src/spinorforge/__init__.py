"""Submanifolds of metric Lie groups through spin geometry, discretized.

The toolchain: a real Clifford algebra core (`clifford`), metric Lie
algebras with their Koszul connections and the catalog of model groups
(`lie_algebra`), explicit group models with Darboux integration
(`lie_group`), discretized surface data with frame / Gauss-Codazzi-Ricci
residuals (`immersion`), the Killing-type spinor solver and immersion
reconstruction (`spinor`), and the CMC Gauss-map pipeline for unimodular
3D groups (`cmc`).  `fixtures` holds the closed-form reference surfaces,
`meshexport` and `serialization` the file formats, `cli` the command line.
"""

from .clifford import (
    Multivector, OffDiagOperator, SkewOperator, SpinElement, adjoint_action,
    bivector_of_offdiag, bivector_of_skew, commutator, spin_bracket, spin_lift,
)
from .grid import ParamGrid
from .lie_algebra import (
    MetricLieAlgebra, catalog_build, curvature, e_kappa_tau, gamma_as_bivector,
    h2xr, hn, koszul_connection, rn, s3, sectional_curvature, semidirect,
    sol3, torsion_residual, unimodular,
)
from .lie_group import (
    LieValuedOneForm, darboux_integrate, maurer_cartan_pullback, model_for,
    structure_residual,
)
from .immersion import (
    EKTData, ImmersionData, ekt_compat_residuals, ekt_integrability_residuals,
    frame_compat_residuals, gcr_residuals, hn_u_residual,
)
from .spinor import (
    KillingProblem, NotIntegrableError, SpinorField, dirac_residual,
    pair_dirac_residual, normalize_spinor, reconstruct_immersion,
    solve_killing, spinor_of_immersion, xi_from_spinor,
)
from .cmc import (
    HPotential, WeierstrassData, gauss_map_pde_residual, h_potential,
    h_potential_wirtinger, inverse_stereographic, weier_f_from_g,
    xi_from_weierstrass,
)
from .meshexport import export_mesh

__version__ = "0.1.0"

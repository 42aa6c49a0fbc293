"""Characteristic-Galerkin finite element solvers on triangle meshes.

The package provides a conservative semi-Lagrangian scheme for
convection-diffusion (test functions composed with the forward flow), its
primal counterpart, streamline-upwind and centered Galerkin references, a
rotating-bell verification harness, and a Heston forward-equation solver
built on the same machinery.
"""

__version__ = "0.1.0"

from .bench import (
    BellParams,
    RunReport,
    compare_schemes,
    convergence_study,
    cross_section,
    discontinuous_test,
    exact_bell,
    run_one_turn,
    run_one_turn_dirichlet,
)
from .characteristics import (
    TracedPoints,
    VelocityField,
    build_traced_points,
    rotation_field,
    trace_backward,
    trace_forward,
    uniform_field,
)
from .fem import (
    FieldP1,
    assemble_mass,
    assemble_stiffness,
    evaluate,
    h1_seminorm,
    integral,
    interpolate,
    l2_error,
    l2_norm,
    nu_dt_norm,
    stability_form,
    write_field_csv,
)
from .heston import (
    HestonParams,
    TensorField,
    assemble_tensor_stiffness,
    expectation_weights,
    heston_operator,
    heston_run,
    put_payoff,
    put_price,
)
from .linalg import SolutionHistory, SolveReport, bicgstab_solve, cg_solve
from .mesh import (
    TriMesh,
    build_disk_mesh,
    build_rect_mesh,
    load_mesh,
    locate_point,
    project_to_domain,
    save_mesh,
)
from .quadrature import (
    QuadratureRule,
    integrate_on_triangle,
    midedge_rule,
    nine_point_rule,
    rule_by_name,
)
from .schemes import (
    CflWarning,
    DcgmOperator,
    SchemeConfig,
    StepDiagnostics,
    StepError,
    centered_prepare,
    centered_step,
    dcgm_dirichlet_prepare,
    dcgm_dirichlet_step,
    dcgm_prepare,
    dcgm_step,
    pcgm_step,
    supg_prepare,
    supg_step,
)

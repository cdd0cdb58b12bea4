"""Numerical laboratory for cubic NLS on rectangular tori: spectral fields
and projections, a split-step solver with mild-equation verification, the
factorized density-matrix hierarchy, collision-map combinatorics,
inequality slope benches, 1D Fourier-Lebesgue norms with the mass gauge,
and a deterministic CLI/reporting layer."""

from .torus import (
    TorusGeometry,
    SpectralField,
    GeometryMismatchError,
    field_from_samples,
    field_samples,
    mode_field,
    zero_field,
    unit_constant_field,
    l2_norm,
    inner_product,
    lp_norm,
    sobolev_norm,
    besov_norm,
    shell_project,
    dyadic_project,
    smooth_dyadic_project,
    free_evolve,
    conjugate,
    product_field,
    cubic_field,
    random_shell_field,
    shell_extremizer_field,
)
from .solver import (
    Trajectory,
    BlowUpError,
    strang_step,
    solve_nls,
    plane_wave_trajectory,
    mass,
    duhamel_residual,
)
from .hierarchy import (
    FactorizedDensityMatrix,
    RankBudgetError,
    tensor_power,
    collision_single,
    collision_full,
    hierarchy_free_evolve,
    apply_sobolev_op,
    trace_norm,
    hierarchy_duhamel_residual,
)
from .combinatorics import (
    CollisionMap,
    enumerate_collision_maps,
    collision_map_count,
    verify_product_identity,
    expansion_consistency,
)
from .bench import (
    AdmissibleParameters,
    admissible_parameters,
    ExperimentReport,
    bench_strichartz,
    bench_bernstein,
    bench_trilinear,
    bench_cubic_product,
    bench_sobolev_product,
    bench_sobolev_embedding,
)
from .fl1d import (
    SpaceTimeField,
    xsb_norm,
    gauge_transform,
    renormalized_nonlinearity,
    renormalized_duhamel_residual,
    bench_linear_homogeneous,
    bench_linear_inhomogeneous,
)
from .report import (
    write_report,
    read_report,
    refit_report,
    write_manifest,
    read_manifest,
    write_trajectory,
    read_trajectory,
)

__version__ = "0.1.0"

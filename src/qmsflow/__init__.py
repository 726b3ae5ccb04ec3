"""Numerical toolkit for finite-dimensional quantum Markov semigroups with
detailed balance: canonical Lindblad generators, the noncommutative
transport metric under which the dual flow is gradient flow of relative
entropy, and the resulting entropy-decay, log-Sobolev and Talagrand
inequalities, verified at machine precision on concrete models.
"""

from .linalg import (
    HermitianSpectrum,
    apply_super,
    choi,
    hermitian_eig,
    hs_inner,
    sharp,
    spectral_calculus,
    traceless_hermitian_basis,
)
from .states import (
    DensityState,
    ModularData,
    bkm_weight,
    build_modular_basis,
    inner_f,
    inner_s,
)
from .generators import (
    CertificationReport,
    GeneratorSpec,
    RateMatrix,
    Superoperator,
    apply_dual,
    apply_generator,
    build_generator,
    certify_detailed_balance,
    check_complete_positivity,
    ergodicity,
    modular_subalgebra,
    restrict_to_commutative,
)
from .canonical import extract_canonical
from .calculus import (
    divergence,
    grad,
    log_mean,
    partial_deriv,
    rho_div,
    rho_mult,
)
from .transport import (
    GeodesicResult,
    TangentDecomposition,
    continuity_solve,
    geodesic_distance,
    metric_monotonicity_check,
    metric_tensor,
    riemannian_gradient_flow_check,
)
from .entropy import (
    DecayReport,
    entropy_production,
    entropy_trajectory,
    intertwining_rates,
    lsi_check,
    relative_entropy,
    talagrand_check,
)
from .models import (
    CliffordContext,
    FermiModel,
    clifford,
    depolarizing,
    fermi_ou,
    fermi_ou_infinite,
    hypercube_restriction,
    kms_counterexample,
    random_dbc_spec,
    random_density,
)

__version__ = "0.1.0"

"""Stationary random fields with linear regressions and quadratic conditional
variances: parameter classification, stationary measures, Markov transition
kernels, reproducible chain sampling and statistical verification."""

from .params import (
    FieldParams,
    DerivedParams,
    Classification,
    InvalidParams,
    Nonexistent,
    NonexistentDegenerate,
    ExistsScaledTwoPoint,
    ExistsTwoPointSymmetric,
    ExistsQGaussian,
    ExistsGaussian,
    OpenLattice,
    validate,
    derive,
    b_from_q,
    boundary_values,
    classify,
    regression_coeffs,
    consistency_residuals,
    two_sided_weights,
    gap_second_moment_coeffs,
    gap_induction_residual,
    forecast_recurrence_check,
    params_from_rho_b,
    params_from_rho_q,
)
from .qpoly import (
    favard_scan,
    AllPositive,
    TerminatesAt,
    FailsAt,
)
from .measure import (
    MeasureSpec,
    QGaussian,
    StdGaussian,
    TwoPointSym,
    ScaledTwoPoint,
    RadialLaw,
    support,
    density,
    moment,
    cdf_table,
)
from .kernel import (
    TransitionKernel,
    MehlerQ,
    GaussianAR1,
    TwoPointChain,
    ScaledTwoPointChain,
    mehler_kernel,
    eigen_residual,
    conditional_moment_residual,
    stationarity_residual,
    chapman_kolmogorov_residual,
)
from .simulate import (
    SamplerConfig,
    ChainSampler,
    Ensemble,
    make_sampler,
    sample_ensemble,
    write_csv,
    read_csv,
)
from .verify import (
    TestEntry,
    weak_form_residuals,
    martingale_residuals,
    standard_suite,
    build_report,
    report_json,
)

__version__ = "0.1.0"

"""Heavy-tailed pinning: disorder coupling, energy-entropy maximization,
exact Gibbs sampling, renewal asymptotics, subordinator functionals, and the
companion directed-polymer ground state, plus a batch experiment harness."""

__version__ = "0.1.0"

from .disorder import (
    CoupledDisorder,
    DisorderLaw,
    compute_b_N,
    couple,
    draw_base,
    pareto_quantile,
    sample_coupled,
)
from .geometry import PinnedSet, hausdorff, set_entropy
from .gibbs import (
    ConcentrationEstimate,
    PinningModel,
    concentration_probability,
    enumerate_distribution,
    exact_sample,
    forward_table,
    set_log_weight,
)
from .polymer import (
    PolymerEnvironment,
    binary_entropy_rate,
    polymer_beta_critical,
    solve_polymer,
    solve_polymer_bruteforce,
    tent_entropy,
)
from .renewal import RenewalLaw, build_law, renewal_function, subexp_diagnostics, tilt
from .subordinator import (
    MarkedPointSet,
    band_area_phi,
    band_process,
    edge_jump_times,
    edge_process,
    growth_check,
)
from .varmax import (
    EnergyLandscape,
    beta_critical,
    objective,
    pinned_set,
    solve_bruteforce,
    solve_dp,
)

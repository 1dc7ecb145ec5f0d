"""Self-oscillation analysis for discrete-time relay feedback loops.

A loop made of a stable linear plant, a pure delay and a relay with a
symmetric dead zone can sustain periodic solutions. When the plant's
impulse response decays strictly and monotonically, the single-peaked
solutions obey sharp structural laws: their relay output balances
positive and negative samples, their period is pinned between twice the
delay and twice the delay plus a computable dominance index, and the
whole family of subharmonics survives dead zones below an explicit
threshold. This package turns those statements into executable checks:
a fixed-point analyzer over relay patterns, certified period bounds, a
brute-force oracle, a closed-loop simulator and a command-line front
end.
"""

from .analyzer import (
    AbsenceVerdict,
    InternalCheckError,
    OracleEntry,
    OscillationRecord,
    OscillationReport,
    PeriodBounds,
    brute_force_fixed_points,
    canonical_rotation,
    check_absence,
    dead_zone_threshold,
    default_pmax,
    dominance_index,
    enumerate_unimodal_patterns,
    exists_base_oscillation,
    find_oscillations,
    period_bounds,
    verify_fixed_point,
)
from .certificates import (
    LoopInvarianceReport,
    VariationBoundVerdict,
    open_loop_variation_check,
    variation_bounding_conditions,
)
from .lti import (
    ImpulseResponse,
    MonotoneDecayVerdict,
    PlantSpec,
    TruncationError,
    UnstablePlantError,
    check_monotone_decay,
    circulant,
    cyclic_shift,
    factor_delay,
    is_convex_on_support,
    loop_gain,
    periodic_summation,
    relative_degree,
)
from .simulate import (
    ClassificationFlags,
    SimulationError,
    Trajectory,
    classify,
    detect_period,
    simulate,
)
from .variation import (
    cyclic_diff,
    cyclic_sign_changes,
    is_periodically_unimodal,
    is_sign_symmetric,
    max_cyclic_sign_changes,
    max_sign_changes,
    relay,
    relay_vec,
    sign_changes,
    sign_counts,
)

__version__ = "0.1.0"

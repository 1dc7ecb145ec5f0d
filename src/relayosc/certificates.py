"""Executable variation-bounding certificates.

Two checks with the same theme: a circulant transform generated by a
suitable vector cannot increase the cyclic variation of an input's
cyclic difference beyond 2, i.e. it maps single-peaked periodic signals
to single-peaked periodic signals.

``variation_bounding_conditions`` decides the property for an arbitrary
generator through two testable conditions on its cyclic differences.
``open_loop_variation_check`` specializes to the relay feedback loop: the response of a monotonically
decaying plant to a unimodal relay pattern has low cyclic variation,
which is the invariance property behind the fixed-point search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lti import _U, PlantSpec, check_monotone_decay, loop_gain
from .variation import _flags, cyclic_diff, cyclic_sign_changes, max_cyclic_sign_changes, relay_vec

__all__ = [
    "VariationBoundVerdict",
    "variation_bounding_conditions",
    "LoopInvarianceReport",
    "open_loop_variation_check",
]


@dataclass(frozen=True)
class VariationBoundVerdict:
    """Outcome of the two generator conditions.

    ``unconditional`` marks lengths n <= 3 where every vector passes (a
    cyclic vector of length <= 3 cannot alternate more than twice).
    ``witness`` is the first index violating the modular inequality of
    condition 2, when there is one.
    """

    condition1: bool
    condition2: bool
    witness: Optional[int]
    unconditional: bool = False

    @property
    def passed(self) -> bool:
        return self.unconditional or (self.condition1 and self.condition2)


def variation_bounding_conditions(v) -> VariationBoundVerdict:
    """Decide whether the circulant of v preserves low-variation inputs.

    The circulant generated by v maps every w with cyclic difference
    variation <= 2 to an output with the same property if and only if

    1. the second cyclic difference of v has cyclic variation <= 2, and
    2. (d_t)^2 >= d_{t-1} * d_{t+1} for every t, indices modulo n,
       where d is the cyclic difference of v.

    Condition 2 is decided for the generator v stands for, each entry
    within one rounding (u = 2^-53) of its float: then its differences are
    within e_t = (2u + O(u^2))(|v_t| + |v_{t+1}|) of the computed d (one
    rounding per entry, one per subtraction), the minor
    D_t^2 - D_{t-1} D_{t+1} within 2|d_t| e_t + |d_{t-1}| e_{t+1} +
    |d_{t+1}| e_{t-1} + e_t^2 + e_{t-1} e_{t+1} of the same in d, and that
    within (2u + u^2)(d_t^2 + |d_{t-1} d_{t+1}|) of its float gap. The
    bound B_t takes 3u for each 2u + O(u^2), room for its own dozen
    roundings; a gap below -B_t fails. So a zero minor (as between the
    interior differences of a folded geometric kernel) survives rounding.
    v is first scaled by a power of two, exactly, to a largest entry in
    [1/2, 1): no square overflows, and the scale of v changes no verdict.
    For n <= 3 the property holds unconditionally.
    """
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("generator must be a nonempty vector")
    if x.size <= 3:
        return VariationBoundVerdict(True, True, None, unconditional=True)
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    d = cyclic_diff(x)
    condition1 = cyclic_sign_changes(cyclic_diff(d)) <= 2
    before, after = np.roll(d, 1), np.roll(d, -1)
    e = 3 * _U * (np.abs(x) + np.abs(np.roll(x, -1)))
    e_before, e_after = np.roll(e, 1), np.roll(e, -1)
    bound = 3 * _U * (d**2 + np.abs(before * after)) + 2 * np.abs(d) * e + e**2
    bound += np.abs(before) * e_after + np.abs(after) * e_before + e_before * e_after
    bad = np.flatnonzero(d**2 - before * after < -bound)
    condition2 = bad.size == 0
    witness = int(bad[0]) if bad.size else None
    return VariationBoundVerdict(condition1, condition2, witness)


@dataclass(frozen=True, eq=False)
class LoopInvarianceReport:
    """Variation of the loop response to a candidate waveform's relay image.

    ``preconditions_ok`` states whether the candidate sits in the class
    the invariance statement covers: plant with monotone decay, waveform
    difference variation exactly 2, relay pattern zero-resolved cyclic
    variation exactly 2. The variation numbers of the response are
    reported regardless so that out-of-class probes remain informative.
    """

    preconditions_ok: bool
    notes: tuple[str, ...]
    diff_variation: int
    level_variation: int
    sign_symmetric: bool
    resolved_variation: Optional[int]
    response: np.ndarray

    @property
    def ok(self) -> bool:
        if self.diff_variation > 2 or self.level_variation > 2:
            return False
        if self.sign_symmetric and self.resolved_variation is not None:
            return self.resolved_variation <= 2
        return True


def open_loop_variation_check(plant: PlantSpec, u) -> LoopInvarianceReport:
    """Check the loop response of a candidate periodic waveform.

    Computes one period of the loop gain driven by relay(u) and reports
    the cyclic variation of its cyclic difference and of the response
    itself; for sign-symmetric relay patterns additionally the
    zero-resolved cyclic variation. All three stay at most 2 whenever
    the preconditions hold, which downstream code treats as an internal
    consistency requirement rather than a runtime branch.
    """
    x = np.asarray(u, dtype=float)
    notes: list[str] = []
    pattern = relay_vec(x, plant.dead_zone)
    diff_var, pattern_unimodal, symmetric = _flags(x, pattern)
    decay = check_monotone_decay(plant.g0)
    if not decay.passed:
        notes.append("plant response is not certified monotonically decaying")
    if not np.any(x != 0.0):
        notes.append("waveform is identically zero")
    elif diff_var != 2:
        notes.append("waveform is not single-peaked (difference variation != 2)")
    if not pattern_unimodal:
        notes.append("relay pattern is not single-peaked (zero-resolved variation != 2)")
    response = loop_gain(plant, pattern)
    return LoopInvarianceReport(
        preconditions_ok=not notes,
        notes=tuple(notes),
        diff_variation=cyclic_sign_changes(cyclic_diff(response)),
        level_variation=cyclic_sign_changes(response),
        sign_symmetric=symmetric,
        resolved_variation=max_cyclic_sign_changes(response) if symmetric else None,
        response=response,
    )

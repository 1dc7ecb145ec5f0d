"""Forward simulation of the closed relay loop and steady-state detection.

The loop only ever sees relay outputs, so a trajectory is seeded with a
finite history of relay values for negative time (zero before that) and
then iterated causally: the plant output at time t depends on relay
values up to t - delay, the waveform is its negation, and the relay
quantizes the waveform. Rational and geometric plants run through their
exact linear recurrence (the seed initializes the recurrence exactly,
because the pre-seed history is identically zero); finite-sample plants
convolve directly. Both paths are exact, so identical seeds give
bit-identical relay sequences.

With zero delay the loop is algebraic: the relay output at t feeds the
waveform at t instantaneously. At most one relay value is consistent
(the instantaneous gain is positive), and when none is the loop has no
solution at that step and the simulation aborts with a diagnostic.

The step map is deterministic and its state is finite: the relay values
it will still read and, for recurrences, the last outputs. Once the
state repeats, every later sample repeats with it, bit for bit, so the
simulator stops stepping there and copies the cycle out to the horizon.
A run costs its transient plus one cycle, capped by the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analyzer import canonical_rotation
from .config import DEFAULTS
from .lti import GEOMETRIC, SAMPLES, PlantSpec, loop_gain
from .variation import (
    cyclic_diff,
    cyclic_sign_changes,
    is_sign_symmetric,
    max_cyclic_sign_changes,
    relay,
    relay_vec,
)

__all__ = [
    "SimulationError",
    "Trajectory",
    "simulate",
    "detect_period",
    "ClassificationFlags",
    "classify",
]


class SimulationError(RuntimeError):
    """The loop diverged or admitted no consistent relay output."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated horizon: waveform u, relay sequence r = relay(u), seed."""

    u: np.ndarray
    relay_out: np.ndarray
    seed_history: tuple[int, ...]
    plant: PlantSpec

    def __len__(self) -> int:
        return self.u.size


def _check_seed(seed_history) -> list[int]:
    seed = [int(v) for v in seed_history]
    if any(v not in (-1, 0, 1) for v in seed):
        raise ValueError("seed history entries must lie in {-1, 0, +1}")
    return seed


def _check_inputs(plant: PlantSpec, seed_history, steps: int) -> tuple[list[int], float]:
    """The seed as ints and the response's absolute sum; ValueError for whatever :func:`simulate` refuses."""
    if steps <= 0:
        raise ValueError("steps must be positive")
    seed = _check_seed(seed_history)
    l1 = plant.g0.l1_bound()
    if not math.isfinite(l1):
        raise ValueError(f"the response's absolute sum is {l1}; only finite responses can be simulated")
    return seed, l1


def _num_den_taps(plant: PlantSpec) -> tuple[np.ndarray, np.ndarray]:
    """(b, a) with y(t) = sum_i b[i] r(t-i) - sum_{j>=1} a[j] y(t-j)."""
    g0 = plant.g0
    if g0.kind == GEOMETRIC:
        return np.array([g0.gain]), np.array([1.0, -g0.ratio])
    # proper rational with relative degree zero: num and den share a degree
    order = g0.den.size - 1
    b = np.zeros(order + 1)
    b[: g0.num.size] = g0.num
    return b, g0.den.copy()


def simulate(
    plant: PlantSpec,
    seed_history,
    steps: int,
    divergence_factor: float = DEFAULTS.divergence_factor,
) -> Trajectory:
    """Iterate the loop for ``steps`` samples from a relay-output seed.

    ``seed_history`` lists relay outputs for times -len(seed) .. -1;
    earlier history is zero. The waveform magnitude can never exceed the
    response's absolute sum, so crossing ``divergence_factor`` times
    that bound aborts with :class:`SimulationError` (it would mean a
    defect, not dynamics). A response whose absolute sum is not finite
    is refused with ``ValueError`` before the first step.

    From the first step whose reads all fall inside the relay history
    (no pre-seed zeros, and for recurrences no seeded output), the loop
    state is the bytes of the relay window still to be read plus, for
    recurrences, the last ``order`` outputs. It is compared with one
    checkpoint, re-saved at power-of-two offsets (Brent's cycle
    finding), so memory stays O(state). When it matches, the samples
    from the checkpoint on repeat exactly, and the rest of the horizon
    is copied from them. Bytes are compared, so -0.0 and 0.0 never
    count as one state. A repeated state has already been stepped once,
    so no chatter or divergence error is lost by stopping. The result
    is bitwise identical to stepping every sample.
    """
    seed, l1 = _check_inputs(plant, seed_history, steps)
    cap = divergence_factor * l1
    delay = plant.delay
    dz = plant.dead_zone

    lead = len(seed)
    # relay history indexed by shifted time: r_all[i] holds r(i - lead)
    r_all = np.zeros(lead + steps, dtype=np.int8)
    r_all[:lead] = seed

    use_fir = plant.g0.kind == SAMPLES
    if use_fir:
        taps = plant.g0.values

        def fir_output(tau: int) -> float:
            acc = 0.0
            for k in range(min(taps.size, tau + lead + 1)):
                acc += taps[k] * r_all[tau - k + lead]
            return acc

        width = taps.size
        # first step whose window is all relay history: t - delay >= width - 1 - lead
        start = max(0, delay + width - 1 - lead)
        y_all = np.zeros(0)
        y_lo = y_hi = 0
    else:
        b, a = _num_den_taps(plant)
        order = a.size - 1
        # y history reaches back far enough for both the recurrence taps
        # and the delayed reads; seeded values are exact finite sums
        # because the pre-seed relay history is identically zero
        back = max(order, delay, 1)
        y_all = np.zeros(back + steps)  # y_all[i] holds y(i - back)
        g_head = plant.g0.samples(max(lead, 1))
        for tau in range(-min(back, lead), 0):
            acc = 0.0
            for k in range(tau + lead + 1):
                acc += g_head[k] * r_all[tau - k + lead]
            y_all[tau + back] = acc

        def recurrence(tau: int, r_now: int) -> float:
            """y(tau) given relay history and y(tau-1..tau-order)."""
            acc = b[0] * r_now
            for i in range(1, b.size):
                if tau - i + lead >= 0:
                    acc += b[i] * r_all[tau - i + lead]
            for j in range(1, order + 1):
                acc -= a[j] * y_all[tau - j + back]
            return acc

        width = b.size
        # the recurrence runs from tau = 0, and its b taps then read relay history only
        start = delay + max(0, width - 1 - lead)
        # outputs y(tau - order) .. y(tau - 1) sit at y_all[t + y_lo : t + y_hi]
        y_lo, y_hi = back - delay - order, back - delay
    # relay values r(tau - width + 1) .. r(t - 1) sit at r_all[t + r_lo : t + lead]
    r_lo = lead - delay - width + 1

    g00 = plant.g0.sample(0)
    u = np.zeros(steps)
    saved, saved_at = None, start
    for t in range(steps):
        if t >= start:
            state = r_all[t + r_lo : t + lead].tobytes() + y_all[t + y_lo : t + y_hi].tobytes()
            if state == saved:
                rest = steps - t
                u[t:] = np.resize(u[saved_at:t], rest)
                r_all[t + lead :] = np.resize(r_all[saved_at + lead : t + lead], rest)
                break
            if ((t - start + 1) & (t - start)) == 0:  # offsets 0, 1, 3, 7, ... from start
                saved, saved_at = state, t
        tau = t - delay
        if delay >= 1:
            if use_fir:
                yt = fir_output(tau)
            elif tau < 0:
                yt = y_all[tau + back]
            else:
                yt = recurrence(tau, int(r_all[tau + lead]))
                y_all[tau + back] = yt
            u[t] = -yt
            r_all[t + lead] = relay(u[t], dz)
        else:
            # algebraic loop: y(t) = c + g0(0) * r(t); the instantaneous
            # gain is positive so at most one relay output is consistent
            if use_fir:
                c = fir_output(t) - g00 * r_all[t + lead]
            else:
                c = recurrence(t, 0)
            chosen = None
            for cand in (1, 0, -1):
                if relay(-(c + g00 * cand), dz) == cand:
                    chosen = cand
                    break
            if chosen is None:
                raise SimulationError(
                    f"no consistent relay output at step {t}: the zero-delay loop "
                    f"chatters (offset {-c:.6g}, instantaneous gain {g00:.6g})"
                )
            r_all[t + lead] = chosen
            u[t] = -(c + g00 * chosen)
            if not use_fir:
                y_all[t + back] = c + g00 * chosen
        if abs(u[t]) > cap:
            raise SimulationError(
                f"waveform magnitude {abs(u[t]):.6g} exceeded the divergence cap "
                f"{cap:.6g} at step {t}; the loop output is bounded by the response's "
                f"absolute sum, so this indicates a defect"
            )

    return Trajectory(u=u, relay_out=r_all[lead:].copy(), seed_history=tuple(seed), plant=plant)


def detect_period(traj: Trajectory, tol: float = 1e-9, window: int = 4) -> Optional[tuple[int, int]]:
    """Smallest exact steady-state period of the trailing trajectory.

    A candidate period P is accepted when the relay sequence repeats
    exactly over the trailing ``window * P`` samples (relay outputs are
    discrete, so no tolerance there) and the waveform repeats within
    ``tol``. Returns (period, phase) where rotating the trailing period
    of the relay sequence down by ``phase`` gives its canonical
    rotation; None when nothing repeats inside the window.
    """
    if window < 2:
        raise ValueError("window must span at least two periods")
    r = traj.relay_out
    u = traj.u
    total = u.size
    for period in range(1, total // window + 1):
        span = window * period
        rs = r[total - span :]
        us = u[total - span :]
        if not np.array_equal(rs[period:], rs[:-period]):
            continue
        gap = np.max(np.abs(us[period:] - us[:-period]))
        if not gap <= tol:  # a NaN gap fails too
            continue
        tail = r[total - period :].astype(np.int8)
        canon = np.array(canonical_rotation(tail), dtype=np.int8).tobytes()
        # np.roll(tail, k) is doubled[period - k : 2 * period - k]; the last
        # match in the doubled tail gives the smallest k
        doubled = np.concatenate([tail, tail]).tobytes()
        return period, period - doubled.rfind(canon)
    return None


@dataclass(frozen=True)
class ClassificationFlags:
    """Waveform classification against the loop's analytical structure."""

    pattern: tuple[int, ...]
    residual: float
    is_self_oscillation: bool
    unimodal: bool
    pattern_unimodal: bool
    sign_symmetric: bool

    @property
    def admissible(self) -> bool:
        return self.unimodal and self.pattern_unimodal

    def to_dict(self) -> dict:
        return {
            "pattern": list(self.pattern),
            "residual": self.residual,
            "is_self_oscillation": self.is_self_oscillation,
            "unimodal": self.unimodal,
            "pattern_unimodal": self.pattern_unimodal,
            "admissible": self.admissible,
            "sign_symmetric": self.sign_symmetric,
        }


def classify(u_period, plant: PlantSpec, tol: float = 1e-9) -> ClassificationFlags:
    """Classify one period of a waveform as an oscillation of the plant's loop.

    The waveform's relay image is pushed through the loop; ``residual``
    is the worst-entry mismatch against the waveform itself. A
    self-oscillation must satisfy the loop equation (residual within
    ``tol``) and be non-constant (difference variation >= 2).
    """
    u = np.asarray(u_period, dtype=float)
    pattern = relay_vec(u, plant.dead_zone)
    response = loop_gain(plant, pattern)
    residual = float(np.max(np.abs(response - u)))
    nonzero = bool(np.any(u != 0.0))
    diff_var = cyclic_sign_changes(cyclic_diff(u)) if nonzero else -1
    return ClassificationFlags(
        pattern=tuple(int(x) for x in pattern),
        residual=residual,
        is_self_oscillation=residual <= tol and diff_var >= 2,
        unimodal=nonzero and diff_var == 2,
        pattern_unimodal=max_cyclic_sign_changes(pattern.astype(float)) == 2,
        sign_symmetric=is_sign_symmetric(pattern.astype(float)),
    )

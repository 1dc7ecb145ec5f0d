"""Forward simulation of the closed relay loop and steady-state detection.

The loop only ever sees relay outputs, so a trajectory is seeded with a
finite history of relay values for negative time (zero before that) and
then iterated causally: the plant output at time t depends on relay
values up to t - delay, the waveform is its negation, and the relay
quantizes the waveform. Every response runs through its exact linear
recurrence y(t) = sum_i b[i] r(t-i) - sum_{j>=1} a[j] y(t-j): geometric
and rational plants with their own coefficients, finite-sample plants as
the order-0 recurrence with b = the samples and a = [1]. The seed
initializes the recurrence exactly, because the pre-seed history is
identically zero. The step loop runs on Python floats, summing each
output term by term in that order, so identical seeds give bit-identical
relay sequences. Each sum starts at the positive lead sample times a
relay value, or at +0.0, and a float sum is -0.0 only when both terms
are, so no partial sum is ever -0.0 and a term on a pre-seed zero
changes no bit.

With zero delay the loop is algebraic: the relay output at t feeds the
waveform at t instantaneously. At most one relay value is consistent
(the instantaneous gain is positive), and when none is the loop has no
solution at that step and the simulation aborts with a diagnostic.

The step map is deterministic and its state is finite: the relay values
it will still read and the last ``order`` outputs. Once the
state repeats, every later sample repeats with it, bit for bit, so the
simulator stops stepping there and copies the cycle out to the horizon.
A run costs its transient plus one cycle, capped by the horizon.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analyzer import _canonical_roll
from .config import DEFAULTS
from .lti import GEOMETRIC, SAMPLES, PlantSpec, loop_matrix
from .variation import _flags, relay_vec

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
    """(b, a) with y(t) = sum_i b[i] r(t-i) - sum_{j>=1} a[j] y(t-j); a finite response is order 0."""
    g0 = plant.g0
    if g0.kind == GEOMETRIC:
        return np.array([g0.gain]), np.array([1.0, -g0.ratio])
    if g0.kind == SAMPLES:
        return g0.values.copy(), np.ones(1)
    # proper rational with relative degree zero: num and den share a degree
    order = g0.den.size - 1
    b = np.zeros(order + 1)
    b[: g0.num.size] = g0.num
    return b, g0.den.copy()


def simulate(plant: PlantSpec, seed_history, steps: int) -> Trajectory:
    """Iterate the loop for ``steps`` samples from a relay-output seed.

    ``seed_history`` lists relay outputs for times -len(seed) .. -1;
    earlier history is zero. The waveform magnitude can never exceed the
    response's absolute sum l1, so crossing the cap
    ``DEFAULTS.divergence_factor`` * l1 aborts with
    :class:`SimulationError` (it would mean a defect, not dynamics). A
    response whose l1 is not finite is refused with ``ValueError``
    before the first step.

    From the first step at or after ``delay`` whose relay window
    r(tau - width) .. r(t - 1) lies inside the seed and the simulated
    history, the loop state is that window plus the bytes of the last
    ``order`` outputs. It is compared with one checkpoint, re-saved at
    power-of-two offsets (Brent's cycle finding), so memory stays
    O(state). The newest output y(tau - 1) is a function of the state,
    so it is compared first and rejects most steps in O(1); a NaN output,
    possible only under an infinite cap (the factor times a finite l1
    overflows), never matches, so such a run steps every sample. When the
    state matches, the samples from the checkpoint on repeat exactly,
    and the rest of the horizon is copied from them. Output bytes are
    compared, so -0.0 and 0.0 never count as one state. A repeated
    state has already been stepped once, so no chatter or divergence
    error is lost by stopping. The result is bitwise identical to
    stepping every sample.
    """
    seed, l1 = _check_inputs(plant, seed_history, steps)
    cap = DEFAULTS.divergence_factor * l1
    delay = plant.delay
    dz = float(plant.dead_zone)
    b, a = (taps.tolist() for taps in _num_den_taps(plant))
    b0, width, order = b[0], len(b), len(a) - 1
    g00 = plant.g0.sample(0)

    # relay history as floats, width - 1 pre-seed zeros ahead of the seed
    # (terms on them change no bit): r[i] holds r(i - lead)
    n_seed = len(seed)
    lead = width - 1 + n_seed
    r = [0.0] * (width - 1) + [float(v) for v in seed]
    # y[i] holds y(i - back), reaching back far enough for both the
    # recurrence taps and the delayed reads; seeded values are exact
    # finite sums because the pre-seed relay history is identically zero
    back = max(order, delay, 1)
    y = array("d", bytes(8 * back))
    g_head = plant.g0.samples(max(n_seed, 1)).tolist()
    for tau in range(-min(back, n_seed), 0):
        acc = 0.0
        for k in range(tau + n_seed + 1):
            acc += g_head[k] * r[tau - k + lead]
        y[tau + back] = acc

    # at step t >= start the state is r[t + r_lo : t + lead] and y[t + y_lo : t + y_hi]
    start = delay + max(0, width - n_seed)
    r_lo = lead - delay - width
    y_lo, y_hi = back - delay - order, back - delay
    taps, poles = range(1, width), range(1, order + 1)
    saved, saved_y, saved_at, save_at = None, math.nan, start, start
    yt = None  # the output read at the previous step, y(tau - 1)
    for t in range(steps):
        if yt == saved_y and (r[t + r_lo : t + lead], y[t + y_lo : t + y_hi].tobytes()) == saved:
            break
        if t == save_at:  # offsets 0, 1, 3, 7, ... from start
            saved = (r[t + r_lo : t + lead], y[t + y_lo : t + y_hi].tobytes())
            saved_y, saved_at, save_at = yt, t, 2 * t - start + 1
        tau = t - delay
        if tau < 0:
            yt = y[tau + back]
        else:
            # y(tau) = b0 r(tau) + b1 r(tau-1) + ... - a1 y(tau-1) - ..., in that order;
            # with zero delay r(t) is not known yet and enters below
            k = tau + lead
            yt = b0 * r[k] if delay else 0.0
            for i in taps:
                yt += b[i] * r[k - i]
            k = tau + back
            for j in poles:
                yt -= a[j] * y[k - j]
            if not delay:
                # algebraic loop: y(t) = c + g0(0) * r(t); the instantaneous
                # gain is positive so at most one relay output is consistent
                for rt in (1.0, 0.0, -1.0):
                    v = yt + g00 * rt
                    if (-1.0 if v > dz else 1.0 if v < -dz else 0.0) == rt:  # the relay of u(t) = -v
                        break
                else:
                    raise SimulationError(
                        f"no consistent relay output at step {t}: the zero-delay loop "
                        f"chatters (offset {-yt:.6g}, instantaneous gain {g00:.6g})"
                    )
                yt = v
            y.append(yt)
        # the relay of the waveform u(t) = -y(tau)
        if delay:
            rt = -1.0 if yt > dz else 1.0 if yt < -dz else 0.0
        r.append(rt)
        if abs(yt) > cap:
            raise SimulationError(
                f"waveform magnitude {abs(yt):.6g} exceeded the divergence cap "
                f"{cap:.6g} at step {t}; the loop output is bounded by the response's "
                f"absolute sum, so this indicates a defect"
            )
    else:  # no state repeated: every sample was stepped
        t = steps

    u = -np.frombuffer(y, dtype=float)[back - delay : back - delay + t]
    if t < steps:  # u[saved_at:] is one cycle; repeat it out to the horizon
        reps = -(-(steps - saved_at) // (t - saved_at))
        u = np.concatenate([u[:saved_at], np.tile(u[saved_at:], reps)[: steps - saved_at]])
    # every relay output is the relay of its waveform sample, the zero-delay ones too
    relay_out = (u > dz).view(np.int8) - (u < -dz).view(np.int8)
    return Trajectory(u=u, relay_out=relay_out, seed_history=tuple(seed), plant=plant)


#: periods of the trailing trajectory over which :func:`detect_period` requires a repetition
_WINDOW = 4


def detect_period(traj: Trajectory, tol: float = DEFAULTS.detect_tol) -> Optional[tuple[int, int]]:
    """Smallest exact steady-state period of the trailing trajectory.

    A candidate period P is accepted when the relay sequence repeats
    exactly over the trailing ``_WINDOW * P`` samples (relay outputs are
    discrete, so no tolerance there; their bytes are compared, so they
    must be of a numeric dtype) and then the waveform repeats within
    ``tol``. Returns (period, phase), the phase the smallest k for which
    ``np.roll`` of the trailing period of the relay sequence by k is its
    canonical rotation; None when nothing repeats inside the window.
    """
    u = traj.u
    total = u.size
    most = total // _WINDOW
    # the trailing window's relay bytes; + 0 turns -0.0 into 0.0, so they differ where values do, NaN aside
    rs = traj.relay_out[total - _WINDOW * most :] + 0
    key, size, end = rs.tobytes(), rs.itemsize, rs.size
    for period in range(1, most + 1):
        lo = _WINDOW * (most - period)
        if key[(lo + period) * size :] != key[lo * size : (end - period) * size]:
            continue
        if rs.dtype.kind in "fc" and not np.array_equal(rs[lo + period :], rs[lo:-period]):  # NaN != NaN
            continue
        us = u[total - _WINDOW * period :]
        gap = np.max(np.abs(us[period:] - us[:-period]))
        if not gap <= tol:  # a NaN gap fails too
            continue
        return period, _canonical_roll(traj.relay_out[total - period :].tolist())
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


def classify(u_period, plant: PlantSpec, tol: float = DEFAULTS.detect_tol) -> ClassificationFlags:
    """Classify one period of a waveform as an oscillation of the plant's loop.

    The waveform's relay image is pushed through the loop; ``residual``
    is the worst-entry mismatch against the waveform itself. A
    self-oscillation must satisfy the loop equation (residual within
    ``tol``) and be non-constant (difference variation >= 2).
    """
    u = np.asarray(u_period, dtype=float)
    pattern = relay_vec(u, plant.dead_zone)
    diff_var, pattern_unimodal, symmetric = _flags(u, pattern)
    # loop_gain's product, without its check of a pattern relay_vec made
    response = loop_matrix(plant, u.size) @ pattern.astype(float)
    residual = float(np.max(np.abs(response - u)))
    return ClassificationFlags(
        pattern=tuple(pattern.tolist()),
        residual=residual,
        is_self_oscillation=residual <= tol and diff_var >= 2,
        unimodal=diff_var == 2,
        pattern_unimodal=pattern_unimodal,
        sign_symmetric=symmetric,
    )

"""Impulse responses, periodic summation and circulant algebra.

A plant is described by a causal, absolutely summable impulse response
plus a pure delay and a relay dead-zone width. Three response sources
are supported: a geometric decay ``gain * ratio**t``, a proper rational
transfer function evaluated through its linear recurrence, and a finite
list of samples. Each source carries a certified bound on the absolute
tail sum, which is what lets the periodic summation, the monotonicity
checks and the convexity check stop after finitely many terms while
still guaranteeing their verdicts to a stated tolerance.

The circulant helpers realize periodic convolution: ``circulant(v)`` has
first column v, applying it to w is the cyclic convolution of v and w,
and ``cyclic_shift(v, k)`` rotates entries downward k slots (the k-th
power of the cyclic back-shift matrix).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULTS

__all__ = [
    "UnstablePlantError",
    "TruncationError",
    "ImpulseResponse",
    "PeriodicSummation",
    "MonotoneDecayVerdict",
    "PlantSpec",
    "periodic_summation",
    "check_monotone_decay",
    "is_convex_on_support",
    "relative_degree",
    "factor_delay",
    "circulant",
    "circulant_apply",
    "cyclic_shift",
    "loop_generator",
    "loop_matrix",
    "loop_gain",
    "load_plant",
    "save_plant",
]

GEOMETRIC = "geometric"
RATIONAL = "rational"
SAMPLES = "samples"

#: poles must stay below 1 minus this margin for the response to be summable
STABILITY_MARGIN = 1e-9

#: hard cap on how many samples any certified scan may touch
MAX_HORIZON = 2_000_000


def _resume(g: np.ndarray, start: int, coeffs: list) -> None:
    """Fill g[start:] with g(k) = -(den[1] g(k-1) + ... + den[order] g(k-order)).

    ``coeffs`` is den[1:] as Python floats, and the recurrence resumes
    from g[start - order : start]. Each sample is accumulated as
    ``acc = 0.0; acc -= den[j] * g(k-j)`` for j = 1, ..., order, in that
    order, on Python floats, so it is bitwise the value of the
    from-scratch recurrence. Order 2 is unrolled, because per-sample
    Python overhead is the whole cost here.
    """
    order = len(coeffs)
    window = g[start - order : start].tolist()
    if order == 2:
        c1, c2 = coeffs
        g2, g1 = window
        for k in range(start, g.size):
            g2, g1 = g1, 0.0 - c1 * g1 - c2 * g2
            g[k] = g1
    else:
        for k in range(start, g.size):
            acc = 0.0
            for j in range(order):
                acc -= coeffs[j] * window[-1 - j]
            g[k] = acc
            window = window[1:] + [acc]


class UnstablePlantError(ValueError):
    """Denominator has a pole on or outside the stability margin."""


class TruncationError(RuntimeError):
    """A certified bound could not be reached within the horizon cap."""


class ImpulseResponse:
    """Causal scalar impulse response with a certified l1 tail bound.

    Construct through :meth:`geometric`, :meth:`from_rational` or
    :meth:`from_samples`. Instances are immutable apart from an internal
    sample cache and are safe to share between workers.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        if kind == GEOMETRIC:
            ratio = float(params["ratio"])
            gain = float(params.get("gain", 1.0))
            if not 0.0 < ratio < 1.0:
                raise ValueError(f"geometric ratio must lie in (0, 1), got {ratio}")
            if not 0.0 < gain < np.inf:
                raise ValueError(f"geometric gain must be positive and finite, got {gain}")
            self.ratio = ratio
            self.gain = gain
        elif kind == RATIONAL:
            num = np.atleast_1d(np.asarray(params["num"], dtype=float))
            den = np.atleast_1d(np.asarray(params["den"], dtype=float))
            if not (np.isfinite(num).all() and np.isfinite(den).all()):
                raise ValueError("rational coefficients must be finite")
            num = np.trim_zeros(num, "f")
            den = np.trim_zeros(den, "f")
            if den.size == 0:
                raise ValueError("denominator is zero")
            if num.size == 0:
                raise ValueError("numerator is zero (response identically zero)")
            if num.size > den.size:
                raise ValueError("improper transfer function (numerator degree exceeds denominator)")
            den_lead = den[0]
            self.num = num / den_lead
            self.den = den / den_lead
            self.poles = np.roots(self.den) if self.den.size > 1 else np.array([])
            if self.poles.size and np.max(np.abs(self.poles)) > 1.0 - STABILITY_MARGIN:
                radii = ", ".join(f"{abs(p):.6g}" for p in self.poles)
                raise UnstablePlantError(
                    f"pole radii [{radii}] reach the unit circle; response is not absolutely summable"
                )
            self._cache = self._rational_transient()
            self._tail_c: Optional[float] = None
        elif kind == SAMPLES:
            values = np.atleast_1d(np.asarray(params["values"], dtype=float))
            if values.ndim != 1:
                raise ValueError("samples must be a 1-D list")
            if not np.isfinite(values).all():
                raise ValueError("response samples must be finite")
            self.values = values
            # suffix sums of |g| give the exact tail
            self._suffix = np.concatenate([np.cumsum(np.abs(values)[::-1])[::-1], [0.0]])
        else:
            raise ValueError(f"unknown impulse response kind {kind!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def geometric(cls, ratio: float, gain: float = 1.0) -> "ImpulseResponse":
        """g(t) = gain * ratio**t for t >= 0, with ratio in (0, 1)."""
        return cls(GEOMETRIC, ratio=ratio, gain=gain)

    @classmethod
    def from_rational(cls, num, den) -> "ImpulseResponse":
        """Impulse response of num(z)/den(z), coefficients in falling powers.

        The denominator is normalized to be monic; the function must be
        proper and all poles must lie strictly inside the unit circle
        (margin ``STABILITY_MARGIN``), otherwise :class:`UnstablePlantError`
        is raised with the offending pole radii.
        """
        return cls(RATIONAL, num=num, den=den)

    @classmethod
    def from_samples(cls, values) -> "ImpulseResponse":
        """Finite-support response; everything past the list is exactly zero."""
        return cls(SAMPLES, values=values)

    # -- evaluation ----------------------------------------------------

    def _rational_transient(self) -> np.ndarray:
        """g(0), ..., g(order): the samples the numerator enters."""
        order = self.den.size - 1
        b = np.zeros(order + 1)
        b[order + 1 - self.num.size :] = self.num
        g = np.zeros(order + 1)
        for k in range(order + 1):
            acc = b[k]
            for j in range(1, k + 1):
                acc -= self.den[j] * g[k - j]
            g[k] = acc
        return g

    def _extend(self, n: int) -> None:
        """Grow the rational sample cache to exactly n samples.

        The recurrence resumes from the last ``order`` cached samples, so
        each sample is computed once however the requests grow. The new
        array replaces the cache only once it is filled.
        """
        old = self._cache
        grown = np.empty(n)
        grown[: old.size] = old
        _resume(grown, old.size, self.den[1:].tolist())
        self._cache = grown

    def samples(self, n: int) -> np.ndarray:
        """The vector [g(0), ..., g(n-1)]."""
        if n <= 0:
            return np.zeros(0)
        if n > MAX_HORIZON:
            raise TruncationError(f"requested horizon {n} exceeds cap {MAX_HORIZON}")
        if self.kind == GEOMETRIC:
            return self.gain * self.ratio ** np.arange(n)
        if self.kind == SAMPLES:
            out = np.zeros(n)
            m = min(n, self.values.size)
            out[:m] = self.values[:m]
            return out
        if n > self._cache.size:
            self._extend(n)
        return self._cache[:n].copy()

    def sample(self, t: int) -> float:
        """g(t); zero for t < 0 (causality)."""
        if t < 0:
            return 0.0
        if self.kind == SAMPLES:
            return float(self.values[t]) if t < self.values.size else 0.0
        if self.kind == RATIONAL and t < self._cache.size:
            return float(self._cache[t])
        return float(self.samples(t + 1)[t])

    # -- certified tail ------------------------------------------------

    def _rational_envelope(self) -> tuple[float, float]:
        """(c, rho_hat) with |g(t)| <= c * rho_hat**t for all t.

        rho_hat sits strictly between the dominant pole radius and 1, so
        the polynomial factor of repeated poles is swallowed; c is found
        by scanning |g(t)| / rho_hat**t until the ratio has decayed far
        below its running maximum.
        """
        if self._tail_c is not None:
            return self._tail_c, self._rho_hat
        rho = float(np.max(np.abs(self.poles)))
        rho_hat = (1.0 + rho) / 2.0
        n = max(128, 8 * self.den.size)
        while True:
            g = self.samples(n)
            ratio = np.abs(g) / rho_hat ** np.arange(n)
            c = float(ratio.max())
            # decayed ratio at the end certifies the max is global
            if np.all(ratio[-16:] <= max(c, 1e-300) * 1e-9):
                break
            n *= 2
        self._rho_hat = rho_hat
        self._tail_c = c
        return c, rho_hat

    def tail_bound(self, t: int) -> float:
        """Certified upper bound on sum_{k>=t} |g(k)|."""
        t = max(int(t), 0)
        if self.kind == GEOMETRIC:
            return self.gain * self.ratio**t / (1.0 - self.ratio)
        if self.kind == SAMPLES:
            return float(self._suffix[min(t, self.values.size)])
        if self.poles.size == 0:
            m = self.num.size
            if t >= m:
                return 0.0
            return float(np.sum(np.abs(self.samples(m)[t:])))
        c, rho_hat = self._rational_envelope()
        return c * rho_hat**t / (1.0 - rho_hat)

    def l1_bound(self) -> float:
        """Upper bound on the total absolute sum of the response."""
        if self.kind == RATIONAL and self.poles.size:
            n = self.horizon(DEFAULTS.tol)
            g = self.samples(n)
            return float(np.sum(np.abs(g))) + self.tail_bound(n)
        return self.tail_bound(0)

    def horizon(self, tol: float) -> int:
        """Smallest n (power-of-two refined) with tail_bound(n) < tol."""
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.tail_bound(0) < tol:
            return 1
        n = 1
        while self.tail_bound(n) >= tol:
            n *= 2
            if n > MAX_HORIZON:
                raise TruncationError(
                    f"tail bound cannot reach {tol:g} within {MAX_HORIZON} samples"
                )
        lo, hi = n // 2, n
        while lo < hi:
            mid = (lo + hi) // 2
            if self.tail_bound(mid) < tol:
                hi = mid
            else:
                lo = mid + 1
        return hi

    def tail_monotone_certified(self) -> bool:
        """Whether decay properties checked on a window extend to the tail.

        Geometric and finite-support responses are certified by
        construction. A rational response is certified when its dominant
        pole is real, positive, simple and strictly dominant, since the
        tail is then asymptotically a one-signed geometric term.
        """
        if self.kind in (GEOMETRIC, SAMPLES):
            return True
        if self.poles.size == 0:
            return True
        radii = np.abs(self.poles)
        k = int(np.argmax(radii))
        p = self.poles[k]
        if abs(p.imag) > 1e-12 or p.real <= 0:
            return False
        others = np.delete(radii, k)
        if others.size and others.max() >= abs(p) * (1.0 - 1e-9):
            return False
        return True

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == GEOMETRIC:
            return {"kind": GEOMETRIC, "ratio": self.ratio, "gain": self.gain}
        if self.kind == RATIONAL:
            return {"kind": RATIONAL, "num": list(self.num), "den": list(self.den)}
        return {"kind": SAMPLES, "values": list(self.values)}

    @classmethod
    def from_dict(cls, d: dict) -> "ImpulseResponse":
        kind = d.get("kind")
        if kind == GEOMETRIC:
            return cls.geometric(d["ratio"], d.get("gain", 1.0))
        if kind == RATIONAL:
            return cls.from_rational(d["num"], d["den"])
        if kind == SAMPLES:
            return cls.from_samples(d["values"])
        raise ValueError(f"unknown impulse response kind {kind!r}")

    def __repr__(self) -> str:
        if self.kind == GEOMETRIC:
            return f"ImpulseResponse.geometric(ratio={self.ratio}, gain={self.gain})"
        if self.kind == RATIONAL:
            return f"ImpulseResponse.from_rational(num={list(self.num)}, den={list(self.den)})"
        return f"ImpulseResponse.from_samples(<{self.values.size} samples>)"


def relative_degree(g: ImpulseResponse) -> int:
    """Index of the first nonzero sample, i.e. the extractable pure delay."""
    if g.kind == GEOMETRIC:
        return 0
    if g.kind == SAMPLES:
        nz = np.flatnonzero(g.values)
        if nz.size == 0:
            raise ValueError("impulse response is identically zero")
        return int(nz[0])
    # rational: degree gap of the trimmed polynomials
    return g.den.size - g.num.size


def factor_delay(g: ImpulseResponse) -> tuple[int, ImpulseResponse]:
    """Split g into (delay, core) with core starting at a positive sample.

    The core response satisfies core(t) = g(t + delay) and core(0) > 0;
    a negative leading sample is rejected since every analysis here
    requires a positive decaying response.
    """
    d = relative_degree(g)
    if d == 0:
        core = g
    elif g.kind == SAMPLES:
        core = ImpulseResponse.from_samples(g.values[d:])
    else:
        # multiply the numerator by z^d: append d zero coefficients
        core = ImpulseResponse.from_rational(np.concatenate([g.num, np.zeros(d)]), g.den)
    lead = core.sample(0)
    if lead <= 0:
        raise ValueError(f"leading response sample must be positive, got {lead:g}")
    return d, core


@dataclass(frozen=True, eq=False)
class PeriodicSummation:
    """One period of sum_k g(i + k*period) with a certified residual error bound."""

    period: int
    values: np.ndarray
    residual: float


def periodic_summation(g: ImpulseResponse, period: int, tol: float = DEFAULTS.tol) -> PeriodicSummation:
    """Fold a summable response into one period.

    Entry i (0-based) is sum_{k>=0} g(i + k*period), computed in closed
    form for geometric responses, exactly for finite supports, and by
    certified truncation otherwise. Raises :class:`TruncationError` when
    the tail bound cannot be brought below ``tol``.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    if g.kind == GEOMETRIC:
        vals = g.gain * g.ratio ** np.arange(period) / (1.0 - g.ratio**period)
        return PeriodicSummation(period, vals, 0.0)
    if g.kind == SAMPLES:
        n = g.values.size
        reps = -(-n // period)
        padded = np.zeros(reps * period)
        padded[:n] = g.values
        return PeriodicSummation(period, padded.reshape(reps, period).sum(axis=0), 0.0)
    horizon = g.horizon(tol)
    reps = -(-horizon // period)
    head = g.samples(reps * period)
    vals = head.reshape(reps, period).sum(axis=0)
    return PeriodicSummation(period, vals, g.tail_bound(reps * period))


@dataclass(frozen=True)
class MonotoneDecayVerdict:
    """Structured result of the decaying-response check.

    ``passed`` requires every individual property plus a certified tail;
    the notes list what failed or why the tail could not be certified.
    """

    summable: bool
    support_connected: bool
    strictly_decreasing: bool
    strictly_positive: bool
    tail_certified: bool
    horizon: int
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (
            self.summable
            and self.support_connected
            and self.strictly_decreasing
            and self.strictly_positive
            and self.tail_certified
        )


def check_monotone_decay(g: ImpulseResponse, eps: float = 0.0, tol: float = DEFAULTS.tol) -> MonotoneDecayVerdict:
    """Verify that g is summable, one-piece, positive and strictly falling.

    The check runs over the window where the certified tail is below
    ``tol`` and never raises; the verdict reports each property
    separately. ``eps`` relaxes strictness: consecutive samples may rise
    by at most eps before the decrease check fails.
    """
    notes: list[str] = []
    try:
        horizon = g.horizon(tol)
    except TruncationError:
        return MonotoneDecayVerdict(
            summable=False,
            support_connected=False,
            strictly_decreasing=False,
            strictly_positive=False,
            tail_certified=False,
            horizon=0,
            notes=("tail bound does not converge within the horizon cap",),
        )
    window = g.samples(max(horizon, 2))
    nz = np.flatnonzero(window)
    infinite_tail = g.kind == GEOMETRIC or (g.kind == RATIONAL and g.poles.size > 0)
    if nz.size == 0:
        if infinite_tail:
            notes.append("window is all zero but the tail is not; support starts beyond the horizon")
        return MonotoneDecayVerdict(
            summable=True,
            support_connected=False,
            strictly_decreasing=False,
            strictly_positive=False,
            tail_certified=not infinite_tail,
            horizon=int(window.size),
            notes=tuple(notes) or ("response is identically zero on the inspected window",),
        )
    lo, hi = int(nz[0]), int(nz[-1])
    interior = window[lo : hi + 1]
    connected = bool(np.all(interior != 0.0))
    if not connected:
        notes.append("support has interior zeros")
    if infinite_tail and hi != window.size - 1:
        connected = False
        notes.append("support breaks before the infinite tail resumes")
    positive = bool(np.all(interior > 0.0))
    if not positive:
        notes.append("response is not strictly positive on its support")
    decreasing = bool(np.all(np.diff(interior) < eps)) if interior.size > 1 else True
    if not decreasing:
        notes.append("response is not strictly decreasing on its support")
    certified = g.tail_monotone_certified()
    if not certified:
        notes.append("undecidable beyond horizon: tail shape not certified for this source")
    return MonotoneDecayVerdict(
        summable=True,
        support_connected=connected,
        strictly_decreasing=decreasing,
        strictly_positive=positive,
        tail_certified=certified,
        horizon=int(window.size),
        notes=tuple(notes),
    )


def is_convex_on_support(g: ImpulseResponse, tol: float = DEFAULTS.tol) -> bool:
    """Second difference nonnegative at every interior point of the support.

    Only points whose both neighbours lie inside the support are tested,
    so a single spike is trivially convex. When the tail shape cannot be
    certified for the source kind the answer is False, which downstream
    merely drops an optional tightening of the period bound.
    """
    horizon = g.horizon(tol)
    window = g.samples(max(horizon, 3))
    nz = np.flatnonzero(window)
    if nz.size == 0:
        return True
    lo, hi = int(nz[0]), int(nz[-1])
    seg = window[lo : hi + 1]
    if seg.size >= 3 and not np.all(seg[2:] - 2.0 * seg[1:-1] + seg[:-2] >= -1e-12):
        return False
    return g.tail_monotone_certified()


# -- circulant algebra ------------------------------------------------


def circulant(v) -> np.ndarray:
    """Circulant matrix with first column v; columns are its down-rotations."""
    x = np.asarray(v, dtype=float)
    n = x.size
    idx = np.arange(n)
    return x[(idx[:, None] - idx[None, :]) % n]


def circulant_apply(v, w) -> np.ndarray:
    """Cyclic convolution of v and w, i.e. circulant(v) @ w; commutes in its arguments."""
    x = np.asarray(v, dtype=float)
    y = np.asarray(w, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("circulant_apply needs two equal-length vectors")
    return circulant(x) @ y


def cyclic_shift(v, k: int) -> np.ndarray:
    """Rotate entries downward by k slots (k may be negative or exceed n)."""
    x = np.asarray(v)
    if x.ndim != 1:
        raise ValueError("cyclic_shift expects a vector")
    cut = x.size - k % x.size if x.size else 0  # np.roll's result, without its per-call overhead
    return np.concatenate((x[cut:], x[:cut]))


# -- plant ------------------------------------------------------------

PLANT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PlantSpec:
    """Delay-factored plant: core response, pure delay, relay dead zone.

    The core response must start at a positive sample (all pure delay
    lives in ``delay``); construct from an undelayed description with
    :meth:`from_response`, which factors the delay out automatically.
    """

    g0: ImpulseResponse
    delay: int
    dead_zone: float = 0.0

    def __post_init__(self):
        if self.delay < 0 or int(self.delay) != self.delay:
            raise ValueError("delay must be a nonnegative integer")
        if not self.dead_zone >= 0:  # NaN too: its relay maps every entry to 0
            raise ValueError("dead_zone must be nonnegative")
        if relative_degree(self.g0) != 0 or self.g0.sample(0) <= 0:
            raise ValueError("core response must start at a positive sample; factor the delay first")

    @classmethod
    def from_response(cls, g: ImpulseResponse, delay: int = 0, dead_zone: float = 0.0) -> "PlantSpec":
        extra, core = factor_delay(g)
        return cls(core, delay + extra, dead_zone)

    def to_dict(self) -> dict:
        return {
            "version": PLANT_FORMAT_VERSION,
            "plant": self.g0.to_dict(),
            "delay": int(self.delay),
            "dead_zone": float(self.dead_zone),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlantSpec":
        if "plant" not in d:
            raise ValueError("plant spec needs a 'plant' entry")
        version = d.get("version", PLANT_FORMAT_VERSION)
        if version != PLANT_FORMAT_VERSION:
            raise ValueError(f"unsupported plant spec version {version}")
        g = ImpulseResponse.from_dict(d["plant"])
        return cls.from_response(g, int(d.get("delay", 0)), float(d.get("dead_zone", 0.0)))


def load_plant(path) -> PlantSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return PlantSpec.from_dict(json.load(fh))


def save_plant(plant: PlantSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plant.to_dict(), fh, indent=2)
        fh.write("\n")


def loop_generator(plant: PlantSpec, period: int, tol: float = DEFAULTS.tol) -> np.ndarray:
    """The generator c = roll(folded, delay mod period): relay pattern s gives -circulant(c) @ s."""
    folded = periodic_summation(plant.g0, period, tol).values
    return cyclic_shift(folded, plant.delay % period)


def loop_matrix(plant: PlantSpec, period: int, tol: float = DEFAULTS.tol) -> np.ndarray:
    """The loop map at one period as a matrix K = -circulant(:func:`loop_generator`): s gives K @ s."""
    return -circulant(loop_generator(plant, period, tol))


def loop_gain(plant: PlantSpec, pattern, tol: float = DEFAULTS.tol) -> np.ndarray:
    """One period of the loop response to a relay output pattern: ``loop_matrix @ pattern``."""
    s = np.asarray(pattern, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("pattern must be a nonempty vector")
    if not np.all(np.isin(s, (-1.0, 0.0, 1.0))):
        raise ValueError("pattern entries must lie in {-1, 0, +1}")
    return loop_matrix(plant, s.size, tol) @ s

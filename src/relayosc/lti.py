"""Impulse responses, periodic summation and circulant algebra.

A plant is described by a causal, absolutely summable impulse response
plus a pure delay and a relay dead-zone width. Three response sources
are supported: a geometric decay ``gain * ratio**t``, a proper rational
transfer function, and a finite list of samples. A rational response is
sampled through its linear recurrence and folded, bounded and certified
through its Jordan (partial-fraction) form, built from its poles on
first use. Each source carries a certified bound on the absolute tail
sum, and every periodic summation is closed-form or exact.

The circulant helpers realize periodic convolution: ``circulant(v)`` has
first column v, applying it to w is the cyclic convolution of v and w,
and ``cyclic_shift(v, k)`` rotates entries downward k slots (the k-th
power of the cyclic back-shift matrix).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "UnstablePlantError",
    "TruncationError",
    "ImpulseResponse",
    "MonotoneDecayVerdict",
    "PlantSpec",
    "periodic_summation",
    "check_monotone_decay",
    "is_convex_on_support",
    "relative_degree",
    "factor_delay",
    "circulant",
    "cyclic_shift",
    "loop_generator",
    "loop_matrix",
    "loop_gain",
]

GEOMETRIC = "geometric"
RATIONAL = "rational"
SAMPLES = "samples"

#: poles must stay below 1 minus this margin for the response to be summable
STABILITY_MARGIN = 1e-9

#: hard cap on how many samples any certified scan may touch
MAX_HORIZON = 2_000_000

#: unit roundoff of float64
_U = 2.0**-53


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


def _binom(t, k: int):
    """C(t, k) as floats for integers t >= 0 (0 where t < k)."""
    out = np.ones(np.shape(t))
    for j in range(k):
        out = out * (t - j) / (j + 1)
    return out


def _series_div(top, bottom) -> list:
    """The first len(top) coefficients of the power series top / bottom."""
    q: list = []
    for k in range(len(top)):
        q.append((top[k] - sum(bottom[i] * q[k - i] for i in range(1, k + 1))) / bottom[0])
    return q


def _clusters(poles: list) -> list[list[int]]:
    """Indices of the nonzero poles, grouped where the computed roots of one m-fold root spread.

    They spread by about u^(1/m) (u the unit roundoff). From the largest m down, poles linked by
    steps below 10 (4u)^(1/m) form a group if all lie within 10 (4u)^(1/s), s the group's size.
    """
    left, groups = [k for k, p in enumerate(poles) if p != 0], []
    for m in range(len(left), 1, -1):
        step = 10 * (4 * _U) ** (1 / m)
        for group in [[k] for k in left]:
            for i in group:  # grows while it is walked
                group += [j for j in left if j not in group and abs(poles[i] - poles[j]) <= step]
            spread = max(abs(poles[i] - poles[j]) for i in group for j in group)
            if 1 < len(group) and set(group) <= set(left) and spread <= 10 * (4 * _U) ** (1 / len(group)):
                groups.append(group)
                left = [j for j in left if j not in group]
    return groups + [[k] for k in left]


def _jordan(num: list, c, factors: list, m: int) -> list:
    """The first m Taylor coefficients at c of num(z) / prod_{p in factors} (z - p), highest first.

    With the other poles and 0 as ``factors`` they are the b_j of an m-fold pole c in
    num(z)/den(z) = ... + sum_j b_j z / (z - c)^(j+1). The factors stay a product, so no
    cancelling polynomial forms; num (falling powers) is evaluated by Horner's rule, as np.polyval.
    """
    top = []
    for k in range(m):
        top.append(functools.reduce(lambda acc, a: acc * c + a, num, 0.0) / math.factorial(k))
        num = [a * (len(num) - 1 - i) for i, a in enumerate(num[:-1])]
    bottom = [1.0] + [0.0] * (m - 1)
    for p in factors:
        bottom = [bottom[0] * (c - p)] + [bottom[k] * (c - p) + bottom[k - 1] for k in range(1, m)]
    return _series_div(top, [x.real if isinstance(c, float) else x for x in bottom])[::-1]


class _Mode(NamedTuple):
    """Terms coeffs[j] C(s, j) pole^(s - j), s = t - anchor >= 0, of a pole of multiplicity len(coeffs).

    ``radius`` >= |pole| and ``amplitudes`` >= |coeffs| hold for the exact plant: they add the
    first-order error of the computed root and coefficients, doubled.
    """

    pole: complex
    coeffs: np.ndarray
    radius: float
    amplitudes: np.ndarray
    anchor: int


def _mode_fold(mode: _Mode, periods: list, e: np.ndarray) -> np.ndarray:
    """The mode folded at each of ``periods`` (Python ints), one row each, given e = (i - anchor) mod P.

    Per term (1/j!) d^j/dc^j c^e / (1 - c^P). The denominators are Python scalars per period, so
    each row has the bits of a fold at that period alone.
    """
    c, b = mode.pole, mode.coeffs
    bottom = [np.array([[1.0 - c**p] for p in periods])]
    out = b[0] * c**e / bottom[0]
    if b.size > 1:
        top = [_binom(e, k) * c ** np.maximum(e - k, 0) for k in range(b.size)]
        bottom += [np.array([[-_binom(p, k) * c ** (p - k)] for p in periods]) for k in range(1, b.size)]
        out = out + sum(b[j] * q for j, q in enumerate(_series_div(top, bottom)) if j)
    return np.real(out)


def _mode_tail(mode: _Mode, t: np.ndarray) -> np.ndarray:
    """Bound on the mode's absolute sum from t >= anchor: sum_j A_j sum_{i<=j} C(s, j-i) r^(s-j+i) / (1-r)^(i+1)."""
    r, s = mode.radius, t - mode.anchor
    terms = [a * (_binom(s, j - i) * r ** np.maximum(s - j + i, 0) if i < j else r**s) / (1.0 - r) ** (i + 1)
             for j, a in enumerate(mode.amplitudes.tolist()) for i in range(j + 1)]
    return sum(terms[1:], terms[0]) if terms else np.zeros(s.shape)


def _require_finite_sum(sums) -> None:
    """Refuse a response whose absolute sum is not finite, before any fold or bound meets it."""
    if not np.isfinite(sums).all():
        raise ValueError("the response's absolute sum is not finite")


def _json_field(d: dict, key: str, default=None, listed: bool = False):
    """d[key], or ``default`` when absent; ValueError unless a number, or with ``listed`` also a list of numbers."""
    value = d[key] if default is None else d.get(key, default)
    items = value if listed and isinstance(value, list) else [value]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
        kind = "a number or a list of numbers" if listed else "a number"
        raise ValueError(f"plant field {key!r} must be {kind}, got {value!r}")
    if any(isinstance(x, int) and abs(x) > sys.float_info.max for x in items):  # float() would overflow
        raise ValueError(f"plant field {key!r} is too large for a float")
    return value


class UnstablePlantError(ValueError):
    """Denominator has a pole on or outside the stability margin."""


class TruncationError(RuntimeError):
    """A certified bound could not be reached within the horizon cap."""


class ImpulseResponse:
    """Causal scalar impulse response with a certified l1 tail bound.

    Construct through :meth:`geometric`, :meth:`from_rational` or
    :meth:`from_samples`. Instances are immutable apart from internal
    caches (rational samples, Jordan form) that only grow and never change a result.
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
            with np.errstate(all="ignore"):
                self._cache = self._rational_transient()
            _require_finite_sum(self._cache)
        elif kind == SAMPLES:
            values = np.atleast_1d(np.asarray(params["values"], dtype=float))
            if values.ndim != 1:
                raise ValueError("samples must be a 1-D list")
            if not np.isfinite(values).all():
                raise ValueError("response samples must be finite")
            self.values = values
            # suffix sums of |g| give the exact tail
            with np.errstate(over="ignore"):
                self._suffix = np.concatenate([np.cumsum(np.abs(values)[::-1])[::-1], [0.0]])
            _require_finite_sum(self._suffix[:1])
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

    # -- closed form and certified tail --------------------------------

    @functools.cached_property
    def _modes(self) -> tuple[list, np.ndarray, np.ndarray, float]:
        """(modes, head, corrections, l1): the Jordan form of a rational response, built on first use.

        g(t) is the sum of the modes' terms (:class:`_Mode`) plus corrections[t], nonzero only for
        t < head.size = 1 + the number of poles at 0; head holds g(t) there. A mode starts at
        t = 0 (b z / (z - c) for a simple pole c, folding like a geometric response) or, for
        |c| < 1e-3, at t = head.size, sparing a coefficient ~ c^-head.size its cancellation.
        np.roots splits off the poles at 0 exactly and finds the rest as eigenvalues of the
        companion of den', den without its trailing zeros: a pole's error is the spread of its
        computed roots plus its first-order sensitivity to a backward error of 8 (n' + 1) u
        ||den'||_1; its coefficients' is twice their change when it moves that much, plus their
        relative sensitivity to the other poles' errors and 8 (n + m) u. l1 is
        :meth:`tail_bounds` at 0. Refuses a response whose absolute sum is not finite or whose
        pole radii reach 1 within their error.
        """
        poles = self.poles.tolist()
        groups = _clusters(poles)
        size = len(poles) - sum(map(len, groups)) + 1
        centers = [sum(poles[k] for k in g) / len(g) for g in groups]
        centers = [c.real if isinstance(c, complex) and c.imag == 0 else c for c in centers]
        others = [[p for k, p in enumerate(poles) if k not in g] for g in groups]
        rest = self.den[: self.den.size + 1 - size]  # without its trailing zeros
        backward = 8 * rest.size * _U * float(np.abs(rest).sum())
        errors = []
        for g, c, o in zip(groups, centers, others):
            lead = abs(math.prod(c - p for p in o if p))  # den' / (z - c)^m at c
            sensitivity = backward * sum(abs(c) ** k for k in range(rest.size)) / lead
            errors.append(max(abs(poles[k] - c) for k in g) + sensitivity ** (1 / len(g)))
        num, modes = self.num.tolist(), []
        for g, c, o, err in zip(groups, centers, others, errors):
            anchor = size if abs(c) < 1e-3 else 0
            factors = [p for p in o if p] if anchor else [0.0, *o]
            b, moved = (_jordan(num, x, factors, len(g)) for x in (c, c + err))
            near = sum(len(h) * e / abs(c - d) for h, d, e in zip(groups, centers, errors) if h is not g)
            grow = 1 + near + 8 * (self.den.size + len(g)) * _U
            amplitudes = [abs(x) * grow + 2 * abs(y - x) for x, y in zip(b, moved)]
            modes.append(_Mode(c, np.array(b), abs(c) + err, np.array(amplitudes), anchor))
        head = self._cache[:size]
        modal = [sum((b * math.comb(t, j) * m.pole ** (t - j)).real for m in modes if not m.anchor
                     for j, b in enumerate(m.coeffs.tolist()) if j <= t) for t in range(size)]
        with np.errstate(all="ignore"):  # an overflow is refused below
            total = float(np.abs(head).sum()) + sum(float(_mode_tail(m, np.array([size]))[0]) for m in modes)
        _require_finite_sum(total if all(m.radius < 1 for m in modes) else math.inf)
        return modes, head, head - np.array(modal), total * (1 + 8 * (self.den.size + 3) * _U)

    def tail_bounds(self, t) -> np.ndarray:
        """Certified upper bounds on sum_{k>=t} |g(k)| for an array of t, each in O(order).

        Geometric: gain r^t / (1 - r), closed-form. Finite: the exact suffix sums. Rational: the
        head's samples, then each mode's bound (:func:`_mode_tail`) at its error radius and
        amplitudes, all scaled by 1 + 8 (n + 4) u for their own rounding.
        """
        t = np.maximum(np.asarray(t, dtype=np.int64), 0)
        if self.kind == GEOMETRIC:
            with np.errstate(over="ignore"):  # an infinite bound is refused where it is read, as by simulate
                return self.gain * self.ratio**t / (1.0 - self.ratio)
        if self.kind == SAMPLES:
            return self._suffix[np.minimum(t, self.values.size)]
        modes, head = self._modes[:2]
        suffix = np.concatenate([np.cumsum(np.abs(head)[::-1])[::-1], [0.0]])
        past = np.maximum(t, head.size)
        out = suffix[np.minimum(t, head.size)] + sum((_mode_tail(m, past) for m in modes), np.zeros(t.shape))
        return out * (1 + 8 * (self.den.size + 3) * _U)

    def tail_bound(self, t: int) -> float:
        """Certified upper bound on sum_{k>=t} |g(k)|: :meth:`tail_bounds` at one t."""
        return float(self.tail_bounds([t])[0])

    def l1_bound(self) -> float:
        """Upper bound on the total absolute sum of the response: the bits of :meth:`tail_bound` at 0, read directly."""
        if self.kind == GEOMETRIC:
            return self.gain / (1.0 - self.ratio)
        return self._modes[3] if self.kind == RATIONAL else float(self._suffix[0])

    def _decay_window(self) -> Optional[int]:
        """Samples of a rational response past which it is certified positive, falling and convex.

        The dominant mode must be a simple real pole c > 0 with coefficient b > 0, all others
        simple. Past the window's T its terms b c^t (1 - c)^d, d = 0, 1, 2, at their lower ends
        outweigh the others' at their error radii: g(t), g(t) - g(t+1) and g(t) - 2 g(t+1) +
        g(t+2) stay positive. The window is T + 2 samples, T at least the head; None when no such
        pole dominates strictly or T passes ``MAX_HORIZON``. Without modes it is the head.
        """
        modes, head = self._modes[:2]
        if not modes:
            return head.size
        lead = max(modes, key=lambda m: abs(m.pole))
        low, amp = 2 * lead.pole - lead.radius, 2 * lead.coeffs[0] - lead.amplitudes[0]
        if isinstance(lead.pole, complex) or any(m.coeffs.size > 1 for m in modes) or low <= 0 or amp <= 0:
            return None
        rest = [m for m in modes if m is not lead]
        if any(m.radius >= low for m in rest):
            return None
        size = head.size
        for d, m in itertools.product(range(3), rest):
            top = len(rest) * m.amplitudes[0] * (abs(1 - m.pole) + m.radius - abs(m.pole)) ** d
            if top > 0:  # top r^(t - anchor) < amp (1 - radius)^d low^(t - lead anchor) past this t
                gap = math.log(top / amp / (1.0 - lead.radius) ** d)
                gap += lead.anchor * math.log(low) - m.anchor * math.log(m.radius)
                size = max(size, math.floor(gap / math.log(low / m.radius)) + 2)
        return size + 2 if size <= MAX_HORIZON else None

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == GEOMETRIC:
            return {"kind": GEOMETRIC, "ratio": self.ratio, "gain": self.gain}
        if self.kind == RATIONAL:
            return {"kind": RATIONAL, "num": self.num.tolist(), "den": self.den.tolist()}
        return {"kind": SAMPLES, "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ImpulseResponse":
        if not isinstance(d, dict):
            raise ValueError(f"an impulse response must be a JSON object, got {type(d).__name__}")
        kind = d.get("kind")
        if kind == GEOMETRIC:
            return cls.geometric(_json_field(d, "ratio"), _json_field(d, "gain", 1.0))
        if kind == RATIONAL:
            return cls.from_rational(_json_field(d, "num", listed=True), _json_field(d, "den", listed=True))
        if kind == SAMPLES:
            return cls.from_samples(_json_field(d, "values", listed=True))
        raise ValueError(f"unknown impulse response kind {kind!r}")

    def __repr__(self) -> str:
        if self.kind == GEOMETRIC:
            return f"ImpulseResponse.geometric(ratio={self.ratio}, gain={self.gain})"
        if self.kind == RATIONAL:
            return f"ImpulseResponse.from_rational(num={self.num.tolist()}, den={self.den.tolist()})"
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


def periodic_summation(g: ImpulseResponse, period: int) -> np.ndarray:
    """Fold a summable response into one period: entry i (0-based) is sum_{k>=0} g(i + k*period).

    Every fold is closed-form or exact. Geometric: gain r^i / (1 - r^P).
    Finite supports: the samples summed per residue class. Rational: each mode of the Jordan
    form folded in closed form (:func:`_mode_fold`), plus the head corrections; a simple pole c
    with coefficient b gives b c^i / (1 - c^P), so z/(z - r) folds to the bits of geometric r.
    This is the one-row case of :func:`_fold_table`.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    return _fold_table(g, [period])[0]


def _fold_table(g: ImpulseResponse, periods) -> np.ndarray:
    """The folds of g at ``periods``, one row each, as wide as the largest: row k starts with :func:`periodic_summation`.

    Each row has the bits of its period's fold alone; its entries past its period are not the
    fold. Geometric: one row gain r^i shared by all periods over the denominators 1 - r^P, Python
    floats. Rational: each mode over all periods at once (:func:`_mode_fold`), then the head
    corrections added in order, as ``np.add.at`` does. Finite: row by row, the residue classes
    summed down the columns of the support reshaped.
    """
    periods = [int(p) for p in periods]  # Python ints: r^P is the bits of a Python power
    width = max(periods)
    if g.kind == GEOMETRIC:
        return g.gain * g.ratio ** np.arange(width) / np.array([[1.0 - g.ratio**p] for p in periods])
    table = np.zeros((len(periods), width))
    if g.kind == SAMPLES:
        n = g.values.size
        for row, p in zip(table, periods):
            padded = np.zeros(-(-n // p) * p)
            padded[:n] = g.values
            row[:p] = padded.reshape(-1, p).sum(axis=0)
        return table
    modes, _, corrections, _ = g._modes
    P = np.array(periods)[:, None]
    e = {anchor: (np.arange(width) - anchor) % P for anchor in {mode.anchor for mode in modes}}
    for mode in modes:
        table = table + _mode_fold(mode, periods, e[mode.anchor])
    np.add.at(table, (np.arange(len(periods))[:, None], np.arange(corrections.size) % P), corrections)
    return table


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


def _inspected(g: ImpulseResponse, least: int) -> tuple[np.ndarray, bool]:
    """(the samples the decay and convexity checks inspect, whether the tail past them is certified).

    Geometric: the first ``least`` samples, as a ratio in (0, 1) and a positive gain make the
    response positive, strictly falling and convex by construction. Finite: the whole support,
    exactly. Rational: :meth:`ImpulseResponse._decay_window`, or the transient and two more
    samples when it certifies nothing.
    """
    if g.kind == GEOMETRIC:
        return g.samples(least), True
    if g.kind == SAMPLES:
        return g.samples(max(g.values.size, least)), True
    size = g._decay_window()
    return g.samples(max(size or g.den.size + 2, least)), size is not None


def check_monotone_decay(g: ImpulseResponse) -> MonotoneDecayVerdict:
    """Verify that g is summable, one-piece, positive and strictly falling.

    The check inspects a window of samples (:func:`_inspected`) and never
    raises on a response with a finite absolute sum; the verdict reports
    each property separately.
    """
    notes: list[str] = []
    try:
        window, certified = _inspected(g, 2)
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
    nz = np.flatnonzero(window)
    infinite_tail = g.kind == GEOMETRIC or (g.kind == RATIONAL and bool(g._modes[0]))
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
    decreasing = bool(np.all(np.diff(interior) < 0.0))
    if not decreasing:
        notes.append("response is not strictly decreasing on its support")
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


def is_convex_on_support(g: ImpulseResponse) -> bool:
    """Second difference nonnegative at every interior point of the support.

    Only points whose both neighbours lie inside the support are tested,
    so a single spike is trivially convex. Each second difference may fall
    below zero by 4u times the sum of its terms' magnitudes (u the unit
    roundoff), which covers its own rounding and that of the samples, so
    scaling the response changes no verdict. When the tail shape cannot be
    certified for the source kind the answer is False, which downstream
    merely drops an optional tightening of the period bound.
    """
    window, certified = _inspected(g, 3)
    if not certified:
        return False
    nz = np.flatnonzero(window)
    if nz.size == 0:
        return True
    lo, hi = int(nz[0]), int(nz[-1])
    seg, mag = window[lo : hi + 1], np.abs(window[lo : hi + 1])
    slack = 4 * _U * (mag[2:] + 2.0 * mag[1:-1] + mag[:-2])
    return bool(np.all(seg[2:] - 2.0 * seg[1:-1] + seg[:-2] >= -slack))


# -- circulant algebra ------------------------------------------------


def circulant(v) -> np.ndarray:
    """Circulant matrix with first column v; columns are its down-rotations.

    Entry (i, j) is v[(i - j) mod n], entry n - 1 - i + j of v reversed and written twice. The
    matrix is copied out of one strided view of that, rows stepping back, so it is C-contiguous
    and no n x n index array is made. The view is an ``np.ndarray`` on that buffer, which checks
    its bounds.
    """
    x = np.asarray(v, dtype=float)
    n, back = x.size, np.concatenate((x[::-1], x[:0:-1]))  # 2n - 1 entries: n - 1 - i + j spans 0 .. 2n - 2
    step = back.itemsize
    return np.ndarray((n, n), float, back, max(n - 1, 0) * step, (-step, step)).copy()


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
        if not isinstance(d, dict):
            raise ValueError(f"a plant spec must be a JSON object, got {type(d).__name__}")
        if "plant" not in d:
            raise ValueError("plant spec needs a 'plant' entry")
        version = d.get("version", PLANT_FORMAT_VERSION)
        if version != PLANT_FORMAT_VERSION:
            raise ValueError(f"unsupported plant spec version {version}")
        g = ImpulseResponse.from_dict(d["plant"])
        delay = _json_field(d, "delay", 0)
        if isinstance(delay, float) and not delay.is_integer():  # int() would truncate it, or fail on inf
            raise ValueError("delay must be a nonnegative integer")
        return cls.from_response(g, int(delay), float(_json_field(d, "dead_zone", 0.0)))


def loop_generator(plant: PlantSpec, period: int) -> np.ndarray:
    """The generator c = roll(folded, delay mod period): relay pattern s gives -circulant(c) @ s."""
    folded = periodic_summation(plant.g0, period)
    return cyclic_shift(folded, plant.delay % period)


def loop_matrix(plant: PlantSpec, period: int) -> np.ndarray:
    """The loop map at one period as a matrix K = -circulant(:func:`loop_generator`): s gives K @ s."""
    return -circulant(loop_generator(plant, period))


def loop_gain(plant: PlantSpec, pattern) -> np.ndarray:
    """One period of the loop response to a relay output pattern: ``loop_matrix @ pattern``."""
    s = np.asarray(pattern, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("pattern must be a nonempty vector")
    if not np.all(np.isin(s, (-1.0, 0.0, 1.0))):
        raise ValueError("pattern entries must lie in {-1, 0, +1}")
    return loop_matrix(plant, s.size) @ s

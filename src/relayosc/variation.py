"""Sign-variation calculus for finite real vectors.

Everything downstream (invariance certificates, fixed-point search,
waveform classification) reduces to counting strict sign alternations in
a vector, in its cyclic rotations, and in its cyclic forward difference.
This module implements those counts together with the relay quantizer
with symmetric dead zone and the unimodality predicates built on them.

All functions are pure, accept anything ``np.asarray`` digests, and use
exact comparisons: an entry counts as zero only when it equals 0.0.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cyclic_diff",
    "sign_changes",
    "max_sign_changes",
    "cyclic_sign_changes",
    "max_cyclic_sign_changes",
    "relay",
    "relay_vec",
    "sign_counts",
    "is_sign_symmetric",
    "is_periodically_unimodal",
]


def _as_vector(v) -> np.ndarray:
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def cyclic_diff(v) -> np.ndarray:
    """Cyclic forward difference: entry i is v[i+1] - v[i], wrapping at the end.

    The output always sums to zero up to rounding, which is what makes
    the cyclic variation of the difference a rotation-invariant measure
    of how often a periodic sequence changes direction.
    """
    x = _as_vector(v)
    return np.roll(x, -1) - x


def sign_changes(v) -> int:
    """Number of strict sign alternations after deleting zero entries.

    Returns -1 for the zero vector (the conventional value that makes
    the count subadditive under concatenation). A constant nonzero
    vector has no alternations, so the result is 0.
    """
    x = _as_vector(v)
    s = np.sign(x[x != 0.0])
    if s.size == 0:
        return -1
    return int(np.count_nonzero(s[1:] != s[:-1]))


def _fill_zeros_alternating(s: np.ndarray) -> np.ndarray:
    """Replace zeros in a sign vector so the alternation count is maximal.

    Greedy rule: walk left to right and give each zero the sign opposite
    to the last committed sign; leading zeros are filled backwards from
    the first nonzero entry. Optimality per gap follows from a parity
    argument and is cross-checked against exhaustive assignment in the
    test suite.
    """
    out = s.copy()
    nz = np.flatnonzero(out)
    first = nz[0]
    for i in range(first - 1, -1, -1):
        out[i] = -out[i + 1]
    prev = out[first]
    for i in range(first + 1, out.size):
        if out[i] == 0:
            out[i] = -prev
        prev = out[i]
    return out


def max_sign_changes(v) -> int:
    """Sign alternations maximized over all replacements of zero entries.

    Each zero may be replaced by an arbitrary real number before
    counting; the maximum over all such replacements is returned. For
    the all-zero vector of length n every entry is free, giving n - 1.
    Always >= sign_changes(v).
    """
    x = _as_vector(v)
    s = np.sign(x).astype(np.int8)
    if not s.any():
        return x.size - 1
    return sign_changes(_fill_zeros_alternating(s))


def cyclic_sign_changes(v) -> int:
    """Cyclic sign alternation count.

    Defined as the supremum over all n rotations of ``sign_changes``
    applied to the (n+1)-length wrapped vector [v_i, ..., v_n, v_1, ...,
    v_i]; the duplicated pivot makes the wraparound alternation count.
    A rotation pivoted at a nonzero entry sees every cyclic neighbour
    pair of the zero-deleted cycle exactly once and dominates the rest,
    so the count equals the number of cyclic sign changes of the
    zero-deleted sequence, which is what is computed here (the test
    suite checks the equivalence against the rotation form). Even for
    every nonzero vector; -1 for the zero vector.
    """
    x = _as_vector(v)
    s = np.sign(x)
    nz = s[s != 0.0]
    if nz.size == 0:
        return -1
    return int(np.count_nonzero(nz != np.roll(nz, 1)))


def max_cyclic_sign_changes(v) -> int:
    """Cyclic sign alternations maximized over replacements of zero entries.

    Zeros are resolved first (each zero entry of v gets one replacement,
    used consistently by every rotation), then the cyclic count of the
    resolved vector is maximized. Resolving per rotation instead would
    let the two copies of a zero pivot disagree and produce odd counts,
    which is incompatible with the count being a cyclic quantity; see
    the unimodal relay patterns in :mod:`relayosc.analyzer`, all of
    which have value exactly 2 here.
    """
    x = _as_vector(v)
    s = np.sign(x).astype(np.int8)
    n = x.size
    if not s.any():
        # free alternation around a cycle of length n
        return n if n % 2 == 0 else n - 1
    nz = [int(i) for i in np.flatnonzero(s)]
    total = 0
    m = len(nz)
    for i in range(m):
        a = s[nz[i]]
        b = s[nz[(i + 1) % m]]
        gap = (nz[(i + 1) % m] - nz[i] - 1) % n
        want_odd = 1 if a != b else 0
        total += gap + 1 if (gap + 1) % 2 == want_odd else gap
    return int(total)


def relay(x: float, dead_zone: float) -> int:
    """Relay with symmetric dead zone: -1, 0 or +1.

    Returns +1 when x > dead_zone, -1 when x < -dead_zone and 0
    otherwise. The inequalities are strict, so inputs landing exactly on
    the dead-zone boundary map to 0.
    """
    if not dead_zone >= 0:  # NaN too: it would relay every entry to 0
        raise ValueError("dead_zone must be nonnegative")
    if x > dead_zone:
        return 1
    if x < -dead_zone:
        return -1
    return 0


def relay_vec(v, dead_zone: float) -> np.ndarray:
    """Entrywise relay over an array of any shape; int8 entries in {-1, 0, +1}."""
    if not dead_zone >= 0:  # NaN too: it would relay every entry to 0
        raise ValueError("dead_zone must be nonnegative")
    x = np.asarray(v, dtype=float)
    if x.ndim == 0 or x.size < 1:
        raise ValueError(f"expected a nonempty array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return (x > dead_zone).view(np.int8) - (x < -dead_zone).view(np.int8)


def sign_counts(v) -> tuple[int, int, int]:
    """Counts of (positive, negative, zero) entries; they sum to len(v)."""
    x = _as_vector(v)
    pos = int(np.count_nonzero(x > 0))
    neg = int(np.count_nonzero(x < 0))
    return pos, neg, x.size - pos - neg


def is_sign_symmetric(v) -> bool:
    """True when v has equally many positive and negative entries."""
    pos, neg, _ = sign_counts(v)
    return pos == neg


def _flags(u, pattern) -> tuple[int, bool, bool]:
    """(cyclic variation of u's cyclic difference, -1 for zero u; relay pattern single-peaked; sign-symmetric)."""
    return cyclic_sign_changes(cyclic_diff(u)), max_cyclic_sign_changes(pattern) == 2, is_sign_symmetric(pattern)


def is_periodically_unimodal(v) -> bool:
    """True when one period of v has a single rise and a single fall.

    Characterized by the cyclic variation of the cyclic difference being
    exactly 2. Constant vectors have difference variation -1 and test
    False; the zero vector is rejected because the notion is undefined
    for it.
    """
    x = _as_vector(v)
    if not np.any(x != 0.0):
        raise ValueError("unimodality is undefined for the zero vector")
    return cyclic_sign_changes(cyclic_diff(x)) == 2


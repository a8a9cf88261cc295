"""Seeded input generators of the benchmark, and digests of outputs.

The generators live here, not in the package, so a later change to the
package cannot change the inputs: the same seed always gives the same
events. ``uniform_pairs`` draws exactly the random stream that
``tegraph.generate_random`` draws with a ``power_law`` sampler, which lets
set-up check the package's generator against it. ``reply_pairs`` builds the
adversarial shape for validation.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _strictly_increasing(times: np.ndarray) -> np.ndarray:
    # a gap below the clock's float resolution would stall the clock
    if len(times) > 1 and np.any(np.diff(times) <= 0):
        for k in range(1, len(times)):
            if times[k] <= times[k - 1]:
                times[k] = np.nextafter(times[k - 1], np.inf)
    return times


def uniform_pairs(seed: int, events: int, nodes: int, exponent: float):
    """Uniform-pair network with power-law gaps, density a x^(a-1) on (0, 1].

    Returns ``(source, target, time)`` arrays in time order.
    """
    rng = np.random.default_rng(seed)
    gaps = (1.0 - rng.random(events)) ** (1.0 / exponent)
    times = _strictly_increasing(np.cumsum(gaps))
    u = rng.integers(0, nodes, events)
    v = rng.integers(0, nodes - 1, events)
    v = v + (v >= u)
    return u, v, times


def reply_pairs(seed: int, pairs: int):
    """Reply pairs that come back after a long silence.

    For each p, the pair (3p, 3p+1) opens, then (3p, 3p+2) follows, then
    (3p, 3p+1) comes back: all openings come first, then all follow-ups,
    then all replies. Gaps are exponential with mean 1, so times are real
    valued, not dyadic.
    """
    rng = np.random.default_rng(seed)
    a = 3 * np.arange(pairs)
    source = np.concatenate([a, a, a])
    target = np.concatenate([a + 1, a + 2, a + 1])
    times = _strictly_increasing(np.cumsum(rng.exponential(1.0, 3 * pairs)))
    return source, target, times


def write_events(path: str, source, target, times) -> None:
    """One ``source target time`` line per event; ``repr`` keeps times exact."""
    lines = [f"{s} {d} {t!r}\n" for s, d, t in zip(source.tolist(), target.tolist(), times.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def digest(values) -> str:
    """sha256 of a float sequence as little-endian float64."""
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def node_profile(source, target) -> str:
    """sha256 of the sorted (out-degree, in-degree) pairs of the nodes and
    the sorted event counts of the ordered node pairs.

    Both are unchanged by relabelling nodes and by reordering events, so a
    network rebuilt from its event graph must give its original's profile.
    """
    source, target = np.asarray(source, dtype=np.int64), np.asarray(target, dtype=np.int64)
    width = int(max(source.max(), target.max())) + 1
    degrees = np.stack([np.bincount(source, minlength=width), np.bincount(target, minlength=width)], 1)
    degrees = degrees[degrees.sum(1) > 0]
    degrees = degrees[np.lexsort((degrees[:, 1], degrees[:, 0]))]
    _, multiplicity = np.unique(source * width + target, return_counts=True)
    return hashlib.sha256(degrees.tobytes() + np.sort(multiplicity).tobytes()).hexdigest()

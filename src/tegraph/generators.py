"""Random temporal networks, the time-shuffle null model, and the analytic
motif law of the uniform-pair model.

The random model draws a global inter-event time before each event and
then an ordered node pair uniformly without replacement, so event times
are strictly increasing (the samplers are almost surely positive) and the
pair sequence is exchangeable. All randomness flows through numpy's
seeded generator; an ensemble member uses ``seed + index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite

import numpy as np

from .events import TemporalNetwork, _inverse
from .motifs import MOTIFS
from .components import DiscreteDistribution


@dataclass(frozen=True)
class PowerLawIets:
    """Density a x^(a-1) on (0, 1]; mean a / (a + 1)."""

    exponent: float

    def __post_init__(self):
        if not (isfinite(self.exponent) and self.exponent > 0):
            raise ValueError(f"exponent must be positive, got {self.exponent}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # 1 - U lies in (0, 1], keeping the inverse-CDF draw away from 0.
        return (1.0 - rng.random(size)) ** (1.0 / self.exponent)

    @property
    def mean(self) -> float:
        return self.exponent / (self.exponent + 1.0)

    def __str__(self) -> str:
        return f"power_law:{self.exponent!r}"


@dataclass(frozen=True)
class ExponentialIets:
    """Rate lambda; mean 1 / lambda."""

    rate: float

    def __post_init__(self):
        if not (isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be positive, got {self.rate}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def __str__(self) -> str:
        return f"exponential:{self.rate!r}"


@dataclass(frozen=True)
class DeterministicIets:
    """Fixed positive gap."""

    value: float

    def __post_init__(self):
        if not (isfinite(self.value) and self.value > 0):
            raise ValueError(f"gap must be positive, got {self.value}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    @property
    def mean(self) -> float:
        return self.value

    def __str__(self) -> str:
        return f"deterministic:{self.value!r}"


IetSampler = PowerLawIets | ExponentialIets | DeterministicIets

_SAMPLER_NAMES = {
    "power_law": PowerLawIets,
    "exponential": ExponentialIets,
    "deterministic": DeterministicIets,
}


def parse_iet_sampler(text: str) -> IetSampler:
    """Parse ``name:parameter``, e.g. ``power_law:0.2``."""
    name, sep, param = text.partition(":")
    cls = _SAMPLER_NAMES.get(name.strip())
    if cls is None or not sep:
        raise ValueError(
            f"unknown sampler {text!r}; expected name:parameter with name in "
            f"{sorted(_SAMPLER_NAMES)}"
        )
    try:
        value = float(param)
    except ValueError:
        raise ValueError(f"bad sampler parameter {param!r}") from None
    return cls(value)


@dataclass(frozen=True)
class GeneratorConfig:
    node_count: int
    event_count: int
    iets: IetSampler
    seed: int

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError(f"need at least 2 nodes, got {self.node_count}")
        if self.event_count < 0:
            raise ValueError(f"event_count must be non-negative, got {self.event_count}")


def generate_random(cfg: GeneratorConfig) -> TemporalNetwork:
    """Uniform-pair random temporal network.

    Starting at time 0, each event advances the clock by a sampled gap and
    connects an ordered pair drawn uniformly from the distinct pairs of
    ``node_count`` nodes. Deterministic given the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    m = cfg.event_count
    n = cfg.node_count
    times = np.cumsum(cfg.iets.sample(rng, m))
    # a gap far below the clock's float resolution would stall the clock
    if m > 1 and np.any(np.diff(times) <= 0):
        for k in range(1, m):
            if times[k] <= times[k - 1]:
                times[k] = np.nextafter(times[k - 1], np.inf)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n - 1, m)
    return TemporalNetwork(u, v + (v >= u), times)


def time_shuffle(net: TemporalNetwork, seed: int) -> TemporalNetwork:
    """Null model: permute the time column uniformly over the events.

    The multiset of times and the ordered pair sequence are both kept; only
    their alignment is randomised, which destroys temporal correlations but
    preserves the aggregate graph and the activity profile.

    The times are already sorted: without ties, event ``e`` takes place
    ``perm[e]``, so the inverse permutation orders the node columns and no
    time sort is needed. Tied times keep the stable time sort, which alone
    puts tied events in event order. Either way the columns are those of
    the stable time sort, bit for bit.
    """
    perm = np.random.default_rng(seed).permutation(len(net))
    if net.tie_count:
        return TemporalNetwork(net.sources, net.targets, net.times[perm], net.node_ids)
    order = _inverse(perm)
    return TemporalNetwork(net.sources[order], net.targets[order], net.times, net.node_ids)


def analytic_motif_probabilities(node_count: int) -> DiscreteDistribution:
    """Motif law of the uniform-pair model with unbounded waiting window.

    Each two-node class has probability 1/(4n-6) and each three-node class
    (n-2)/(4n-6). Exact rationals, converted to float masses.
    """
    if node_count < 3:
        raise ValueError(f"need at least 3 nodes, got {node_count}")
    denom = 4 * node_count - 6
    two = Fraction(1, denom)
    three = Fraction(node_count - 2, denom)
    by_class = {m: (two if m.is_two_node else three) for m in MOTIFS}
    assert sum(by_class.values()) == 1
    return DiscreteDistribution(MOTIFS, tuple(float(by_class[m]) for m in MOTIFS))


def ensemble_seeds(seed: int, count: int) -> list[int]:
    """Member seeds for an ensemble: ``seed + index``."""
    return [seed + k for k in range(count)]

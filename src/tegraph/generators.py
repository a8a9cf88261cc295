"""Random temporal networks, the time-shuffle null model, and the analytic
motif law of the uniform-pair model.

The random model draws a global inter-event time before each event and
then an ordered node pair uniformly without replacement, so event times
are strictly increasing (the samplers are almost surely positive) and the
pair sequence is exchangeable. All randomness flows through numpy's
seeded generator; an ensemble member uses ``seed + index``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import isfinite
from typing import get_args

import numpy as np

from .events import TemporalNetwork, _packed_sort
from .motifs import MOTIFS
from .components import DiscreteDistribution
from .teg import _Scratch


class _IetLaw:
    """A law of one finite, positive parameter, spelled ``name:parameter``;
    a subclass gives its ``name`` and the ``noun`` of its parameter."""

    def __init_subclass__(cls, name: str, noun: str):
        cls.name, cls.noun = name, noun

    @property
    def parameter(self) -> float:
        return getattr(self, fields(self)[0].name)

    def __post_init__(self):
        if not (isfinite(self.parameter) and self.parameter > 0):
            raise ValueError(f"{self.noun} must be positive, got {self.parameter}")

    def __str__(self) -> str:
        return f"{self.name}:{self.parameter!r}"


@dataclass(frozen=True)
class PowerLawIets(_IetLaw, name="power_law", noun="exponent"):
    """Density a x^(a-1) on (0, 1]; mean a / (a + 1)."""

    exponent: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # 1 - U lies in (0, 1], keeping the inverse-CDF draw away from 0.
        return (1.0 - rng.random(size)) ** (1.0 / self.exponent)

    @property
    def mean(self) -> float:
        return self.exponent / (self.exponent + 1.0)


@dataclass(frozen=True)
class ExponentialIets(_IetLaw, name="exponential", noun="rate"):
    """Rate lambda; mean 1 / lambda."""

    rate: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class DeterministicIets(_IetLaw, name="deterministic", noun="gap"):
    """Fixed positive gap."""

    value: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    @property
    def mean(self) -> float:
        return self.value


IetSampler = PowerLawIets | ExponentialIets | DeterministicIets

_SAMPLER_NAMES = {law.name: law for law in get_args(IetSampler)}


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
    # a stalled clock (a gap below its float resolution) takes the next float; finite non-negative doubles
    # order as their bits, so the bits are a running maximum of bits[k] - k, plus k (NaN past an inf)
    bits = times.view(np.int64)  # repaired in place
    np.add(np.maximum.accumulate(bits - np.arange(m), out=bits), np.arange(m), out=bits)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n - 1, m)
    return TemporalNetwork(u, v + (v >= u), times)


def _shuffled_columns(net: TemporalNetwork, seed: int, scratch: _Scratch | None = None):
    """Node and time columns of ``time_shuffle(net, seed)``, bit for bit,
    without the network: the columns of a stable time sort of the events
    with their times permuted. The node columns are the even and the odd
    entries of ``scratch.nodes``, the incidence nodes that the event graph's
    sort takes; with a ``scratch`` of as many events, nothing of the
    table's size is allocated.

    The times are already sorted: without ties, event ``e`` takes place
    ``perm[e]``, so its nodes are put there and the times stay. With ties,
    the run of equal times that each event draws is its sort key; a stable
    sort of these keys alone puts tied events in event order, and the drawn
    times are gathered in that order, so that -0.0 and 0.0 keep their places.
    """
    m, times = len(net), net.times
    scratch = scratch or _Scratch(m)
    perm = scratch.perm
    np.copyto(perm, scratch.index[:m])
    np.random.default_rng(seed).shuffle(perm)  # over arange(m), as permutation(m) is drawn
    sources, targets = scratch.nodes[0::2], scratch.nodes[1::2]
    later = np.greater(times[1:], times[:-1], out=scratch.spare[: max(m - 1, 0)])
    if later.all():
        sources[perm], targets[perm] = net.sources, net.targets
        return sources, targets, times
    runs, keys = scratch.work[:m], scratch.work[m:]
    runs[0] = 0
    np.copyto(runs[1:], later)
    np.cumsum(runs, out=runs)  # each event's run of equal times
    np.take(runs, perm, out=keys, mode="clip")  # the run each event draws
    order = runs  # the runs are dead once drawn
    order &= (1 << _packed_sort(keys, scratch.index[:m], order)) - 1
    sources[:] = np.take(net.sources, order, out=keys, mode="clip")
    targets[:] = np.take(net.targets, order, out=keys, mode="clip")
    drawn = np.take(perm, order, out=keys, mode="clip")
    return sources, targets, np.take(times, drawn, out=scratch.times, mode="clip")


def time_shuffle(net: TemporalNetwork, seed: int) -> TemporalNetwork:
    """Null model: permute the time column uniformly over the events.

    The multiset of times and the ordered pair sequence are both kept; only
    their alignment is randomised, which destroys temporal correlations but
    preserves the aggregate graph and the activity profile. Equal times
    keep event order (``_shuffled_columns``).
    """
    return TemporalNetwork(*_shuffled_columns(net, seed), net.node_ids)


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

"""Lossless static representation of temporal networks as event graphs.

A temporal network's events become the vertices of a directed acyclic
graph whose edges join consecutive node-sharing events within a waiting
window, labelled with inter-event times and two-event motif classes. The
labelled graph is a complete representation: strip the events away and the
network can be rebuilt from the labels alone, component by component, up
to translation in time. On top of the representation the package computes
temporal connectivity (components, growth sweeps, barcodes), motif and
inter-event-time statistics with their entropies, aggregate graphs, random
reference models, and a time-shuffle null model, all behind a
deterministic command line.
"""

from .events import (
    Event,
    ParseError,
    TemporalNetwork,
    canonicalize,
    load_events,
    parse_events,
    save_events,
)
from .motifs import MOTIFS, Motif, classify_motif, classify_pair, prescribed_nodes
from .teg import Teg, build_teg, is_dt_adjacent, write_teg_json
from .duality import (
    AnchorError,
    ConsistencyReport,
    EdgeLabelledTeg,
    InconsistentGraphError,
    Violation,
    check_consistency,
    load_edge_labelled,
    reconstruct,
    save_edge_labelled,
    strip_events,
)
from .components import (
    AggregateGraph,
    Component,
    ComponentSet,
    DiscreteDistribution,
    EmpiricalCcdf,
    aggregate_component,
    aggregate_network,
    barcode_rows,
    component_size_distribution,
    cumulative_residual_entropy,
    iet_ccdf,
    motif_counts,
    motif_distribution,
    shannon_entropy,
    sweep_largest_component,
    weakly_connected_components,
)
from .generators import (
    DeterministicIets,
    ExponentialIets,
    GeneratorConfig,
    PowerLawIets,
    analytic_motif_probabilities,
    ensemble_seeds,
    generate_random,
    parse_iet_sampler,
    time_shuffle,
)

__version__ = "0.1.0"

__all__ = [
    "Event",
    "ParseError",
    "TemporalNetwork",
    "canonicalize",
    "load_events",
    "parse_events",
    "save_events",
    "MOTIFS",
    "Motif",
    "classify_motif",
    "classify_pair",
    "prescribed_nodes",
    "Teg",
    "build_teg",
    "is_dt_adjacent",
    "write_teg_json",
    "AnchorError",
    "ConsistencyReport",
    "EdgeLabelledTeg",
    "InconsistentGraphError",
    "Violation",
    "check_consistency",
    "load_edge_labelled",
    "reconstruct",
    "save_edge_labelled",
    "strip_events",
    "AggregateGraph",
    "Component",
    "ComponentSet",
    "DiscreteDistribution",
    "EmpiricalCcdf",
    "aggregate_component",
    "aggregate_network",
    "barcode_rows",
    "component_size_distribution",
    "cumulative_residual_entropy",
    "iet_ccdf",
    "motif_counts",
    "motif_distribution",
    "shannon_entropy",
    "sweep_largest_component",
    "weakly_connected_components",
    "DeterministicIets",
    "ExponentialIets",
    "GeneratorConfig",
    "PowerLawIets",
    "analytic_motif_probabilities",
    "ensemble_seeds",
    "generate_random",
    "parse_iet_sampler",
    "time_shuffle",
    "__version__",
]

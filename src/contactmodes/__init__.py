"""Average eigenspaces and time-localised modes for temporal contact
networks.

The package samples spanning trees from contact traces (BFS on static
graphs, message flooding on temporal ones), joint-diagonalises the tree
matrices to obtain a shared eigenbasis and average graph, clusters the
per-sample deviations into behavioural modes, and validates structure
with spectral clustering and SIR epidemic experiments.  Synthetic
generators with ground-truth labels support end-to-end checks.
"""

from .clustering import (
    Dendrogram,
    DendroNode,
    FiedlerResult,
    fiedler_dendrogram,
    fiedler_vector,
    graph_to_dot,
    shortest_path_graph,
    threshold_graph,
    to_newick,
    zero_diagonal,
)
from .epidemic import (
    SirCurve,
    SirParams,
    SirRun,
    default_params,
    ranking_table,
    run_sir,
    sir_experiment,
)
from .errors import BatchFormatError, ConvergenceError, DataError, TraceFormatError
from .generators import (
    GeneratorSpec,
    SwitchingResult,
    SwitchingSchedule,
    animate_levy,
    default_switching_schedule,
    gen_glp_topology,
    gen_random_contacts,
    gen_switching,
    gen_waxman_topology,
)
from .jointdiag import (
    JdResult,
    OrthoBasis,
    eig_sym,
    joint_diagonalise,
    off2,
    project,
    reconstruct_average,
)
from .modes import (
    GaussComponent,
    ModeModel,
    ModeReport,
    decompose,
    fit_batch_modes,
    fit_gmm_1d,
    gamma_ks,
    kde_density,
    mode_time_histogram,
    per_mode_reconstruction,
    select_modes,
    submode_decompose,
)
from .network import (
    StaticGraph,
    SymMatrix,
    TemporalNetwork,
    aggregate_static,
    ingest_trace,
    read_label_map,
    write_label_map,
    write_trace,
)
from .sampling import (
    SampleBatch,
    TreeSample,
    bfs_tree,
    edge_preference,
    filter_batch,
    flood_tree,
    read_batch,
    sample_batch,
    write_batch,
)
from .seeds import derive_rng, derive_seed_sequence

__version__ = "0.1.0"

__all__ = [
    "BatchFormatError",
    "ConvergenceError",
    "DataError",
    "Dendrogram",
    "DendroNode",
    "FiedlerResult",
    "GaussComponent",
    "GeneratorSpec",
    "JdResult",
    "ModeModel",
    "ModeReport",
    "OrthoBasis",
    "SampleBatch",
    "SirCurve",
    "SirParams",
    "SirRun",
    "StaticGraph",
    "SwitchingResult",
    "SwitchingSchedule",
    "SymMatrix",
    "TemporalNetwork",
    "TraceFormatError",
    "TreeSample",
    "aggregate_static",
    "animate_levy",
    "bfs_tree",
    "decompose",
    "default_params",
    "default_switching_schedule",
    "derive_rng",
    "derive_seed_sequence",
    "edge_preference",
    "eig_sym",
    "filter_batch",
    "fit_batch_modes",
    "fit_gmm_1d",
    "fiedler_dendrogram",
    "fiedler_vector",
    "flood_tree",
    "gamma_ks",
    "gen_glp_topology",
    "gen_random_contacts",
    "gen_switching",
    "gen_waxman_topology",
    "graph_to_dot",
    "ingest_trace",
    "joint_diagonalise",
    "kde_density",
    "mode_time_histogram",
    "off2",
    "per_mode_reconstruction",
    "project",
    "ranking_table",
    "read_batch",
    "read_label_map",
    "reconstruct_average",
    "run_sir",
    "sample_batch",
    "select_modes",
    "shortest_path_graph",
    "sir_experiment",
    "submode_decompose",
    "threshold_graph",
    "to_newick",
    "write_batch",
    "write_label_map",
    "write_trace",
    "zero_diagonal",
]

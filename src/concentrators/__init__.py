"""Concentrator and expander graph families with spectral and combinatorial checks."""

from .permgroup import (
    FiniteGroup,
    Permutation,
    alternating_group,
    closure,
    compose,
    conjugacy_classes,
    cyclic_group,
    from_cycles,
    inverse,
    mathieu12_group,
    orbit_of_set,
    right_cosets,
    seeded_rng,
    symmetric_group,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    bicayley_graph,
    bicoset_graph,
    cayley_graph,
    connected_components,
    coset_graph,
    extended_double_cover,
    gq22_incidence,
)
from .spectral import (
    SpectralReport,
    laplacian_gap,
    magnifier_gap_bound,
    magnifier_gap_check,
    mu_star,
    ramanujan_check,
    sym_eigenvalues,
    tanner_bound,
)
from .designs import (
    BibdParams,
    Design,
    bibd_spectrum_check,
    contraction,
    design_bipartite,
    golay_witt_design,
    mathieu12_designs,
    validate_design,
)
from .characters import (
    BoundInputs,
    CharacterTable,
    bound_eval,
    character_table,
    dim_sum_D,
    dim_sum_DGH,
    weighted_entropy,
)
from .verify import (
    ConcentrationReport,
    bsc_check,
    double_cover_harness,
    expander_check,
    magnifier_constant,
)
from .montecarlo import (
    TrialBatch,
    aggregate_rows,
    enumerate_cayley_tail,
    run_bicoset_trials,
    run_cayley_trials,
    run_coset_trials,
)
from .pipeline import PipelineReport, bicoset_concentrator_report

__all__ = [name for name in dir() if not name.startswith("_")]

"""Gap-preserving reductions between 3-SAT, label cover, and graph problems.

The package lowers CNF formulas into a label cover intermediate
representation, compresses either side of it, and reduces onward to Clique,
Set Cover / Dominating Set, Biclique, Induced Matching, Densest k-Subgraph,
and Induced Path, with exact brute-force oracles that certify each
transformation's completeness/soundness identity on desk-scale instances.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    GapredError,
    GenerationError,
    LedgerError,
    ParseError,
    ReductionError,
    SizeCapError,
    ValidationError,
)
from .instances import (
    CnfFormula,
    Graph,
    LabelCover,
    SetSystem,
    TupleDecoder,
    emit_cnf,
    emit_graph,
    emit_labelcover,
    emit_setsystem,
    parse_cnf,
    parse_graph,
    parse_labelcover,
    parse_setsystem,
    random_cnf,
    random_graph,
)
from .oracles import (
    SolveBudget,
    biclique,
    clique,
    count_ktt,
    densest_k,
    dom_set,
    independent_set,
    induced_matching,
    induced_path,
    induced_path_at_least,
    max_cov,
    max_induced_with_property,
    min_lab,
    sat_max,
    set_cover,
)
from .dispersers import (
    Disperser,
    deterministic_disperser,
    disperser_subset_size,
    emit_disperser,
    lift_disperser,
    parse_disperser,
    random_disperser,
    verify_disperser,
)
from .lc_transforms import (
    cnf_to_labelcover,
    compress_left,
    compress_left_with,
    compress_right,
    minlab_instance,
    projection_check,
)
from .graph_reductions import (
    biclique_gadget,
    clique_to_inducedpath,
    dks_edge,
    dks_vertices,
    fglss,
    hereditary_bridge,
    im_gadget,
    is_to_im_gadget,
    minlab_to_setcov,
    ramsey_binomial_bound,
    sat_to_dks,
    setcov_to_domset,
)
from .gap_ledger import (
    GapLedger,
    GapMap,
    StageEntry,
    StagePredicate,
    push_stage,
    report,
)
from .pipelines import (
    PipelineSpec,
    gen_cnf_gap,
    gen_gap_cnf,
    gen_planted_cnf,
    run_pipeline,
    verify_pipeline,
)

"""cellnet: compile finite occurrence Petri nets, with probability
distributions on their structural branching cells, into row-stochastic
matrix arrows, and reason about markings with forward/backward Bayesian
inference.  An independent event-structure oracle cross-checks the
compiled semantics."""

from .cells import (
    CellLeaf,
    IdentityLeaf,
    MarkedView,
    ParNode,
    PlaceRemoval,
    SCell,
    SeqNode,
    at_marking,
    canonical_form,
    cell_order,
    fold_tree,
    parallel_compose,
    remove_places,
    render_tree,
    scell_preorder,
    scells,
    sequential_compose,
)
from .compiler import compile_cell, compile_net
from .diagram import export_diagram
from .errors import (
    CellnetError,
    CompileError,
    CompositionError,
    DeltaError,
    FileFormatError,
    InferenceError,
    InterfaceWidthError,
    NetError,
    OccurrenceError,
    TermError,
    TermSyntaxError,
    WiringError,
)
from .inference import (
    Predicate,
    State,
    condition,
    forward,
    marginalize,
    pullback,
    restrict_state,
    validity,
)
from .kleisli import (
    DeltaTable,
    Dist,
    KleisliArrow,
    Wiring,
    arrow_to_csv,
    arrow_to_json,
    compose_arrows,
    constant_arrow,
    copair,
    dead_arrow,
    dump_delta,
    format_arrow,
    identity_arrow,
    interpret,
    lex_wiring,
    load_delta,
    permutation_arrow,
    stochastic_tolerance,
    tensor,
    uniform_dist,
    validate_delta,
)
from .netfile import load_net, parse_net, render_net
from .nets import (
    MarkedNet,
    Net,
    Process,
    enumerate_transactions,
    fire,
    identity_net,
    isolated_places,
    max_places,
    min_places,
    validate_occurrence,
)
from .oracle import (
    PES,
    branching_cells,
    check_correspondence,
    conf_of_term,
    configurations_within,
    enumerate_outcome_distribution,
    future,
    initial_stopping_prefixes,
    maximal_r_stopped,
    pes_of_net,
    r_stopped_configs,
    sample_outcome_distribution,
)
from .terms import (
    Constant,
    ConstantKey,
    Dead,
    Identity,
    Par,
    Seq,
    Sum,
    Term,
    TermType,
    constants_of,
    make_sum,
    normalize,
    parse_term,
    render_term,
    typecheck,
)

__all__ = [name for name in dir() if not name.startswith("_")]

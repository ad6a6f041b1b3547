"""cellnet: compile finite occurrence Petri nets, with probability
distributions on their structural branching cells, into row-stochastic
matrix arrows, and reason about markings with forward/backward Bayesian
inference.  An event-structure oracle cross-checks the configurations
of the compiled terms.  The names imported here are the documented API
(README, "Python API"), and ``__all__`` lists exactly them.
"""

from types import ModuleType as _ModuleType

from .cells import (
    CellLeaf,
    IdentityLeaf,
    ParNode,
    SCell,
    SeqNode,
    canonical_form,
    cell_order,
    fold_tree,
    parallel_compose,
    render_tree,
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
    parse_state,
    pullback,
    validity,
)
from .kleisli import (
    DeltaProblem,
    DeltaReport,
    DeltaTable,
    Dist,
    KleisliArrow,
    Wiring,
    arrow_to_csv,
    arrow_to_json,
    dump_delta,
    format_arrow,
    interpret,
    lex_wiring,
    load_delta,
    permutation_arrow,
    uniform_dist,
    validate_delta,
)
from .netfile import load_net, parse_net, render_net
from .nets import (
    MarkedNet,
    Net,
    Process,
    ValidationReport,
    Violation,
    enumerate_transactions,
    fire,
    fire_at,
    identity_net,
    isolated_places,
    max_places,
    min_places,
    validate_occurrence,
)
from .oracle import (
    PES,
    CorrespondenceCase,
    CorrespondenceReport,
    OutcomeDistribution,
    RStopped,
    SampleSummary,
    check_correspondence,
    conf_of_term,
    enumerate_outcome_distribution,
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

# the imported names, without the submodules that the imports bind here
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))

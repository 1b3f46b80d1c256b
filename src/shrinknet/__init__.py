"""Network reconstruction from expression data with global-local shrinkage."""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    ExpressionMatrix,
    load_expression_matrix,
    standardize,
)
from .em import (  # noqa: F401
    EmConfig,
    SemFit,
    fit_sem,
)
from .pipeline import InferenceResult, infer_network  # noqa: F401
from .selection import (  # noqa: F401
    EdgeRanking,
    SelectionResult,
    StopConfig,
    estimate_p0,
    forward_select,
    kappa_scores,
    rank_edges,
    threshold_gamma,
)
from .simulate import (  # noqa: F401
    GraphSpec,
    PrecisionMatrix,
    make_structure,
    sample_mvn,
    sample_precision,
)
from .vb import (  # noqa: F401
    HyperParameters,
    VariationalPosterior,
    fit_local,
    vb_sweep,
)

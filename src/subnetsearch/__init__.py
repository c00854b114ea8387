"""Hardware-aware Pareto search over sub-network configurations.

Search spaces are fixed-length integer genomes with block activity rules;
searches run NSGA-II directly against measurements or against cheap surrogate
predictors (one search loop under the full and concurrent tactics), and search
history can be distilled into a reduced space via density-based constraint
extraction.
"""

from .errors import SubnetSearchError
from .evalmgr import (
    EvaluationRecord,
    ExternalEvaluator,
    ResultStore,
    SyntheticSurface,
    SyntheticSurfaceEvaluator,
    TableEvaluator,
    evaluate_batch,
    make_surface,
    synthetic_evaluate,
)
from .evolver import (
    EvolverConfig,
    SearchTrace,
    evolve,
    non_dominated_sort,
)
from .driver import (
    ConcurrentNasConfig,
    FullSearchConfig,
    PredictorConfig,
    SearchConfig,
    SearchReport,
    hypervolume_trace,
    search,
)
from .objectives import (
    LatencyNormalizer,
    ObjectiveSpec,
    FrontColumns,
    ObjectiveVector,
    dominates,
    normalize_latency,
    pareto_front,
)
from .popdb import (
    ClusterLabeling,
    build_constraints,
    constrain_space,
    elastic_frequencies,
    hdbscan,
)
from .predict import (
    KernelSpec,
    RidgeModel,
    SvrModel,
    fit_ridge,
    fit_svr,
    kendall_tau,
    mape,
    predict,
)
from .space import (
    BlockRule,
    ElasticParamSpec,
    Genotype,
    SearchSpace,
    canonicalize,
    cardinality,
    enumerate_genotypes,
    get_preset,
    sample_uniform,
)

__version__ = "0.1.0"

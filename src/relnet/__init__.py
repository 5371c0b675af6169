"""relnet: relational graphs translated into masked fixed-width MLPs.

The package builds graphs (random, scale-free, community-composed, imported
connectomes), maps them onto block-masked multilayer perceptrons through
rounds of message exchange, trains those networks on image-classification
data, and sweeps structural parameters into analysis-ready CSV grids.
"""

from types import ModuleType as _ModuleType

from .connectome import import_connectome, matched_er, sample_subgraph
from .datasets import Dataset, batch_iter, load_cifar10, synthetic_blobs
from .errors import (
    EdgeSaturation,
    FitError,
    FormatError,
    InvalidNodeId,
    InvalidValue,
    NumericError,
    RelnetError,
    ShapeError,
    TooLarge,
    TooManyCommunities,
    TooManyNodes,
    TooSmall,
    WorkerLost,
)
from .generators import (
    GenerationInfo,
    GeneratorSpec,
    gen_complete,
    gen_er,
    gen_static_sf,
    generate_with_info,
)
from .graphs import (
    Graph,
    GraphMetrics,
    clustering_coefficient,
    compute_metrics,
    cross_density,
    from_edge_pairs,
    induced_subgraph,
    largest_component,
    modularity,
    read_edge_list,
    write_edge_list,
)
from .model import (
    LayerMask,
    MlpModel,
    build_mask,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    unit_owners,
)
from .seeding import child_seed, splitmix64
from .sweep import (
    CorrelationReport,
    ExperimentRecord,
    SweepSpec,
    aggregate,
    correlation_report,
    read_records_csv,
    run_sweep,
    write_records_csv,
)
from .training import (
    EvalResult,
    SgdState,
    TrainConfig,
    evaluate,
    loss_and_grads,
    lr_at,
    sgd_step,
    train,
)

__version__ = "0.1.0"

# Every public name bound above, modules (`relnet.sweep`, say) aside.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

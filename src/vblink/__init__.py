"""Entity resolution for noisy categorical databases.

Records from several databases are modeled as noisy copies of latent
individuals: each record picks an individual uniformly at random and each
categorical field value is drawn from that individual's field-specific
distribution, itself under a Dirichlet prior.  Fitting is mean-field
coordinate ascent on the evidence lower bound; tiny instances can be
checked against exact enumeration.
"""

from .corpus import (
    Corpus,
    MissingValueError,
    Schema,
    SchemaError,
    UnknownAttributeError,
    load_databases,
    read_schema_file,
    write_databases,
    write_schema_file,
)
from .engine import (
    FitReport,
    HyperParams,
    NumericalFailureError,
    VariationalState,
    elbo,
    elbo_grad_lambda,
    fit,
    init_state,
    load_state,
    save_state,
    update_lambda,
    update_phi,
)
from .evaluate import (
    Linkage,
    LinkageScore,
    map_linkage,
    pairwise_metrics,
    posterior_cocluster_estimate,
    read_ground_truth,
    read_linkage,
    write_linkage,
)
from .genmodel import (
    GenConfig,
    GroundTruth,
    resolve_alpha,
    sample_dataset,
    write_ground_truth,
)
from .oracle import (
    EnumerationBudgetError,
    ExactPosterior,
    exact_posterior,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "EnumerationBudgetError",
    "ExactPosterior",
    "FitReport",
    "GenConfig",
    "GroundTruth",
    "HyperParams",
    "Linkage",
    "LinkageScore",
    "MissingValueError",
    "NumericalFailureError",
    "Schema",
    "SchemaError",
    "UnknownAttributeError",
    "VariationalState",
    "elbo",
    "elbo_grad_lambda",
    "exact_posterior",
    "fit",
    "init_state",
    "load_databases",
    "load_state",
    "map_linkage",
    "pairwise_metrics",
    "posterior_cocluster_estimate",
    "read_ground_truth",
    "read_linkage",
    "read_schema_file",
    "resolve_alpha",
    "sample_dataset",
    "save_state",
    "update_lambda",
    "update_phi",
    "write_databases",
    "write_ground_truth",
    "write_linkage",
    "write_schema_file",
]

"""kdiss: clone-probe pattern dissimilarity, applied to population pyramids.

The library measures how dissimilar two patterns are by cloning the query
pattern, offsetting one clone's extra probe parameter by a small delta, and
finding the probe weight at which iterative averaging regroups the unoffset
clone with the target (in closed form; the paper's search stays as the
oracle).  The resulting coefficient K is stable
across delta, decomposes exactly over parameters, and underpins the
pyramid-specific indices (MU, uniform-component share) and reporting tools.
"""

from .averaging import AveragingConfig, Bipartition, average_once, bipartition, pair_max_split
from .dissimilarity import (
    ComparisonResult,
    IncrementStore,
    ProbeConfig,
    batch_compare,
    closed_form_k,
    compare,
    grouped_with_target,
    switch_weight,
)
from .errors import (
    DegenerateSymmetryError,
    DomainError,
    KdissError,
    NonPolarizedError,
    NotSwitchedError,
    SchemaError,
    StoreLookupError,
)
from .indexes import (
    IndexRow,
    build_index_rows,
    mu_index,
    p_uniform,
    read_index_csv,
    sex_split_k,
    sum_constancy,
    write_index_csv,
)
from .pyramids import (
    COHORTS,
    FEMALE_COHORTS,
    MALE_COHORTS,
    PyramidTable,
    exponential_model,
    ingest,
    long_to_wide,
    normalize,
    sex_slice,
    uniform_model,
    write_pyramid_csv,
)
from .report import (
    IndicatorTable,
    ScatterSeries,
    emit,
    fit_series,
    join,
    linear_fit,
    pearson,
    ppb,
    read_indicators,
)
from .similarity import (
    ObjectRecord,
    SimilarityMatrix,
    WeightedParameterSet,
    blend,
    blend_from_objects,
    parameter_matrix,
    r_similarity,
)

__version__ = "0.1.0"

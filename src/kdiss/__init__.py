"""kdiss: clone-probe pattern dissimilarity, applied to population pyramids.

The library measures how dissimilar two patterns are by cloning the query
pattern, offsetting one clone's extra probe parameter by a small delta, and
finding the probe weight at which iterative averaging regroups the unoffset
clone with the target (in closed form; the paper's search stays as the
oracle).  The resulting coefficient K is stable
across delta, decomposes exactly over parameters, and underpins the
pyramid-specific indices (MU, uniform-component share) and reporting tools.

The public names below load their module on first use.  _HOMES is the one
list of them, by the module that defines each: that module's __all__ is its
entry here.
"""

__version__ = "0.1.0"

_HOMES = {
    "averaging": ("AveragingConfig", "Bipartition", "average_once", "bipartition", "pair_max_split"),
    "dissimilarity": ("grouped_with_target", "switch_weight"),
    "errors": (
        "DegenerateSymmetryError",
        "DomainError",
        "KdissError",
        "NonPolarizedError",
        "NotSwitchedError",
        "SchemaError",
        "StoreLookupError",
    ),
    "formats": (
        "AGE_STARTS",
        "COHORTS",
        "FEMALE_COHORTS",
        "INDEX_COLUMNS",
        "MALE_COHORTS",
        "IndexRow",
        "read_index_csv",
        "write_index_csv",
    ),
    "indexes": ("build_index_rows", "mu_index", "p_uniform", "sex_split_k", "sum_constancy"),
    "kernel": (
        "ComparisonResult",
        "ObjectRecord",
        "ProbeConfig",
        "batch_compare",
        "closed_form_k",
        "compare",
        "r_similarity",
    ),
    "pyramids": (
        "PyramidTable",
        "cohort_totals",
        "exponential_model",
        "ingest",
        "long_to_wide",
        "normalize",
        "uniform_model",
        "write_pyramid_csv",
    ),
    "report": (
        "IndicatorTable",
        "ScatterSeries",
        "emit",
        "fit_series",
        "join",
        "linear_fit",
        "pearson",
        "ppb",
        "read_indicators",
    ),
    "similarity": ("SimilarityMatrix", "WeightedParameterSet", "blend", "blend_from_objects", "parameter_matrix"),
    "store": ("IncrementStore",),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_MODULE_OF)


def _load(namespace: dict, module_of: dict, name: str):
    """Bind namespace[name] as `from .<module_of[name]> import name`, which -X importtime shows."""
    if name not in module_of:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    value = namespace[name] = getattr(__import__(module_of[name], namespace, None, (name,), 1), name)
    return value


def __getattr__(name: str):
    return _load(globals(), _MODULE_OF, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

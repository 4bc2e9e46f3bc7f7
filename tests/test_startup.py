"""Which commands load numpy, and the import paths kept for moved names.

Each command runs as ``python -X importtime -m kdiss.cli ...`` in a fresh
interpreter with ``PYTHONPATH=src``; the import-time log on stderr lists
every module the process imported.  ``report``, ``store combine``,
``--help`` and usage errors must not import numpy.  The commands that
compute K must still produce the tracked demo outputs byte for byte.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"
OUTPUT = ROOT / "demos" / "output"
PYRAMIDS = DATA / "demo_pyramids.csv"
INDICATORS = DATA / "demo_indicators.csv"

# every public name the package exported when it loaded all its modules eagerly
PUBLIC_NAMES = (
    "AveragingConfig", "Bipartition", "COHORTS", "ComparisonResult", "DegenerateSymmetryError",
    "DomainError", "FEMALE_COHORTS", "IncrementStore", "IndexRow", "IndicatorTable", "KdissError",
    "MALE_COHORTS", "NonPolarizedError", "NotSwitchedError", "ObjectRecord", "ProbeConfig",
    "PyramidTable", "ScatterSeries", "SchemaError", "SimilarityMatrix", "StoreLookupError",
    "WeightedParameterSet", "average_once", "batch_compare", "bipartition", "blend",
    "blend_from_objects", "build_index_rows", "closed_form_k", "compare", "emit",
    "exponential_model", "fit_series", "grouped_with_target", "ingest", "join", "linear_fit",
    "long_to_wide", "mu_index", "normalize", "p_uniform", "pair_max_split", "parameter_matrix",
    "pearson", "ppb", "r_similarity", "read_index_csv", "read_indicators", "sex_slice",
    "sex_split_k", "sum_constancy", "switch_weight", "uniform_model", "write_index_csv",
    "write_pyramid_csv",
)
_IMPORTED = re.compile(r"^import time:\s*\d+ \|\s*\d+ \|\s*(\S+)\s*$")


def run_python(*args):
    """(exit code, stdout bytes, non-import stderr lines, imported module names)."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *map(str, args)], env=env, capture_output=True, timeout=120
    )
    modules, messages = set(), []
    for line in done.stderr.decode("utf-8").splitlines():
        match = _IMPORTED.match(line)
        if match:
            modules.add(match.group(1))
        elif not line.startswith("import time:"):
            messages.append(line)
    return done.returncode, done.stdout, messages, modules


def kdiss(*args):
    return run_python("-m", "kdiss.cli", *args)


def test_import_cli_loads_no_numpy():
    code, _, messages, modules = run_python("-c", "import kdiss.cli")
    assert code == 0, messages
    assert "kdiss.cli" in modules
    assert "numpy" not in modules
    assert not {"kdiss.dissimilarity", "kdiss.pyramids", "kdiss.indexes", "kdiss.similarity"} & modules


def test_help_and_usage_errors_load_no_numpy():
    code, out, _, modules = kdiss("--help")
    assert code == 0 and out.startswith(b"usage: kdiss")
    assert "numpy" not in modules
    code, _, messages, modules = kdiss("mu", str(PYRAMIDS))
    assert code == 2 and "required" in messages[-1]
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "y, fmt, tracked", [("ppb", "csv", "mu_vs_ppb.csv"), ("gdp", "svg", "mu_vs_gdp.svg")]
)
def test_report_loads_no_numpy(y, fmt, tracked):
    code, out, messages, modules = kdiss(
        "report", "--indexes", OUTPUT / "index.csv", "--indicators", INDICATORS, "--x", "mu", "--y", y,
        "--format", fmt,
    )
    assert code == 0, messages
    assert out == (OUTPUT / tracked).read_bytes()
    assert "numpy" not in modules


def test_store_put_loads_numpy_and_combine_does_not(tmp_path):
    store = tmp_path / "increments.tsv"
    pair = ("--query", "country00", "--target", "country07")
    code, out, messages, modules = kdiss("store", "put", "--store", store, "--data", PYRAMIDS, *pair, "--delta", "0.001")
    assert code == 0, messages
    assert out == b"stored 34 increments for (country00, country07)\n"
    assert store.read_bytes() == (OUTPUT / "increments.tsv").read_bytes()
    assert "numpy" in modules

    code, out, messages, modules = kdiss("store", "combine", "--store", store, *pair, "--params", "female")
    assert code == 0, messages
    assert out == b"7.923710012255547\n"
    assert "numpy" not in modules

    code, out, messages, modules = kdiss("store", "combine", "--store", store, "--query", "x", "--target", "y")
    assert code == 1 and out == b""
    assert messages == ["error: no records for ('x', 'y')"]
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "argv, tracked",
    [
        (("batch", PYRAMIDS, "--model", "exp:0.30", "--delta", "0.001"), "batch.csv"),
        (("mu", PYRAMIDS, "country07", "country00", "--delta", "0.001"), "index.csv"),
        (("punif", PYRAMIDS, "--delta", "0.001"), "punif.csv"),
        (("ingest", PYRAMIDS), "normalized.csv"),
    ],
)
def test_engine_commands_keep_their_output(argv, tracked):
    code, out, messages, modules = kdiss(*argv)
    assert code == 0, messages
    assert out == (OUTPUT / tracked).read_bytes()
    assert "numpy" in modules


def test_moved_names_keep_their_old_paths():
    import kdiss
    import kdiss.dissimilarity
    import kdiss.formats
    import kdiss.indexes
    import kdiss.pyramids
    import kdiss.store

    assert kdiss.dissimilarity.IncrementStore is kdiss.store.IncrementStore is kdiss.IncrementStore
    for name in ("IndexRow", "INDEX_COLUMNS", "read_index_csv", "write_index_csv"):
        assert getattr(kdiss.indexes, name) is getattr(kdiss.formats, name)
    for name in ("COHORTS", "MALE_COHORTS", "FEMALE_COHORTS", "AGE_STARTS"):
        assert getattr(kdiss.pyramids, name) is getattr(kdiss.formats, name)


def test_package_exports_every_public_name():
    import kdiss

    namespace: dict = {}
    exec("from kdiss import *", namespace)
    assert set(PUBLIC_NAMES) == set(kdiss.__all__) <= set(namespace)
    for name in PUBLIC_NAMES:
        exec(f"from kdiss import {name}", {})
    assert namespace["compare"] is sys.modules["kdiss.dissimilarity"].compare
    assert "compare" in dir(kdiss)
    with pytest.raises(AttributeError):
        kdiss.no_such_name

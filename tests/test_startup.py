"""Each command imports only what it runs, and each public name has one home.

Each command runs as ``python -S -X importtime -m kdiss.cli ...`` in a fresh
interpreter with ``PYTHONPATH=src``: without the site module nothing but the
standard library and ``src/`` can be imported, and any warning raises, an ``open()`` without an explicit encoding's
among them (``-X warn_default_encoding -W error``).
The import-time log on stderr lists every module the process imported, and
each is a standard-library module or kdiss's own.  No command, usage error or
``--help`` may import numpy, ``dataclasses`` or ``inspect``; the engine commands leave
out the report and the store, only ``mu`` and ``punif`` load the indexes, and
``report`` and ``store combine`` leave out the engine.  The commands that
compute K must still produce the tracked demo outputs byte for byte.  The
same commands also run in an interpreter where importing numpy fails.  The
process entry gives each command's exit code, stdout, stderr and files as
main() gives them in-process, and main() in a process that collects its
garbage and tears down as usual leaves no file unclosed (``-X dev``), which
the process entry's frozen heap would not show.
Neither the package's public names nor the paper's oracle (the search, the
grouping predicate, a bipartition) import numpy or ``dataclasses``.  Each submodule's ``__all__`` is its entry in
``kdiss._HOMES``, the one list of public names, each a name it defines, and ``kdiss`` reaches every one of them, as
``kdiss.cli`` reaches each name of the modules its commands declare.  Every ``kdiss`` name that
a ``bench/*.py`` file imports exists.
"""

import ast
import hashlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import STRICT_WARNINGS
from kdiss.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"
OUTPUT = ROOT / "demos" / "output"
PYRAMIDS = DATA / "demo_pyramids.csv"
INDICATORS = DATA / "demo_indicators.csv"

# every public name of the package
PUBLIC_NAMES = (
    "AGE_STARTS", "AveragingConfig", "Bipartition", "COHORTS", "ComparisonResult",
    "DegenerateSymmetryError", "DomainError", "FEMALE_COHORTS", "INDEX_COLUMNS", "IncrementStore",
    "IndexRow", "IndicatorTable", "KdissError", "MALE_COHORTS", "NonPolarizedError",
    "NotSwitchedError", "ObjectRecord", "ProbeConfig", "PyramidTable", "ScatterSeries",
    "SchemaError", "SimilarityMatrix", "StoreLookupError", "WeightedParameterSet", "average_once",
    "batch_compare", "bipartition", "blend", "blend_from_objects", "build_index_rows",
    "closed_form_k", "cohort_totals", "compare", "emit", "exponential_model", "fit_series",
    "grouped_with_target", "ingest", "join", "linear_fit", "long_to_wide", "mu_index", "normalize",
    "p_uniform", "pair_max_split", "parameter_matrix", "pearson", "ppb", "r_similarity",
    "read_index_csv", "read_indicators", "sex_split_k", "sum_constancy",
    "switch_weight", "uniform_model", "write_index_csv", "write_pyramid_csv",
)
_IMPORTED = re.compile(r"^import time:\s*\d+ \|\s*\d+ \|\s*(\S+)\s*$")


# no site-packages, so only the standard library and src/ can be imported
PRISTINE = ("-S", *STRICT_WARNINGS)


def run_python(*args):
    """(exit code, stdout bytes, non-import stderr lines, imported module names)."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, *PRISTINE, "-X", "importtime", *map(str, args)], env=env, capture_output=True, timeout=120
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


def kdiss_without_numpy(*args):
    """kdiss(*args) in an interpreter in which every numpy import raises ImportError."""
    blocked = "import runpy, sys; sys.modules['numpy'] = None; runpy.run_module('kdiss.cli', run_name='__main__')"
    return run_python("-c", blocked, *args)


def test_import_cli_loads_no_numpy():
    code, _, messages, modules = run_python("-c", "import kdiss.cli")
    assert code == 0, messages
    assert "kdiss.cli" in modules
    assert "numpy" not in modules
    assert not {"kdiss.dissimilarity", "kdiss.pyramids", "kdiss.indexes", "kdiss.similarity"} & modules


# kdiss modules every CLI process imports, and those of the engine
CORE = {"kdiss", "kdiss.errors", "kdiss.formats"}
ENGINE = CORE | {"kdiss.kernel", "kdiss.pyramids"}
INDEXES = ENGINE | {"kdiss.indexes"}
# stdlib modules that cost more to import than a whole engine command runs; the
# exact D is whole-integer arithmetic, so fractions and decimal are among them
HEAVY = {"dataclasses", "decimal", "fractions", "inspect"}
STDLIB = set(sys.stdlib_module_names) | {"kdiss"}
PAIR = ("--query", "country00", "--target", "country07")
REPORT = ("report", "--indexes", OUTPUT / "index.csv", "--indicators", INDICATORS, "--x", "mu")


def test_import_cli_loads_only_its_own_modules():
    code, _, messages, modules = run_python("-c", "import kdiss.cli")
    assert code == 0, messages
    assert not HEAVY & modules
    assert {m for m in modules if m.startswith("kdiss")} == CORE | {"kdiss.cli"}


def test_package_name_loads_only_its_module():
    code, _, messages, modules = run_python("-c", "import kdiss; kdiss.IncrementStore")
    assert code == 0, messages
    assert {m for m in modules if m.startswith("kdiss")} == {"kdiss", "kdiss.errors", "kdiss.store"}


# every command, --help, usage errors, a data error and a missing path: (argv, exit code, kdiss modules
# imported); "{tmp}" is a fresh path in the test's directory
COMMANDS = [
    (("--help",), 0, CORE),
    (("report", "--help"), 0, CORE),
    (("mu", PYRAMIDS), 2, CORE),
    (("ingest", PYRAMIDS), 0, ENGINE),
    (("compare", PYRAMIDS, "country00", "country07"), 0, ENGINE),
    (("batch", PYRAMIDS, "--model", "exp:0.30"), 0, ENGINE),
    (("batch", PYRAMIDS, "--query", "country03"), 0, ENGINE),
    (("mu", PYRAMIDS, "country07", "country00"), 0, INDEXES),
    (("model", "uniform"), 0, ENGINE),
    (("punif", PYRAMIDS), 0, INDEXES),
    (("store", "put", "--store", "{tmp}", "--data", PYRAMIDS, *PAIR), 0, ENGINE | {"kdiss.store"}),
    (("store", "combine", "--store", OUTPUT / "increments.tsv", *PAIR), 0, CORE | {"kdiss.store"}),
    ((*REPORT, "--y", "ppb"), 0, CORE | {"kdiss.report"}),
    ((*REPORT, "--y", "gdp", "--format", "svg"), 0, CORE | {"kdiss.report"}),
    (("batch", PYRAMIDS, "--model", "quadratic"), 2, CORE),
    (("batch", PYRAMIDS, "--model", "exp:0.30", "--out", "{tmp}"), 0, ENGINE),
    (("compare", PYRAMIDS, "country00", "atlantis"), 1, ENGINE),
    (("batch", DATA / "missing.csv", "--model", "uniform"), 2, ENGINE),
]


def _with_tmp(argv, tmp_path) -> list[str]:
    return [str(tmp_path / "out") if a == "{tmp}" else str(a) for a in argv]


@pytest.mark.parametrize("argv, exit_code, expected", COMMANDS)
def test_each_command_imports_only_what_it_runs(argv, exit_code, expected, tmp_path, capsysbinary, monkeypatch):
    """Each command imports only what it runs, and the process entry (``python -m kdiss.cli``)
    exits with the code and writes the stdout, stderr and files that main() gives in-process."""
    monkeypatch.setenv("COLUMNS", "80")  # --help's width: in-process, argparse would read a terminal's
    argv = _with_tmp(argv, tmp_path)
    # ENGINE and INDEXES hold modules the CLI binds lazily, so the log is seen to list them
    code, out, messages, modules = kdiss(*argv)
    assert code == exit_code, messages
    assert not HEAVY & modules
    assert {m for m in modules if m.startswith("kdiss")} == expected
    assert {m.partition(".")[0] for m in modules} <= STDLIB

    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    for path in tmp_path.iterdir():
        path.unlink()
    try:
        in_process = main(argv)
    except SystemExit as exc:  # argparse's exit on --help and its usage errors
        in_process = exc.code
    captured = capsysbinary.readouterr()
    assert (in_process, captured.out, captured.err.decode("utf-8").splitlines()) == (code, out, messages)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written


# main() in a process that collects its garbage and tears down as usual: an object left
# unclosed warns there, where the process entry's frozen heap would let it go unnoticed
MAIN_WITH_TEARDOWN = "import gc, sys; from kdiss.cli import main; code = main(sys.argv[1:]); gc.collect(); sys.exit(code)"


@pytest.mark.parametrize("argv, exit_code, expected", COMMANDS)
def test_each_command_leaves_nothing_unclosed(argv, exit_code, expected, tmp_path):
    code, _, messages, _ = run_python("-X", "dev", "-c", MAIN_WITH_TEARDOWN, *_with_tmp(argv, tmp_path))
    assert code == exit_code, messages
    assert not [m for m in messages if "ResourceWarning" in m or "Exception ignored" in m], messages


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


def test_store_put_and_combine_load_no_numpy(tmp_path):
    store = tmp_path / "increments.tsv"
    pair = ("--query", "country00", "--target", "country07")
    code, out, messages, modules = kdiss("store", "put", "--store", store, "--data", PYRAMIDS, *pair, "--delta", "0.001")
    assert code == 0, messages
    assert out == b"stored 34 increments for (country00, country07)\n"
    assert store.read_bytes() == (OUTPUT / "increments.tsv").read_bytes()
    assert "numpy" not in modules

    code, out, messages, modules = kdiss("store", "combine", "--store", store, *pair, "--params", "female")
    assert code == 0, messages
    assert out == b"7.923710012255545\n"
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
    assert "numpy" not in modules


# sha256 of what the commands without a tracked output print (the first three as the numpy engine printed them)
UNTRACKED = {
    "batch-query": "9f7c54e5fb89a9a3cb4110b18cbdc197bfdeb53d7f4242a40c58af79f48e4fd1",
    "model-exp": "429841c29074cc65e545f2f81ce26fa1b95e7dc3e4d734aac34134aa01839116",
    "compare-increments": "fe9270cc13aa9e739421583eb9cd8dfa390f1d7b78f890f90ed6ce0f2c6854af",
    "compare-out": "17e26e619667bcd903192745e9d688238eea6eb86be2d7f4016d2922cb518973",
}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("ingest", PYRAMIDS), "normalized.csv"),
        (("batch", PYRAMIDS, "--model", "exp:0.30", "--delta", "0.001"), "batch.csv"),
        (("batch", PYRAMIDS, "--query", "country03", "--delta", "0.001"), "batch-query"),
        (("mu", PYRAMIDS, "country07", "country00", "--delta", "0.001"), "index.csv"),
        (("punif", PYRAMIDS, "--delta", "0.001"), "punif.csv"),
        (("model", "exp:0.30"), "model-exp"),
        (("compare", PYRAMIDS, "country00", "country07", "--delta", "0.001", "--increments"), "compare-increments"),
        (("report", "--indexes", OUTPUT / "index.csv", "--indicators", INDICATORS, "--x", "mu", "--y", "ppb"),
         "mu_vs_ppb.csv"),
        (("report", "--indexes", OUTPUT / "index.csv", "--indicators", INDICATORS, "--x", "mu", "--y", "gdp",
          "--format", "svg"), "mu_vs_gdp.svg"),
    ],
)
def test_commands_run_with_numpy_blocked(argv, expected):
    code, out, messages, _ = kdiss_without_numpy(*argv)
    assert code == 0, messages
    if expected in UNTRACKED:
        assert hashlib.sha256(out).hexdigest() == UNTRACKED[expected]
    else:
        assert out == (OUTPUT / expected).read_bytes()


# every public name, then the paper's oracle: the search, one predicate call, a 3-object split
ORACLE = """
import kdiss
for name in kdiss.__all__:
    getattr(kdiss, name)
q = kdiss.ObjectRecord.from_values("q", ("a", "b", "c"), (1.0, 2.0, 3.0))
t = kdiss.ObjectRecord.from_values("t", ("a", "b", "c"), (1.5, 2.0, 2.0))
cfg = kdiss.ProbeConfig(delta=0.01)
w = kdiss.switch_weight(q, t, cfg)
print(kdiss.grouped_with_target(q, t, cfg, w), kdiss.grouped_with_target(q, t, cfg, 0.5 * w))
entries = [[1.0, 0.2, 0.9], [0.2, 1.0, 0.25], [0.9, 0.25, 1.0]]
parts = kdiss.bipartition(kdiss.SimilarityMatrix(tuple("xyz"), entries))
print(sorted(parts.group_a), sorted(parts.group_b), parts.iterations_used)
"""


def test_public_names_and_oracle_load_neither_numpy_nor_dataclasses():
    code, out, messages, modules = run_python("-c", ORACLE)
    assert code == 0, messages
    assert out.decode().splitlines() == ["True False", "['x', 'z'] ['y'] 1"]
    assert {"kdiss.similarity", "kdiss.averaging", "kdiss.dissimilarity"} <= modules
    assert not {"numpy", "dataclasses"} & modules
    assert {m.partition(".")[0] for m in modules} <= STDLIB


def test_numpy_is_really_blocked():
    blocked = "import sys; sys.modules['numpy'] = None; import numpy"
    code, _, messages, _ = run_python("-c", blocked)
    assert code == 1 and "import of numpy halted" in messages[-1]


def test_store_put_and_compare_out_with_numpy_blocked(tmp_path):
    store, table = tmp_path / "increments.tsv", tmp_path / "increments.csv"
    pair = ("--query", "country00", "--target", "country07")
    code, out, messages, _ = kdiss_without_numpy(
        "store", "put", "--store", store, "--data", PYRAMIDS, *pair, "--delta", "0.001"
    )
    assert code == 0, messages
    assert out == b"stored 34 increments for (country00, country07)\n"
    assert store.read_bytes() == (OUTPUT / "increments.tsv").read_bytes()
    code, _, messages, _ = kdiss_without_numpy(
        "compare", PYRAMIDS, "country00", "country07", "--delta", "0.001", "--out", table
    )
    assert code == 0, messages
    assert hashlib.sha256(table.read_bytes()).hexdigest() == UNTRACKED["compare-out"]


def _defined_names(module) -> set:
    """The names a module's top level binds by def, class or assignment, not by import."""
    defined = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return defined


def test_each_public_name_has_one_home():
    import kdiss
    import kdiss.dissimilarity
    import kdiss.kernel
    import kdiss.store

    modules = {path.stem for path in (ROOT / "src" / "kdiss").glob("*.py")} - {"__init__", "cli"}
    assert set(kdiss._HOMES) == modules
    for name, names in kdiss._HOMES.items():
        module = importlib.import_module(f"kdiss.{name}")
        assert sorted(module.__all__) == sorted(names), name
        assert set(names) <= _defined_names(module), name
    homes = [name for names in kdiss._HOMES.values() for name in names]
    assert sorted(kdiss.__all__) == sorted(homes) == sorted(set(homes))
    # the benchmark imports these two from kdiss.dissimilarity
    assert kdiss.dissimilarity.IncrementStore is kdiss.store.IncrementStore is kdiss.IncrementStore
    assert kdiss.dissimilarity.ComparisonResult is kdiss.kernel.ComparisonResult


def test_each_submodule_all_is_its_homes_entry():
    """No submodule spells out its public names a second time: its one binding of
    __all__ is the top-level ``__all__ = _HOMES["<module>"]``, _HOMES imported from kdiss."""
    import kdiss

    for name in kdiss._HOMES:
        tree = ast.parse((ROOT / "src" / "kdiss" / f"{name}.py").read_text(encoding="utf-8"))
        bindings = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "__all__"]
        assert [type(node.ctx) for node in bindings] == [ast.Store], name
        assignments = [node.value for node in tree.body if isinstance(node, ast.Assign) and bindings[0] in node.targets]
        assert [ast.dump(value) for value in assignments] == [ast.dump(ast.parse(f"_HOMES[{name!r}]", mode="eval").body)]
        imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module]
        assert [alias.name for node in imports for alias in node.names] == ["_HOMES"], name


def _bench_kdiss_imports():
    """(file, module, name or None) for each kdiss import written in bench/*.py."""
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name.split(".")[0] == "kdiss"]
                yield from ((path.name, name, None) for name in names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "kdiss":
                yield from ((path.name, node.module, alias.name) for alias in node.names)


def test_benchmark_imports_resolve():
    # the benchmark runs this tree's src/ unchanged: a name it imports that
    # src/ no longer has would fail the run, not a test
    found = list(_bench_kdiss_imports())
    assert found
    for filename, module_name, name in found:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"bench/{filename}: from {module_name} import {name}"


def test_package_exports_every_public_name():
    import kdiss

    namespace: dict = {}
    exec("from kdiss import *", namespace)
    assert set(PUBLIC_NAMES) == set(kdiss.__all__) <= set(namespace)
    for name in PUBLIC_NAMES:
        exec(f"from kdiss import {name}", {})
    assert namespace["compare"] is sys.modules["kdiss.kernel"].compare
    assert "compare" in dir(kdiss)
    with pytest.raises(AttributeError):
        kdiss.no_such_name


# the CLI's lazy names: each public name of the modules a command can declare, and the private names the commands call
CLI_NAMES = """
import importlib
import kdiss.cli

private = {"indexes": ("_model_distances",), "kernel": ("_closed_form", "_counts"), "store": ("_append", "_checked")}
expected = set()
for module in ("indexes", "kernel", "pyramids", "report", "store"):
    for name in (*kdiss._HOMES[module], *private.get(module, ())):
        assert getattr(kdiss.cli, name) is getattr(importlib.import_module(f"kdiss.{module}"), name), name
        expected.add(name)
assert set(kdiss.cli._LAZY) == expected, sorted(set(kdiss.cli._LAZY) ^ expected)
try:
    kdiss.cli.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_cli_binds_the_homes_of_its_modules():
    code, out, messages, _ = run_python("-c", CLI_NAMES)
    assert code == 0, messages
    assert out.decode() == "module 'kdiss.cli' has no attribute 'no_such_name'\n"

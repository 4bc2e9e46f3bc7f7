import argparse
import contextlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kdiss.cli
from kdiss.cli import build_parser, main
from kdiss.formats import COHORTS, INDEX_COLUMNS, MALE_COHORTS
from kdiss.pyramids import ingest

from conftest import STRICT_WARNINGS, exact_d


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PAIR = ("--query", "country00", "--target", "country05")


class TestModel:
    def test_exponential_prints_pinned_cohorts(self, capsys):
        code, out, _ = run(capsys, "model", "exp:0.30")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "age,male,female,combined"
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert round(float(first[3]), 2) == 30.07
        assert round(float(second[3]), 2) == 21.05

    def test_exponential_at_a_rate_that_leaves_q_at_one(self, capsys):
        code, out, err = run(capsys, "model", "exp:1e-20")
        assert (code, err) == (0, "")
        assert out == run(capsys, "model", "uniform")[1]

    def test_rate_is_read_as_float_reads_it(self, capsys):
        """A RATE is one float() number, as --delta is: spaces around it are accepted."""
        spaced = run(capsys, "model", "exp: 0.3")
        assert spaced == run(capsys, "model", "exp:0.3")
        assert spaced[0] == 0

    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "model", "uniform")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 17
        assert all(round(float(r[3]), 4) == round(200.0 / 34.0, 4) for r in rows)


class TestIngest:
    def test_normalizes(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("name," + ",".join(COHORTS) + "\naa," + ",".join(["5"] * 34) + "\n")
        code, out, err = run(capsys, "ingest", src)
        assert code == 0
        assert out.splitlines()[0] == "name," + ",".join(COHORTS)
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(100.0 / 34.0)

    def test_bad_row_fails(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("name," + ",".join(COHORTS) + "\naa," + ",".join(["0"] * 34) + "\n")
        code, _, err = run(capsys, "ingest", src)
        assert code == 1
        assert "row 2" in err

    def test_lenient_skips(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text(
            "name," + ",".join(COHORTS) + "\n"
            + "aa," + ",".join(["0"] * 34) + "\n"
            + "bb," + ",".join(["1"] * 34) + "\n"
        )
        code, out, err = run(capsys, "ingest", src, "--lenient")
        assert code == 0
        assert "bb" in out and "aa," not in out
        assert "skipped" in err

    def test_from_long(self, tmp_path, capsys):
        lines = ["name,sex,cohort,value"]
        for sex in ("m", "f"):
            for age in range(0, 85, 5):
                lines.append(f"aa,{sex},{age:02d},3.0")
        src = tmp_path / "long.csv"
        src.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "ingest", src, "--from-long")
        assert code == 0
        assert out.splitlines()[1].startswith("aa,")

    def test_from_long_empty_name_fails_like_wide(self, tmp_path, capsys):
        long_src, wide_src = tmp_path / "long.csv", tmp_path / "wide.csv"
        long_src.write_text("name,sex,cohort,value\n ,m,00,5\n")
        wide_src.write_text("name," + ",".join(COHORTS) + "\n ," + ",".join(["5"] * 34) + "\n")
        code, out, err = run(capsys, "ingest", long_src, "--from-long")
        assert (code, out, err) == (1, "", "error: row 2: empty name\n")
        assert run(capsys, "ingest", wide_src) == (1, "", "error: row 2: empty name\n")

    def test_from_long_bad_pyramid_is_named(self, tmp_path, capsys):
        src = tmp_path / "long.csv"
        lines = ["name,sex,cohort,value"]
        lines += [f"{name},{c[0]},{c[1:]},{value}" for name, value in (("A", 3), ("B", 0)) for c in COHORTS]
        src.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "ingest", src, "--from-long")
        assert (code, out, err) == (1, "", "error: pyramid 'B': cannot normalize an all-zero row\n")


class TestCompare:
    def test_self_comparison(self, pyramid_csv, capsys):
        code, out, _ = run(capsys, "compare", pyramid_csv, "country00", "country00", "--delta", "0.01")
        assert code == 0
        assert "D       = 1" in out
        assert "K       = 0.010000" in out

    def test_unknown_name(self, pyramid_csv, capsys):
        code, _, err = run(capsys, "compare", pyramid_csv, "country00", "atlantis")
        assert code != 0
        assert "name not found" in err

    def test_increments_sum_to_k_cont(self, pyramid_csv, capsys):
        code, out, _ = run(
            capsys, "compare", pyramid_csv, "country00", "country03", "--increments", "--delta", "0.001"
        )
        assert code == 0
        lines = out.splitlines()
        k_cont = float(next(l for l in lines if l.startswith("K_cont")).split("=")[1])
        inc_lines = [l for l in lines if l.startswith("  ") and not l.startswith("  sum")]
        total = sum(float(l.split()[1]) for l in inc_lines)
        assert total == pytest.approx(k_cont, abs=2e-5)
        assert len(inc_lines) == 34

    def test_out_csv(self, pyramid_csv, tmp_path, capsys):
        out_path = tmp_path / "cmp.csv"
        code, _, _ = run(
            capsys, "compare", pyramid_csv, "country00", "country03", "--out", out_path
        )
        assert code == 0
        text = out_path.read_text()
        assert text.splitlines()[1] == "param,increment"
        assert len(text.splitlines()) == 36

    def test_tiny_delta_gives_finite_k(self, pyramid_csv, capsys):
        code, out, err = run(capsys, "compare", pyramid_csv, "country00", "country03", "--delta", "1e-13")
        assert code == 0, err
        k = float(next(l for l in out.splitlines() if l.startswith("K ")).split("=")[1])
        assert math.isfinite(k) and k > 0


class TestBatch:
    def test_model_query(self, pyramid_csv, capsys):
        code, out, _ = run(capsys, "batch", pyramid_csv, "--model", "exp:0.30", "--delta", "0.001")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,d,k,k_cont"
        assert len(lines) == 11

    def test_delta_is_read_as_float_reads_it(self, pyramid_csv, capsys):
        """--delta is one float() number, as a model RATE is: spaces around it are accepted."""
        spaced = run(capsys, "batch", pyramid_csv, "--model", "uniform", "--delta", " 0.001")
        assert spaced == run(capsys, "batch", pyramid_csv, "--model", "uniform", "--delta", "0.001")
        assert spaced[0] == 0

    def test_named_query(self, pyramid_csv, capsys):
        code, out, _ = run(capsys, "batch", pyramid_csv, "--query", "country00", "--delta", "0.001")
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert first[0] == "country00"
        assert int(first[1]) == 1  # self comparison

    def test_empty_table(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("name," + ",".join(COHORTS) + "\n")
        code, out, _ = run(capsys, "batch", src, "--model", "uniform")
        assert code == 0
        assert out.splitlines() == ["name,d,k,k_cont"]

    def test_rerun_byte_identical(self, pyramid_csv, capsys):
        _, out1, _ = run(capsys, "batch", pyramid_csv, "--model", "uniform", "--delta", "0.001")
        _, out2, _ = run(capsys, "batch", pyramid_csv, "--model", "uniform", "--delta", "0.001")
        assert out1 == out2

    def test_parallel_identical_output(self, pyramid_csv, capsys):
        _, serial, _ = run(capsys, "batch", pyramid_csv, "--model", "exp:0.2", "--delta", "0.001")
        _, parallel, _ = run(
            capsys, "batch", pyramid_csv, "--model", "exp:0.2", "--delta", "0.001", "--parallel", "2"
        )
        assert serial == parallel

    def test_tiny_delta_gives_finite_k(self, pyramid_csv, capsys):
        code, out, err = run(capsys, "batch", pyramid_csv, "--model", "uniform", "--delta", "1e-13")
        assert code == 0, err
        ks = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert len(ks) == 10 and all(math.isfinite(k) for k in ks) and max(ks) > 0

    @pytest.mark.parametrize("delta", ["1e-6", "1e-300"])
    def test_counts_are_the_exact_ceiling(self, pyramid_csv, capsys, delta):
        """Every d is max(1, ceil(w*)) of the exact w*, printed as the whole integer
        also where it passes 2**53 and a float would round it."""
        code, out, err = run(capsys, "batch", pyramid_csv, "--query", "country03", "--delta", delta)
        assert code == 0, err
        table = ingest(pyramid_csv)
        query = table.record("country03").param_values
        got = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert got == [exact_d(query, table.record(name).param_values, float(delta)) for name in table.names]
        assert got[3] == 1 and (max(got) > 2**53) == (delta == "1e-300")

    def test_bad_model_spec(self, pyramid_csv, capsys):
        code, _, err = run(capsys, "batch", pyramid_csv, "--model", "quadratic")
        assert code == 2
        assert "model spec" in err

    @pytest.mark.parametrize("spec", ["exp:abc", "exp:", "exp", ""])
    def test_unparsed_model_rate_is_a_usage_error(self, pyramid_csv, capsys, spec):
        code, out, err = run(capsys, "batch", pyramid_csv, "--model", spec)
        assert (code, out) == (2, "")
        assert err == f"error: bad model spec {spec!r}: use 'uniform' or 'exp:RATE'\n"

    def test_model_rate_that_leaves_q_at_one(self, pyramid_csv, capsys):
        code, out, err = run(capsys, "batch", pyramid_csv, "--model", "exp:1e-20")
        assert (code, err) == (0, "")
        assert out == run(capsys, "batch", pyramid_csv, "--model", "uniform")[1]

    def test_out_of_range_model_rate_is_a_usage_error(self, pyramid_csv, capsys):
        code, out, err = run(capsys, "batch", pyramid_csv, "--model", "exp:2")
        assert (code, out) == (2, "")
        assert err == "error: rate must lie in [0, 1), got 2.0\n"


class TestMu:
    def test_polar_endpoints(self, pyramid_csv, capsys):
        code, out, err = run(
            capsys, "mu", pyramid_csv, "country00", "country09", "--delta", "0.001"
        )
        assert code == 0, err
        lines = out.splitlines()
        header = lines[0].split(",")
        rows = {l.split(",")[0]: dict(zip(header, l.split(","))) for l in lines[1:]}
        assert float(rows["country00"]["mu"]) == 100.0
        assert float(rows["country09"]["mu"]) == 0.0
        for row in rows.values():
            assert 0.0 <= float(row["mu"]) <= 100.0

    def test_swapping_queries_complements_mu(self, pyramid_csv, capsys):
        _, out1, _ = run(capsys, "mu", pyramid_csv, "country00", "country09", "--delta", "0.001")
        _, out2, _ = run(capsys, "mu", pyramid_csv, "country09", "country00", "--delta", "0.001")
        mu1 = [float(l.split(",")[5]) for l in out1.splitlines()[1:]]
        mu2 = [float(l.split(",")[5]) for l in out2.splitlines()[1:]]
        for a, b in zip(mu1, mu2):
            assert a + b == pytest.approx(100.0, abs=2e-6)

    def test_parallel_identical_output(self, pyramid_csv, capsys):
        _, serial, _ = run(capsys, "mu", pyramid_csv, "country00", "country09", "--delta", "0.001")
        _, parallel, _ = run(
            capsys, "mu", pyramid_csv, "country00", "country09", "--delta", "0.001", "--parallel", "2"
        )
        assert serial == parallel

    def test_undefined_rows_flagged(self, pyramid_csv, capsys):
        code, out, err = run(capsys, "mu", pyramid_csv, "country00", "country00", "--delta", "0.001")
        assert code == 1
        assert "MU undefined" in err
        row = next(l for l in out.splitlines() if l.startswith("country00,"))
        assert ",nan," in row
        code_lenient, _, _ = run(
            capsys, "mu", pyramid_csv, "country00", "country00", "--delta", "0.001", "--lenient"
        )
        assert code_lenient == 0


class TestPunif:
    def test_bounds_and_header(self, pyramid_csv, capsys):
        code, out, _ = run(capsys, "punif", pyramid_csv, "--delta", "0.001")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,d_un,d_e30,p_un"
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[3]) <= 100.0

    def test_model_columns_match_mu_and_batch(self, pyramid_csv, capsys):
        def columns(*argv):
            code, out, err = run(capsys, *argv, "--delta", "0.001")
            assert code == 0, err
            lines = [line.split(",") for line in out.splitlines()]
            return {name: [row[lines[0].index(name)] for row in lines[1:]] for name in lines[0]}

        punif = columns("punif", pyramid_csv)
        mu = columns("mu", pyramid_csv, "country00", "country09")
        for name in ("name", "d_un", "d_e30", "p_un"):
            assert punif[name] == mu[name]
        assert punif["d_un"] == columns("batch", pyramid_csv, "--model", "uniform")["k_cont"]
        assert punif["d_e30"] == columns("batch", pyramid_csv, "--model", "exp:0.30")["k_cont"]

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("mu", "{csv}", "country00", "country09", "--rate", "0.5"), "--rate"),
            (("punif", "{csv}", "--variant", "as_written"), "--variant"),
        ],
    )
    def test_model_options_are_gone(self, pyramid_csv, capsys, argv, option):
        with pytest.raises(SystemExit) as exc_info:
            main([str(pyramid_csv) if a == "{csv}" else a for a in argv])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestStore:
    def test_put_then_combine(self, pyramid_csv, tmp_path, capsys):
        store = tmp_path / "inc.tsv"
        code, out, _ = run(
            capsys, "store", "put", "--store", store, "--data", pyramid_csv,
            "--query", "country00", "--target", "country05", "--delta", "0.001",
        )
        assert code == 0
        assert "stored 34 increments" in out

        code, full, _ = run(
            capsys, "store", "combine", "--store", store,
            "--query", "country00", "--target", "country05",
        )
        assert code == 0
        code, male, _ = run(
            capsys, "store", "combine", "--store", store,
            "--query", "country00", "--target", "country05", "--params", "male",
        )
        code, female, _ = run(
            capsys, "store", "combine", "--store", store,
            "--query", "country00", "--target", "country05", "--params", "female",
        )
        assert float(male) + float(female) == pytest.approx(float(full), rel=1e-12)

    def test_delta_spellings_find_the_same_records(self, pyramid_csv, tmp_path, capsys):
        store = tmp_path / "inc.tsv"
        pair = ("--query", "country00", "--target", "country05")
        code, _, _ = run(capsys, "store", "put", "--store", store, "--data", pyramid_csv, *pair, "--delta", "1e-4")
        assert code == 0
        code, spelled, _ = run(capsys, "store", "combine", "--store", store, *pair, "--delta", "0.0001")
        assert code == 0
        code, default, _ = run(capsys, "store", "combine", "--store", store, *pair)
        assert spelled == default

    @pytest.fixture
    def stored(self, pyramid_csv, tmp_path, capsys):
        """A store holding (country00, country05) at delta 0.001, and the combine argv that reads it."""
        store = tmp_path / "inc.tsv"
        pair = ("--query", "country00", "--target", "country05")
        code, _, err = run(capsys, "store", "put", "--store", store, "--data", pyramid_csv, *pair, "--delta", "0.001")
        assert code == 0, err
        return ("store", "combine", "--store", store, *pair)

    def test_subset_names_its_missing_parameter(self, stored, capsys):
        code, out, err = run(capsys, *stored, "--params", "m00,nope")
        assert (code, out) == (1, "")
        assert err == "error: no record for ('country00', 'country05', delta=0.001, 'nope')\n"

    def test_named_subset_is_its_comma_list(self, stored, capsys):
        code, male, err = run(capsys, *stored, "--params", "male")
        assert code == 0, err
        assert run(capsys, *stored, "--params", ",".join(MALE_COHORTS)) == (0, male, "")

    @pytest.mark.parametrize("spelled, keyword", [(" male", "male"), ("male ", "male"), ("female,", "female")])
    def test_keyword_is_read_as_names_are(self, stored, capsys, spelled, keyword):
        """--params strips each comma-separated name, and a keyword is the one name left."""
        expected = run(capsys, *stored, "--params", keyword)
        assert expected[0] == 0
        assert run(capsys, *stored, "--params", spelled) == expected

    @pytest.mark.parametrize("flags", [(), STRICT_WARNINGS], ids=["default", "warnings-as-errors"])
    def test_torn_final_line_is_one_warning_line(self, stored, pyramid_csv, capsys, flags):
        """put and combine skip a torn final line with a `warning:` line, under -W error too."""
        code, total, err = run(capsys, *stored)
        assert (code, err) == (0, "")
        store = stored[3]
        intact = store.read_bytes()
        put = ("store", "put", "--store", store, "--data", pyramid_csv, *stored[4:], "--delta", "0.001")
        warning = f"warning: {store}:35: skipped a torn final line (no newline, does not parse)\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        for argv, out in ((stored, total), (put, "stored 34 increments for (country00, country05)\n")):
            store.write_bytes(intact + b"country00\tcountry05\t0.0")
            done = subprocess.run(
                [sys.executable, *flags, "-m", "kdiss.cli", *map(str, argv)],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                timeout=120,
            )
            assert (done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")) == (0, out, warning)

    def test_torn_line_warning_spells_a_relative_store_as_combine_does(self, stored, pyramid_csv, capsys, monkeypatch):
        """put and combine name a `./`-relative store alike, as its Path spells it."""
        store, pair = stored[3], stored[4:]
        intact = store.read_bytes()
        monkeypatch.chdir(store.parent)
        combine = ("store", "combine", "--store", "./inc.tsv", *pair)
        put = ("store", "put", "--store", "./inc.tsv", "--data", pyramid_csv, *pair, "--delta", "0.001")
        warning = "warning: inc.tsv:35: skipped a torn final line (no newline, does not parse)\n"
        for argv in (combine, put):
            store.write_bytes(intact + b"country00\tcountry05\t0.0")
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, warning)

    def test_put_appends_past_a_bad_middle_line_that_the_next_read_names(self, stored, pyramid_csv, capsys):
        """put reads only the store's last line; the load of the next combine fails on line 2."""
        store = stored[3]
        lines = store.read_bytes().splitlines(keepends=True)
        store.write_bytes(lines[0] + b"country00\tcountry05\t0.001\tm05\tnan\n" + b"".join(lines[2:]))
        put = ("store", "put", "--store", store, "--data", pyramid_csv, *stored[4:], "--delta", "0.01")
        assert run(capsys, *put) == (0, "stored 34 increments for (country00, country05)\n", "")
        assert len(store.read_bytes().splitlines()) == 68
        code, out, err = run(capsys, *stored)
        assert (code, out, err) == (1, "", f"error: {store}:2: increment 'm05' is not finite: nan\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("c\td\t0.0001\tm00\tnan", "increment 'm00' is not finite: nan"),
            ("c\td\t0.0001\tm00\t-inf", "increment 'm00' is not finite: -inf"),
            ("c\td\tnan\tm00\t0.5", "delta must be a finite number > 0, got nan"),
            ("c\td\t-1\tm00\tinf", "delta must be a finite number > 0, got -1"),
        ],
    )
    def test_combine_refuses_a_record_put_refuses(self, tmp_path, capsys, line, message):
        store = tmp_path / "inc.tsv"
        store.write_text(f"c\td\t0.0001\tm05\t0.5\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "store", "combine", "--store", store, "--query", "c", "--target", "d")
        assert (code, out, err) == (1, "", f"error: {store}:2: {message}\n")

    def test_missing_key(self, tmp_path, capsys):
        store = tmp_path / "inc.tsv"
        store.write_text("")
        code, _, err = run(
            capsys, "store", "combine", "--store", store, "--query", "a", "--target", "b"
        )
        assert code == 1
        # the message as raised, without the quotes a KeyError's str adds
        assert err == "error: no records for ('a', 'b')\n"


class TestReport:
    @pytest.fixture
    def index_csv(self, pyramid_csv, tmp_path, capsys):
        out_path = tmp_path / "index.csv"
        code, _, err = run(
            capsys, "mu", pyramid_csv, "country00", "country09",
            "--delta", "0.001", "--out", out_path,
        )
        assert code == 0, err
        return out_path

    @pytest.fixture
    def indicators_csv(self, tmp_path):
        path = tmp_path / "indicators.csv"
        lines = ["name,indicator,value"]
        for i in range(10):
            lines.append(f"country{i:02d},birth_rate,{10 + 3 * i}")
            lines.append(f"country{i:02d},gdp,{30 - 2 * i}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_scatter_csv_with_fit(self, index_csv, indicators_csv, capsys):
        code, out, _ = run(
            capsys, "report", "--indexes", index_csv, "--indicators", indicators_csv,
            "--x", "mu", "--y", "ppb",
        )
        assert code == 0
        assert out.startswith("# label=")
        assert "# fit slope=" in out
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "name,x,y"
        assert len(data) == 11

    def test_svg_output(self, index_csv, indicators_csv, tmp_path, capsys):
        out_path = tmp_path / "plot.svg"
        code, _, _ = run(
            capsys, "report", "--indexes", index_csv, "--indicators", indicators_csv,
            "--x", "mu", "--y", "gdp", "--logy", "--format", "svg", "--out", out_path,
        )
        assert code == 0
        assert out_path.read_bytes().startswith(b"<svg")

    def test_index_only_fields(self, index_csv, capsys):
        code, out, _ = run(
            capsys, "report", "--indexes", index_csv, "--x", "k_m_male", "--y", "k_m_female"
        )
        assert code == 0
        assert "name,x,y" in out

    def test_unmatched_reported(self, index_csv, tmp_path, capsys):
        ind = tmp_path / "sparse.csv"
        ind.write_text("name,indicator,value\ncountry00,gdp,5\n")
        code, out, err = run(
            capsys, "report", "--indexes", index_csv, "--indicators", ind, "--x", "mu", "--y", "gdp"
        )
        assert code == 0
        assert err.count("unmatched") == 9

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_infinite_value_is_unmatched(self, index_csv, tmp_path, capsys, fmt):
        lines = index_csv.read_text().splitlines()
        column = lines[0].split(",").index("k_mt")
        row = lines[3].split(",")
        row[column] = "inf"
        lines[3] = ",".join(row)
        path = tmp_path / "inf.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "report", "--indexes", path, "--x", "k_mt", "--y", "mu", "--format", fmt)
        assert code == 0, err
        assert err == f"unmatched: {row[0]}: undefined value\n"
        assert out.startswith("<svg" if fmt == "svg" else "# label=mu vs k_mt\n# n=9\n# fit slope=")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: row[:-1], "row 4: expected 9 fields, got 8"),
            (
                lambda row: row[:5] + ["many"] + row[6:],
                "row 4: non-numeric value (could not convert string to float: 'many')",
            ),
        ],
        ids=["short-row", "non-numeric"],
    )
    def test_bad_index_row_names_its_row(self, index_csv, tmp_path, capsys, edit, message):
        lines = index_csv.read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "report", "--indexes", path, "--x", "k_mt", "--y", "mu")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_failed_fit_warns_and_keeps_stdout(self, index_csv, tmp_path, capsys):
        # all three points share one x: no fit line, and stderr says why
        ind = tmp_path / "same_x.csv"
        ind.write_text("name,indicator,value\n" + "".join(f"country0{i},gdp,1\ncountry0{i},iq,{i}\n" for i in range(3)))
        code, out, err = run(capsys, "report", "--indexes", index_csv, "--indicators", ind, "--x", "gdp", "--y", "iq")
        assert code == 0
        assert out == "# label=iq vs gdp\n# n=3\nname,x,y\ncountry00,1,0\ncountry01,1,1\ncountry02,1,2\n"
        assert err.splitlines()[0] == "warning: no fit (x takes a single value; slope is undefined)"
        # fewer than three points: no fit either, and stderr says so
        ind.write_text("name,indicator,value\ncountry00,gdp,1\ncountry01,gdp,2\n")
        code, out, err = run(capsys, "report", "--indexes", index_csv, "--indicators", ind, "--x", "gdp", "--y", "mu")
        assert code == 0 and "# fit" not in out and "# n=2\n" in out
        assert err.splitlines()[0] == "warning: no fit (need at least three points)"


class TestEngineNames:
    """The engine names are kdiss.cli attributes that the commands look up, so a
    replacement set on the module (a test spy, a tracing wrapper) is what runs."""

    def test_mu_calls_the_patched_build_index_rows(self, monkeypatch, pyramid_csv, capsys):
        real = kdiss.cli.build_index_rows
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(kdiss.cli, "build_index_rows", spy)
        code, out, _ = run(capsys, "mu", pyramid_csv, "country00", "country09", "--delta", "0.001")
        assert code == 0
        assert len(calls) == 1 and len(calls[0]) == 10
        assert len(out.splitlines()) == 11

    @pytest.mark.parametrize("command", ["ingest", "batch"])
    def test_commands_call_the_patched_ingest(self, monkeypatch, pyramid_csv, capsys, command):
        real = kdiss.cli.ingest
        calls = []
        monkeypatch.setattr(kdiss.cli, "ingest", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
        extra = ["--model", "uniform"] if command == "batch" else []
        code, _, _ = run(capsys, command, pyramid_csv, *extra)
        assert code == 0
        assert calls == [pyramid_csv]

    def test_unknown_attribute_still_fails(self):
        with pytest.raises(AttributeError):
            kdiss.cli.no_such_name


class TestValidation:
    def test_delta_range(self, pyramid_csv, capsys):
        code, _, err = run(capsys, "compare", pyramid_csv, "country00", "country01", "--delta", "2.0")
        assert code == 2
        assert "--delta" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("batch", "{csv}", "--model", "uniform", "--delta", "0"), "--delta must lie in (0, 1], got 0.0"),
            (("mu", "{csv}", "country00", "country01", "--parallel", "0"), "--parallel must be >= 1, got 0"),
            (("store", "put", "--store", "inc.tsv", "--query", "a", "--target", "b"), "store put requires --data"),
            (("model", "exp:5"), "rate must lie in [0, 1), got 5.0"),
            (("ingest", "{csv}", "--from-long", "--lenient"), "--lenient does not apply to --from-long input"),
            (("store", "combine", "--store", "inc.tsv", "--query", "a", "--target", "b", "--params", ","),
             "--params ',' names no parameter"),
            (("store", "combine", "--store", "inc.tsv", "--query", "a", "--target", "b", "--params", " "),
             "--params ' ' names no parameter"),
            (("ingest", ""), "data '' names no path"),
            (("batch", "", "--model", "uniform"), "data '' names no path"),
            (("batch", "{csv}", "--model", "uniform", "--out", ""), "--out '' names no path"),
            (("compare", "{csv}", "country00", "country01", "--out", ""), "--out '' names no path"),
            (("store", "put", "--store", "", "--data", "{csv}", "--query", "country00", "--target", "country01"),
             "--store '' names no path"),
            (("store", "put", "--store", "inc.tsv", "--data", "", "--query", "a", "--target", "b"),
             "--data '' names no path"),
            (("store", "combine", "--store", "", "--query", "a", "--target", "b"), "--store '' names no path"),
            (("report", "--indexes", "", "--x", "mu", "--y", "mu"), "--indexes '' names no path"),
            (("report", "--indexes", "{csv}", "--indicators", "", "--x", "mu", "--y", "gdp"),
             "--indicators '' names no path"),
        ],
    )
    def test_usage_errors_exit_2(self, pyramid_csv, capsys, argv, message):
        code, out, err = run(capsys, *(pyramid_csv if a == "{csv}" else a for a in argv))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_subnormal_delta_fails_cleanly(self, pyramid_csv, capsys):
        code, _, err = run(capsys, "batch", pyramid_csv, "--model", "uniform", "--delta", "5e-324")
        assert code == 1
        assert "too small" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "batch", "nope.csv", "--model", "uniform")
        assert (code, out, err) == (2, "", "error: nope.csv: no such file or directory\n")

    @pytest.mark.parametrize(
        "argv, path, reason",
        [
            (("batch", "{dir}", "--model", "uniform"), "{dir}", "is a directory"),
            (("batch", "{csv}", "--model", "uniform", "--out", "{dir}"), "{dir}", "is a directory"),
            (
                ("batch", "{csv}", "--model", "uniform", "--out", "{dir}/missing/batch.csv"),
                "{dir}/missing/batch.csv",
                "no such file or directory",
            ),
            (("store", "combine", "--store", "{dir}", "--query", "a", "--target", "b"), "{dir}", "is a directory"),
            (
                ("store", "combine", "--store", "{dir}/missing.tsv", "--query", "a", "--target", "b"),
                "{dir}/missing.tsv",
                "no such file or directory",
            ),
            (("compare", "{csv}", "country00", "country03", "--out", "{dir}"), "{dir}", "is a directory"),
        ],
        ids=["input", "out", "out-in-missing-dir", "store", "store-combine-missing", "compare-out"],
    )
    def test_unusable_path_exits_2(self, pyramid_csv, tmp_path, capsys, argv, path, reason):
        """One wording for every path that cannot be read or written, and
        nothing on stdout: compare opens --out before it prints its summary."""
        code, out, err = run(capsys, *(a.format(csv=pyramid_csv, dir=tmp_path) for a in argv))
        assert (code, out, err) == (2, "", f"error: {path.format(dir=tmp_path)}: {reason}\n")

    def test_data_dir_env(self, pyramid_csv, capsys, monkeypatch):
        monkeypatch.setenv("KDISS_DATA_DIR", str(pyramid_csv.parent))
        code, out, _ = run(capsys, "batch", pyramid_csv.name, "--model", "uniform", "--delta", "0.01")
        assert code == 0
        assert len(out.splitlines()) == 11

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("store", "combine", "--store", "{store}", *PAIR, "--data", "{missing}"), "--data"),
            (("store", "combine", "--store", "{store}", *PAIR, "--lenient"), "--lenient"),
            (("store", "put", "--store", "{store}", "--data", "{csv}", *PAIR, "--params", "male"), "--params"),
            (("model", "--kind", "exp"), "--kind"),
            (("model", "exp:0.3", "--rate", "0.3"), "--rate"),
        ],
        ids=["combine-data", "combine-lenient", "put-params", "model-kind", "model-rate"],
    )
    def test_an_option_the_command_does_not_read_exits_2(
        self, pyramid_csv, tmp_path, capsys, monkeypatch, argv, option
    ):
        """Each command parses only the options it reads: one it would ignore is a usage
        error, before any table is read or the store is written."""
        store, missing = tmp_path / "inc.tsv", tmp_path / "nope.csv"
        assert run(capsys, "store", "put", "--store", store, "--data", pyramid_csv, *PAIR)[0] == 0
        intact = store.read_bytes()
        loaded = []
        monkeypatch.setattr(kdiss.cli, "_load_table", loaded.append)
        with pytest.raises(SystemExit) as exc_info:
            main([a.format(store=store, csv=pyramid_csv, missing=missing) for a in argv])
        out, err = capsys.readouterr()
        assert (exc_info.value.code, out) == (2, "")
        assert f"unrecognized arguments: {option}" in err
        assert store.read_bytes() == intact
        assert loaded == []


def _leaf_parsers(parser):
    """The parsers of build_parser() that run a command, `store put` and `store combine` among them."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield parser
    for action in actions:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def test_every_command_declares_its_handler_and_modules():
    leaves = list(_leaf_parsers(build_parser()))
    assert sorted(p.prog for p in leaves) == [
        "kdiss batch", "kdiss compare", "kdiss ingest", "kdiss model", "kdiss mu", "kdiss punif",
        "kdiss report", "kdiss store combine", "kdiss store put",
    ]
    for p in leaves:
        assert callable(p.get_default("func")), p.prog
        modules = p.get_default("modules")
        assert modules and set(modules) <= set(kdiss.cli._LAZY.values()), p.prog


def test_readme_examples_parse():
    """Every `kdiss ...` line in the README's bash blocks, without its comment, is one the parser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S)
    examples = [shlex.split(line, comments=True) for b in blocks for line in b.splitlines() if line.startswith("kdiss ")]
    assert len(examples) >= 10
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


# every command with --out; "{table}" holds a row named "Việt Nam", "{index}" is mu's output on it
OUT_COMMANDS = {
    "ingest": ("ingest", "{table}"),
    "batch-model": ("batch", "{table}", "--model", "exp:0.30"),
    "batch-query": ("batch", "{table}", "--query", "Việt Nam"),
    "mu": ("mu", "{table}", "Việt Nam", "country00"),
    "punif": ("punif", "{table}"),
    "model": ("model", "exp:0.30"),
    "report-csv": ("report", "--indexes", "{index}", "--x", "mu", "--y", "k_mt"),
    "report-svg": ("report", "--indexes", "{index}", "--x", "mu", "--y", "k_mt", "--format", "svg"),
}


# every command that reads a pyramid table besides ingest; "{csv}" is the table, "{store}" a fresh store
TABLE_COMMANDS = {
    "compare": ("compare", "{csv}", "country00", "country05", "--delta", "0.001", "--increments"),
    "batch": ("batch", "{csv}", "--query", "country00"),
    "mu": ("mu", "{csv}", "country00", "country09", "--delta", "0.001"),
    "punif": ("punif", "{csv}"),
    "store-put": ("store", "put", "--store", "{store}", "--data", "{csv}", "--query", "country00", "--target", "country05"),
}


@pytest.mark.parametrize("argv", TABLE_COMMANDS.values(), ids=TABLE_COMMANDS.keys())
def test_lenient_reports_each_skipped_row_like_ingest(pyramid_csv, tmp_path, capsys, argv):
    """Every command loads its table the way ingest does: under --lenient each
    skipped row is ingest's `warning: skipped row N: ...` line, and stdout and
    the store are what the table without the bad rows gives."""
    text = pyramid_csv.read_text(encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text(text + "zero," + ",".join(["0"] * 34) + "\n" + text.splitlines()[1] + "\n", encoding="utf-8")
    code, _, skipped = run(capsys, "ingest", bad, "--lenient")
    assert code == 0
    assert skipped == (
        "warning: skipped row 12: cannot normalize an all-zero row\n"
        "warning: skipped row 13: duplicate name 'country00'\n"
    )

    def kdiss(table, store, *flags):
        return run(capsys, *(a.format(csv=table, store=store) for a in argv), *flags)

    clean_store, bad_store = tmp_path / "clean.tsv", tmp_path / "bad.tsv"
    code, out, err = kdiss(pyramid_csv, clean_store)
    assert (code, err) == (0, "")
    assert kdiss(bad, bad_store, "--lenient") == (0, out, skipped)
    if argv[0] == "store":
        assert bad_store.read_bytes() == clean_store.read_bytes()


# commands whose stderr names a row or a path, with a line it must hold in UTF-8
STDERR_COMMANDS = {
    "missing-file": (
        ("batch", "nonexist_Việt.csv", "--model", "uniform"),
        "error: nonexist_Việt.csv: no such file or directory",
    ),
    "ingest-lenient": (("ingest", "{table}", "--lenient"), "warning: skipped row 12: duplicate name 'Việt Nam'"),
    "report-unmatched": (
        ("report", "--indexes", "{index}", "--indicators", "{indicators}", "--x", "mu", "--y", "gdp"),
        "unmatched: Việt Nam: no value for 'gdp'",
    ),
}


@pytest.mark.parametrize("argv, line", STDERR_COMMANDS.values(), ids=STDERR_COMMANDS.keys())
def test_stderr_is_utf8_whatever_the_locale(pyramid_csv, tmp_path, argv, line):
    text = pyramid_csv.read_text(encoding="utf-8").replace("country03", "Việt Nam")
    table, index, indicators = tmp_path / "viet.csv", tmp_path / "index.csv", tmp_path / "indicators.csv"
    table.write_text(text + text.splitlines()[4] + "\n", encoding="utf-8")  # Việt Nam again, as row 12
    assert main(["mu", str(table), "Việt Nam", "country00", "--lenient", "--out", str(index)]) == 0
    indicators.write_text("name,indicator,value\ncountry00,gdp,5\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, *STRICT_WARNINGS, "-m", "kdiss.cli",
         *(a.format(table=table, index=index, indicators=indicators) for a in argv)],
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="cp1252"),
        cwd=tmp_path,
        capture_output=True,
        timeout=120,
    )
    assert line in done.stderr.decode("utf-8").splitlines()


def test_std_streams_without_a_byte_buffer_get_the_text():
    """A caller that puts a StringIO in place of stdout or stderr reads the text there."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["model", "uniform"]) == 0
        assert main(["batch", "nonexist_Việt.csv", "--model", "uniform"]) == 2
    assert out.getvalue().startswith("age,male,female,combined\n00,2.941176,2.941176,5.882353\n")
    assert err.getvalue() == "error: nonexist_Việt.csv: no such file or directory\n"


@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
def test_stdout_is_the_out_file_whatever_the_locale(pyramid_csv, tmp_path, argv):
    table, index, out = tmp_path / "viet.csv", tmp_path / "index.csv", tmp_path / "out"
    table.write_text(pyramid_csv.read_text(encoding="utf-8").replace("country03", "Việt Nam"), encoding="utf-8")
    assert main(["mu", str(table), "Việt Nam", "country00", "--out", str(index)]) == 0
    argv = [a.format(table=table, index=index) for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="cp1252")

    def kdiss(*extra):
        return subprocess.run(
            [sys.executable, *STRICT_WARNINGS, "-m", "kdiss.cli", *argv, *extra],
            env=env,
            capture_output=True,
            timeout=120,
        )

    to_stdout, to_file = kdiss(), kdiss("--out", out)
    assert (to_stdout.returncode, to_stdout.stderr) == (0, to_file.stderr), to_stdout.stderr
    assert (to_file.returncode, to_file.stdout) == (0, b"")
    assert to_stdout.stdout == out.read_bytes()
    assert argv[0] == "model" or "Việt Nam".encode("utf-8") in to_stdout.stdout


# a command and the CSV it reads as {bad}, whose row 2 holds one field longer than csv's 131,072-character limit
_BIG = "n" * 131_073
_REPORT = ("report", "--indexes", "{index}", "--indicators", "{indicators}", "--x", "mu", "--y", "gdp")
OVERSIZED_FIELD = {
    "ingest": (("ingest", "{bad}"), f"name,{','.join(COHORTS)}\n{_BIG},{','.join(['5'] * 34)}\n"),
    "ingest-from-long": (("ingest", "{bad}", "--from-long"), f"name,sex,cohort,value\n{_BIG},m,00,5\n"),
    "report-indexes": (
        tuple(a.replace("{index}", "{bad}") for a in _REPORT),
        f"{','.join(INDEX_COLUMNS)}\n{_BIG}{',1' * 8}\n",
    ),
    "report-indicators": (
        tuple(a.replace("{indicators}", "{bad}") for a in _REPORT),
        f"name,indicator,value\n{_BIG},gdp,5\n",
    ),
}


@pytest.mark.parametrize("argv, text", OVERSIZED_FIELD.values(), ids=OVERSIZED_FIELD.keys())
def test_a_field_too_large_for_csv_names_its_row(pyramid_csv, tmp_path, argv, text):
    bad, index, indicators = tmp_path / "bad.csv", tmp_path / "index.csv", tmp_path / "indicators.csv"
    bad.write_text(text, encoding="utf-8")
    assert main(["mu", str(pyramid_csv), "country00", "country09", "--out", str(index)]) == 0
    indicators.write_text("name,indicator,value\ncountry00,gdp,5\n", encoding="utf-8")
    argv = [a.format(bad=bad, index=index, indicators=indicators) for a in argv]
    done = subprocess.run(
        [sys.executable, *STRICT_WARNINGS, "-m", "kdiss.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"error: row 2: field larger than field limit (131072)\n"  # no traceback


def test_lenient_ingest_skips_a_row_too_large_for_csv_and_reads_on(tmp_path, capsys):
    """--lenient skips a row csv.reader cannot read as it skips any bad row, and each row after it keeps its number."""
    values = "," + ",".join(["5"] * 34) + "\n"
    bad = tmp_path / "bad.csv"
    bad.write_text(f"name,{','.join(COHORTS)}\nok2{values}{_BIG}{values}ok4{values}{values}", encoding="utf-8")
    code, out, err = run(capsys, "ingest", bad, "--lenient")
    assert code == 0
    assert [line.partition(",")[0] for line in out.splitlines()] == ["name", "ok2", "ok4"]
    assert err == "warning: skipped row 3: field larger than field limit (131072)\nwarning: skipped row 5: empty name\n"

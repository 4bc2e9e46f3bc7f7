import io
import math

import pytest

from kdiss.cli import main
from kdiss.pyramids import COHORTS


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModel:
    def test_exponential_prints_pinned_cohorts(self, capsys):
        code, out, _ = run(capsys, "model", "--kind", "exp", "--rate", "0.30")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "age,male,female,combined"
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert round(float(first[3]), 2) == 30.07
        assert round(float(second[3]), 2) == 21.05

    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "model", "--kind", "uniform")
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

    def test_bad_model_spec(self, pyramid_csv, capsys):
        code, _, err = run(capsys, "batch", pyramid_csv, "--model", "quadratic")
        assert code == 1
        assert "model spec" in err


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

    def test_missing_key(self, tmp_path, capsys):
        store = tmp_path / "inc.tsv"
        store.write_text("")
        code, _, err = run(
            capsys, "store", "combine", "--store", store, "--query", "a", "--target", "b"
        )
        assert code == 1


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


class TestValidation:
    def test_delta_range(self, pyramid_csv, capsys):
        code, _, err = run(capsys, "compare", pyramid_csv, "country00", "country01", "--delta", "2.0")
        assert code == 1
        assert "--delta" in err

    def test_subnormal_delta_fails_cleanly(self, pyramid_csv, capsys):
        code, _, err = run(capsys, "batch", pyramid_csv, "--model", "uniform", "--delta", "5e-324")
        assert code == 1
        assert "too small" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "batch", "nope.csv", "--model", "uniform")
        assert code == 2
        assert "no such file" in err

    def test_data_dir_env(self, pyramid_csv, capsys, monkeypatch):
        monkeypatch.setenv("KDISS_DATA_DIR", str(pyramid_csv.parent))
        code, out, _ = run(capsys, "batch", pyramid_csv.name, "--model", "uniform", "--delta", "0.01")
        assert code == 0
        assert len(out.splitlines()) == 11

"""Self-checks of the benchmark: generator, checker and span arithmetic.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import calib
import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["indicators.csv", "input.csv", "ops.tsv", "plan.json", "store.tsv"]
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert (tmp_path / "a" / "input.csv").read_bytes() != (tmp_path / "c" / "input.csv").read_bytes()


def _corrupt(path: Path, row: int, column: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[column] = f"{float(cells[column]) * 1.001 + 1e-3:.6f}"
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def test_checker_accepts_real_output_and_rejects_one_corrupted_row(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from kdiss.cli import main

    plan = gen.generate("paper-220", 2, tmp_path)
    checker = check.Checker(tmp_path / "input.csv", tmp_path / "indicators.csv", plan)
    batch, index = tmp_path / "batch.csv", tmp_path / "index.csv"
    assert main(["batch", str(tmp_path / "input.csv"), "--model", "exp:0.30", "--out", str(batch)]) == 0
    assert main(["mu", str(tmp_path / "input.csv"), *plan["poles"], "--out", str(index)]) == 0
    assert checker.check_batch(batch, "model") == []
    assert checker.check_index(index) == []

    _corrupt(batch, row=17, column=3)  # k_cont of one target
    _corrupt(index, row=101, column=5)  # mu of another
    assert len(checker.check_batch(batch, "model")) == 1
    errors = checker.check_index(index)
    assert len(errors) == 1 and "mu" in errors[0]


def test_self_time_on_hand_built_tree():
    # root [0, 10] holds A [1, 4] and B [3, 6], which overlap, and C [8, 12],
    # which outlives its parent; A holds a [2, 3]; D [20, 21] stands alone
    tree = [
        ["root", 0.0, 10.0, -1, "r"],
        ["A", 1.0, 4.0, 0, "r"],
        ["a", 2.0, 3.0, 1, "r"],
        ["B", 3.0, 6.0, 0, "r"],
        ["C", 8.0, 12.0, 0, "r"],
        ["D", 20.0, 21.0, -1, "r"],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 4.0, 1.0]
    summary = spans.by_name(tree + [["A", 30.0, 32.0, -1, "r"]])
    assert summary["A"]["calls"] == 2
    assert summary["A"]["total_s"] == 5.0
    assert summary["A"]["self_s"] == 4.0


def test_recorder_nests_spans_and_percentile_rule():
    recorder = spans.Recorder("unit")
    inner = recorder.wrap(lambda x: x + 1, "inner")
    outer = recorder.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    (o_name, o_start, o_end, o_parent, _), (i_name, i_start, i_end, i_parent, run) = recorder.spans
    assert (o_name, o_parent, i_name, i_parent, run) == ("outer", -1, "inner", 0, "unit")
    assert o_start <= i_start <= i_end <= o_end

    assert spans.percentile([1.0, 2.0, 3.0] * 10, 50) == 2.0
    with pytest.raises(ValueError):
        spans.percentile([1.0] * 999, 99)
    assert spans.percentile([float(i) for i in range(1000)], 99) == pytest.approx(989.01)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))


def test_calibration_scale_cancels_machine_speed():
    # the same work on a machine twice as slow: sample and calibrations double
    assert calib.scale(0.6, 0.25, 0.25, calib.REF_PROCESS_S) == pytest.approx(0.6)
    assert calib.scale(1.2, 0.5, 0.5, calib.REF_PROCESS_S) == pytest.approx(0.6)
    assert calib.scale(1.2, 0.4, 0.6, calib.REF_PROCESS_S) == pytest.approx(0.6)

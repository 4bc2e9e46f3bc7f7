"""Independent numpy reference for kdiss outputs, and the output checker.

Nothing here imports kdiss.  The reference uses the closed form the
engine's search must agree with:

    S      = mean over the 34 cohorts of min(q, t) / max(q, t)   (0/0 -> 1)
    K_cont = P * (1 - S) * (1 + delta),   w* = K_cont / delta
    D      = max(1, ceil(w*)),            K = D * delta

with the per-cohort increments (1 - r_p) * K_cont / sum(1 - r), their male
and female sums, MU = 100 * k_ut / (k_ut + k_mt) and the normalized
p_un = 100 * d_e / (d_un + d_e).

The tolerance is fixed before any measurement: 1e-6 relative, the bound
the acceptance suite holds between bisection and the closed form, plus
5e-7 absolute for the 6-decimal print.  D may differ by one only where the
reference w* lies within 1e-6 relative of an integer.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

AGES = tuple(f"{a:02d}" for a in range(0, 85, 5))
MALE = tuple(f"m{a}" for a in AGES)
FEMALE = tuple(f"f{a}" for a in AGES)
COHORTS = MALE + FEMALE
INDEX_COLUMNS = ["name", "k_mt", "k_ut", "k_m_male", "k_m_female", "mu", "d_un", "d_e30", "p_un"]
REL_TOL = 1e-6
ABS_TOL = 5e-7
DELTA = 1e-4  # the CLI default every benchmarked command runs at


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


def normalize_rows(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values * (100.0 / values.sum(axis=-1, keepdims=True))


def uniform_model() -> np.ndarray:
    return np.full(34, 100.0 / 34.0)


def exponential_model(rate: float) -> np.ndarray:
    q = 1.0 - rate
    per_sex = 50.0 * (1.0 - q) / (1.0 - q**17) * q ** np.arange(17)
    return np.concatenate([per_sex, per_sex])


def ratio(query: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-cohort ratio similarity of one query against each target row."""
    hi = np.maximum(query, targets)
    lo = np.minimum(query, targets)
    return np.divide(lo, hi, out=np.ones_like(hi), where=hi > 0)


def reference(query: np.ndarray, targets: np.ndarray, delta: float = DELTA) -> dict[str, np.ndarray]:
    """Closed-form comparison of one query against every target row."""
    r = ratio(query, np.atleast_2d(targets))
    p = r.shape[1]
    k_cont = p * (1.0 - r.mean(axis=1)) * (1.0 + delta)
    w_star = k_cont / delta
    d = np.maximum(1, np.ceil(w_star))
    short = 1.0 - r
    total = short.sum(axis=1, keepdims=True)
    inc = np.divide(short * k_cont[:, None], total, out=np.zeros_like(short), where=total > 0)
    return {
        "k_cont": k_cont,
        "w_star": w_star,
        "d": d,
        "k": d * delta,
        "inc": inc,
        "male": inc[:, :17].sum(axis=1),
        "female": inc[:, 17:].sum(axis=1),
    }


def increments(query: np.ndarray, target: np.ndarray, delta: float) -> np.ndarray:
    return reference(query, target, delta)["inc"][0]


def read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], rows[1:]


def read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Names and normalized shares of a wide pyramid CSV."""
    _, rows = read_rows(path)
    return [r[0] for r in rows], normalize_rows(np.array([[float(v) for v in r[1:]] for r in rows]))


def read_indicators(path: str | Path) -> dict[tuple[str, str], float]:
    _, rows = read_rows(path)
    return {(name, ind): float(value) for name, ind, value in rows}


class Checker:
    """Checks every emitted row of one workload's CLI pass against the reference.

    Built once per run from the generated inputs; each ``check_*`` method
    returns a list of error strings, empty when every row is within
    tolerance.
    """

    def __init__(self, input_csv: str | Path, indicators_csv: str | Path, plan: dict):
        self.names, self.shares = read_table(input_csv)
        self.row = {n: i for i, n in enumerate(self.names)}
        self.indicators = read_indicators(indicators_csv)
        self.plan = plan
        a, b = (self.shares[self.row[n]] for n in plan["poles"])
        rate = plan["model_rate"]
        self.ref_a = reference(a, self.shares)
        self.ref_b = reference(b, self.shares)
        self.ref_un = reference(uniform_model(), self.shares)
        self.ref_exp = reference(exponential_model(rate), self.shares)
        self.ref_query = reference(self.shares[self.row[plan["batch_query"]]], self.shares)

    def _rows(self, path, header: list[str], errors: list[str]) -> list[list[str]]:
        got_header, rows = read_rows(path)
        if got_header != header:
            errors.append(f"{Path(path).name}: header {got_header}")
            return []
        if [r[0] for r in rows] != self.names:
            errors.append(f"{Path(path).name}: names differ from the input rows")
            return []
        return rows

    def _expect(self, errors, where: str, field: str, got: str, want: float) -> None:
        try:
            value = float(got)
        except ValueError:
            value = math.nan
        if not close(value, want):
            errors.append(f"{where}: {field}={got} want {float(want)!r}")

    def check_ingest(self, path) -> list[str]:
        errors: list[str] = []
        for i, row in enumerate(self._rows(path, ["name", *COHORTS], errors)):
            for field, got, want in zip(COHORTS, row[1:], self.shares[i]):
                self._expect(errors, f"ingest {row[0]}", field, got, want)
        return errors

    def check_index(self, path) -> list[str]:
        errors: list[str] = []
        for i, row in enumerate(self._rows(path, INDEX_COLUMNS, errors)):
            k_mt, k_ut = self.ref_a["k_cont"][i], self.ref_b["k_cont"][i]
            d_un, d_e = self.ref_un["k_cont"][i], self.ref_exp["k_cont"][i]
            want = [
                k_mt,
                k_ut,
                self.ref_a["male"][i],
                self.ref_a["female"][i],
                100.0 * k_ut / (k_ut + k_mt),
                d_un,
                d_e,
                100.0 * d_e / (d_un + d_e),
            ]
            for field, got, w in zip(INDEX_COLUMNS[1:], row[1:], want):
                self._expect(errors, f"mu {row[0]}", field, got, w)
            for field in ("mu", "p_un"):
                value = float(row[INDEX_COLUMNS.index(field)])
                if not 0.0 <= value <= 100.0:
                    errors.append(f"mu {row[0]}: {field}={value} outside [0, 100]")
        return errors

    def check_batch(self, path, which: str) -> list[str]:
        ref = self.ref_exp if which == "model" else self.ref_query
        errors: list[str] = []
        for i, row in enumerate(self._rows(path, ["name", "d", "k", "k_cont"], errors)):
            where = f"batch {which} {row[0]}"
            d = int(row[1])
            w_star = ref["w_star"][i]
            near_integer = abs(w_star - round(w_star)) <= REL_TOL * max(w_star, 1.0)
            if d != ref["d"][i] and not (near_integer and abs(d - ref["d"][i]) == 1):
                errors.append(f"{where}: d={d} want {int(ref['d'][i])}")
            self._expect(errors, where, "k", row[2], d * DELTA)
            self._expect(errors, where, "k_cont", row[3], ref["k_cont"][i])
        return errors

    def check_punif(self, path) -> list[str]:
        errors: list[str] = []
        for i, row in enumerate(self._rows(path, ["name", "d_un", "d_e30", "p_un"], errors)):
            d_un, d_e = self.ref_un["k_cont"][i], self.ref_exp["k_cont"][i]
            for field, got, want in zip(("d_un", "d_e30", "p_un"), row[1:], (d_un, d_e, 100.0 * d_e / (d_un + d_e))):
                self._expect(errors, f"punif {row[0]}", field, got, want)
            if not 0.0 <= float(row[3]) <= 100.0:
                errors.append(f"punif {row[0]}: p_un={row[3]} outside [0, 100]")
        return errors

    def _points(self, index_csv, y_field: str, log_y: bool) -> list[tuple[str, float, float]]:
        """(name, x, y) scatter points the report must emit, in index order."""
        _, rows = read_rows(index_csv)
        mu_col = INDEX_COLUMNS.index("mu")
        points = []
        for row in rows:
            indicator = "birth_rate" if y_field == "ppb" else y_field
            value = self.indicators.get((row[0], indicator))
            if value is None:
                continue
            y = 1000.0 / value if y_field == "ppb" else value
            points.append((row[0], float(row[mu_col]), math.log10(y) if log_y else y))
        return points

    def check_report_csv(self, path, index_csv, y_field: str) -> list[str]:
        errors: list[str] = []
        points = self._points(index_csv, y_field, log_y=False)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        body = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
        if body[:1] != [["name", "x", "y"]] or len(body) - 1 != len(points):
            return [f"report csv: {len(body) - 1} points, want {len(points)}"]
        for (name, x, y), row in zip(points, body[1:]):
            if row[0] != name:
                errors.append(f"report csv: point {row[0]} want {name}")
                continue
            self._expect(errors, f"report {name}", "x", row[1], x)
            self._expect(errors, f"report {name}", "y", row[2], y)
        xs = np.array([p[1] for p in points])
        ys = np.array([p[2] for p in points])
        slope, intercept = np.polyfit(xs, ys, 1)
        r = float(np.corrcoef(xs, ys)[0, 1])
        fit = dict(kv.split("=") for kv in header[-1].removeprefix("# fit ").split())
        for field, want in (("slope", slope), ("intercept", intercept), ("pearson_r", r)):
            self._expect(errors, "report fit", field, fit.get(field, "nan"), float(want))
        return errors

    def check_report_svg(self, path, index_csv, y_field: str) -> list[str]:
        points = self._points(index_csv, y_field, log_y=True)
        try:
            root = ET.parse(path).getroot()
        except ET.ParseError as exc:
            return [f"report svg: not well-formed ({exc})"]
        ns = "{http://www.w3.org/2000/svg}"
        titles = [c.findtext(f"{ns}title") for c in root.iter(f"{ns}circle")]
        if titles != [p[0] for p in points]:
            return [f"report svg: {len(titles)} points, want {len(points)}"]
        return []

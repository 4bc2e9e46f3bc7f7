import io
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kdiss.cli import main
from kdiss.errors import DomainError, SchemaError
from kdiss.formats import IndexRow
from kdiss.report import (
    ScatterSeries,
    emit,
    fit_series,
    join,
    linear_fit,
    pearson,
    ppb,
    read_indicators,
)


def index_row(name, mu=50.0, k_mt=10.0):
    return IndexRow(name, k_mt, 40.0, 5.0, 5.0, mu, 12.0, 20.0, 62.5)


def indicator_csv(rows):
    lines = ["name,indicator,value"] + [f"{n},{i},{v}" for n, i, v in rows]
    return io.StringIO("\n".join(lines) + "\n")


class TestReadIndicators:
    def test_reads_values(self):
        table = read_indicators(indicator_csv([("aa", "gdp", 10.5), ("aa", "iq", 95)]))
        assert table.get("aa", "gdp") == 10.5
        assert {indicator for _, indicator in table.values} == {"gdp", "iq"}

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            read_indicators(indicator_csv([("aa", "gdp", 1), ("aa", "gdp", 2)]))

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            read_indicators(io.StringIO("nom,ind,val\n"))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("aa,gdp", "row 3: expected 3 fields, got 2"),
            ("aa,iq,high", "row 3: non-numeric value 'high'"),
            ("aa,gdp,2", "row 3: duplicate indicator row for ('aa', 'gdp')"),
        ],
    )
    def test_row_error_message(self, line, message):
        with pytest.raises(SchemaError) as exc_info:
            read_indicators(io.StringIO(f"name,indicator,value\naa,gdp,1\n{line}\n"))
        assert str(exc_info.value) == message

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + indicator_csv([("aa", "gdp", 10.5)]).getvalue().encode("utf-8"))
        assert read_indicators(path).get("aa", "gdp") == 10.5


class TestJoin:
    def test_disjoint_names(self):
        rows = [index_row("aa"), index_row("bb")]
        indicators = read_indicators(indicator_csv([("cc", "gdp", 1.0)]))
        series, unmatched = join(rows, indicators, "mu", "gdp")
        assert series.points == ()
        assert len(unmatched) == 2

    def test_exact_match(self):
        rows = [index_row("aa", mu=30.0), index_row("bb", mu=60.0)]
        indicators = read_indicators(indicator_csv([("aa", "gdp", 1.0), ("bb", "gdp", 2.0)]))
        series, unmatched = join(rows, indicators, "mu", "gdp")
        assert unmatched == []
        assert series.points == ((30.0, 1.0, "aa"), (60.0, 2.0, "bb"))

    def test_index_only_fields_need_no_indicators(self):
        rows = [index_row("aa"), index_row("bb")]
        series, unmatched = join(rows, None, "k_m_male", "k_m_female")
        assert len(series.points) == 2
        assert unmatched == []

    def test_ppb_derived_from_birth_rate(self):
        rows = [index_row("aa", mu=40.0)]
        indicators = read_indicators(indicator_csv([("aa", "birth_rate", 20.0)]))
        series, _ = join(rows, indicators, "mu", "ppb")
        assert series.points[0][1] == 50.0

    def test_birth_rate_without_a_ppb_is_unmatched(self):
        rates = [("aa", 20.0), ("bb", 0.0), ("cc", -3.0), ("dd", math.nan), ("ee", math.inf)]
        rows = [index_row(name) for name, _ in rates]
        indicators = read_indicators(indicator_csv([(name, "birth_rate", rate) for name, rate in rates]))
        series, unmatched = join(rows, indicators, "mu", "ppb")
        assert series.points == ((50.0, 50.0, "aa"),)
        assert unmatched == [
            "bb: birth rate must be positive, got 0.0",
            "cc: birth rate must be positive, got -3.0",
            "dd: birth rate must be positive, got nan",
            "ee: birth rate must be positive, got inf",
        ]

    def test_log_transform_and_domain_reporting(self):
        rows = [index_row("aa"), index_row("bb")]
        indicators = read_indicators(indicator_csv([("aa", "gdp", 100.0), ("bb", "gdp", 0.0)]))
        series, unmatched = join(rows, indicators, "mu", "gdp", logy=True)
        assert len(series.points) == 1
        assert series.points[0][1] == pytest.approx(2.0)
        assert len(unmatched) == 1

    def test_non_finite_values_are_unmatched(self):
        """An inf read from an index or indicator file is listed, as nan is, and
        never reaches the fit, whose sums would be -inf + inf."""
        rows = [index_row("aa", k_mt=1.0), index_row("bb", k_mt=math.inf), index_row("cc", k_mt=math.nan)]
        rows += [index_row("dd", mu=math.inf, k_mt=2.0), index_row("ee", k_mt=3.0)]
        series, unmatched = join(rows, None, "k_mt", "mu")
        assert series.points == ((1.0, 50.0, "aa"), (3.0, 50.0, "ee"))
        assert unmatched == ["bb: undefined value", "cc: undefined value", "dd: undefined value"]
        series, unmatched = join(rows[:2], None, "k_mt", "mu", logx=True)
        assert series.points == ((0.0, 50.0, "aa"),)
        assert unmatched == ["bb: undefined value"]

    def test_never_fabricates(self):
        rows = [index_row("aa")]
        indicators = read_indicators(indicator_csv([("aa", "gdp", 1.0), ("bb", "gdp", 2.0)]))
        series, _ = join(rows, indicators, "mu", "gdp")
        assert len(series.points) <= 1

    def test_indicator_fields_without_indicators_are_unmatched(self):
        for field in ("gdp", "ppb"):
            series, unmatched = join([index_row("aa")], None, "mu", field)
            assert (series.points, unmatched) == ((), [f"aa: no value for {field!r}"])

    def test_ppb_without_a_birth_rate_is_unmatched(self):
        indicators = read_indicators(indicator_csv([("aa", "gdp", 1.0)]))
        series, unmatched = join([index_row("aa")], indicators, "ppb", "mu")
        assert (series.points, unmatched) == ((), ["aa: no value for 'ppb'"])


def test_report_of_ppb_keeps_the_rows_that_have_one(tmp_path, capsys):
    index = Path(__file__).resolve().parents[1] / "demos" / "output" / "index.csv"
    indicators = tmp_path / "indicators.csv"
    rates = "".join(f"country{i:02d},birth_rate,{0 if i == 3 else 12 + i}\n" for i in range(8))
    indicators.write_text("name,indicator,value\n" + rates, encoding="utf-8")
    code = main(["report", "--indexes", str(index), "--indicators", str(indicators), "--x", "mu", "--y", "ppb"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert err == "unmatched: country03: birth rate must be positive, got 0.0\n"
    assert "# n=7\n" in out and "\ncountry03," not in out


class TestPearson:
    def test_exactly_linear(self):
        pts = [(x, 2 * x + 1) for x in (1.0, 2.0, 3.0, 4.0)]
        assert pearson(pts) == pytest.approx(1.0)

    def test_decreasing(self):
        pts = [(x, -3 * x) for x in (1.0, 2.0, 3.0)]
        assert pearson(pts) == pytest.approx(-1.0)

    def test_zero_variance(self):
        with pytest.raises(DomainError):
            pearson([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            pearson([(1.0, 1.0), (2.0, 2.0)])

    def test_order_invariant(self):
        pts = [(1.0, 2.0), (2.0, 5.0), (3.0, 4.0), (4.0, 9.0)]
        assert pearson(pts) == pytest.approx(pearson(pts[::-1]), rel=1e-12)


class TestLinearFit:
    def test_exact_line(self):
        pts = [(x, 2 * x + 1) for x in (0.0, 1.0, 2.0)]
        slope, intercept = linear_fit(pts)
        assert slope == pytest.approx(2.0, rel=1e-12)
        assert intercept == pytest.approx(1.0, rel=1e-12)

    def test_single_valued_x(self):
        with pytest.raises(DomainError):
            linear_fit([(1.0, 1.0), (1.0, 2.0)])

    def test_order_invariant(self):
        pts = [(1.0, 2.0), (2.0, 5.0), (3.0, 4.0)]
        assert linear_fit(pts) == pytest.approx(linear_fit(pts[::-1]), rel=1e-12)


class TestPpb:
    @pytest.mark.parametrize("rate,expected", [(20.0, 50.0), (10.0, 100.0)])
    def test_values(self, rate, expected):
        assert ppb(rate) == expected

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            ppb(0.0)

    def test_strictly_decreasing(self):
        rates = (5.0, 10.0, 20.0, 40.0)
        values = [ppb(r) for r in rates]
        assert values == sorted(values, reverse=True)


class TestEmit:
    def test_empty_csv(self):
        out = emit(ScatterSeries("empty", ()), "csv").decode()
        lines = out.splitlines()
        assert lines[-1] == "name,x,y"
        assert len([l for l in lines if not l.startswith("#")]) == 1

    def test_two_points(self):
        series = ScatterSeries("s", ((1.0, 2.0, "aa"), (3.0, 4.0, "bb")))
        lines = emit(series, "csv").decode().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 3

    def test_fit_in_header(self):
        series = fit_series(ScatterSeries("s", ((0.0, 1.0, "a"), (1.0, 3.0, "b"), (2.0, 5.0, "c"))))
        out = emit(series, "csv").decode()
        assert "# fit slope=2 intercept=1 pearson_r=1" in out

    def test_deterministic(self):
        series = ScatterSeries("s", ((1.0, 2.0, "aa"), (3.0, 4.0, "bb")))
        assert emit(series, "csv") == emit(series, "csv")
        assert emit(series, "svg") == emit(series, "svg")

    def test_svg_is_wellformed(self):
        series = fit_series(ScatterSeries("s<&>", ((0.0, 1.0, "a"), (1.0, 3.0, "b"), (2.0, 5.0, "c"))))
        root = ET.fromstring(emit(series, "svg").decode())
        assert root.tag.endswith("svg")
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(circles) == 3

    def test_svg_axis_when_every_x_is_equal(self):
        # one x has no range to pad by a share of: the axis runs from x - 1 to x + 1
        series = ScatterSeries("s", ((2.5, 1.0, "a"), (2.5, 3.0, "b")))
        root = ET.fromstring(emit(series, "svg").decode())
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        x_axis = [el.text for el in texts if el.get("font-size") == "11" and el.get("text-anchor") == "middle"]
        assert x_axis == ["1.5", "3.5"]
        cxs = {el.get("cx") for el in root.iter() if el.tag.endswith("circle")}
        assert cxs == {"345.00"}  # the middle of the plot, 70 + 550 / 2

    def test_empty_svg(self):
        root = ET.fromstring(emit(ScatterSeries("none", ()), "svg").decode())
        assert root.tag.endswith("svg")

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            emit(ScatterSeries("s", ()), "png")


# Byte pins for the SVG branches that demos/output/*.svg, a fitted and
# labelled series, do not reach.
_SVG_HEAD = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">
<rect width="640" height="480" fill="white"/>
<text x="320.0" y="24" text-anchor="middle" font-family="sans-serif" font-size="16">{title}</text>
<rect x="70" y="40" width="550" height="390" fill="none" stroke="black" stroke-width="1"/>
"""

_SVG_EMPTY = _SVG_HEAD.format(title="none &amp; &lt;empty&gt;") + """\
<text x="320.0" y="240.0" text-anchor="middle" font-family="sans-serif" font-size="13">0 points</text>
<text x="345.0" y="468" text-anchor="middle" font-family="sans-serif" font-size="12">mu</text>
<text x="18" y="235.0" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 18 235.0)">gdp</text>
</svg>"""

_SVG_NO_FIT = _SVG_HEAD.format(title="y vs x") + """\
<clipPath id="plot"><rect x="70" y="40" width="550" height="390"/></clipPath>
<circle cx="95.00" cy="412.27" r="3" fill="steelblue" fill-opacity="0.8"><title>a&lt;b</title></circle>
<circle cx="595.00" cy="57.73" r="3" fill="steelblue" fill-opacity="0.8"><title>c&amp;d</title></circle>
<text x="70" y="448" text-anchor="middle" font-family="sans-serif" font-size="11">0.9</text>
<text x="620" y="448" text-anchor="middle" font-family="sans-serif" font-size="11">3.1</text>
<text x="64" y="434.0" text-anchor="end" font-family="sans-serif" font-size="11">1.875</text>
<text x="64" y="44.0" text-anchor="end" font-family="sans-serif" font-size="11">4.625</text>
<text x="345.0" y="468" text-anchor="middle" font-family="sans-serif" font-size="12">x</text>
<text x="18" y="235.0" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 18 235.0)">log10(y)</text>
</svg>"""

_SVG_NO_LABELS = _SVG_HEAD.format(title="s") + """\
<clipPath id="plot"><rect x="70" y="40" width="550" height="390"/></clipPath>
<line clip-path="url(#plot)" x1="70.00" y1="430.00" x2="620.00" y2="40.00" stroke="crimson" stroke-width="1.5"/>
<circle cx="95.00" cy="412.27" r="3" fill="steelblue" fill-opacity="0.8"><title>a</title></circle>
<circle cx="345.00" cy="235.00" r="3" fill="steelblue" fill-opacity="0.8"><title>b</title></circle>
<circle cx="595.00" cy="57.73" r="3" fill="steelblue" fill-opacity="0.8"><title>c</title></circle>
<text x="70" y="448" text-anchor="middle" font-family="sans-serif" font-size="11">-0.1</text>
<text x="620" y="448" text-anchor="middle" font-family="sans-serif" font-size="11">2.1</text>
<text x="64" y="434.0" text-anchor="end" font-family="sans-serif" font-size="11">0.8</text>
<text x="64" y="44.0" text-anchor="end" font-family="sans-serif" font-size="11">5.2</text>
</svg>"""


@pytest.mark.parametrize(
    "series, expected",
    [
        (ScatterSeries("none & <empty>", (), None, "mu", "gdp"), _SVG_EMPTY),
        (ScatterSeries("y vs x", ((1.0, 2.0, "a<b"), (3.0, 4.5, "c&d")), None, "x", "log10(y)"), _SVG_NO_FIT),
        (fit_series(ScatterSeries("s", ((0.0, 1.0, "a"), (1.0, 3.0, "b"), (2.0, 5.0, "c")))), _SVG_NO_LABELS),
    ],
    ids=["empty", "no-fit", "no-axis-labels"],
)
def test_svg_bytes(series, expected):
    assert emit(series, "svg") == expected.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(-1.0, 1.0)), min_size=3, max_size=60),
    st.floats(-10.0, 10.0),
    st.floats(-100.0, 100.0),
)
def test_fit_matches_numpy_reference(pairs, slope, intercept):
    """pearson and linear_fit (fsum-based, no numpy) against the numpy formulas
    on well-conditioned points: x spread out, r away from 0."""
    np = pytest.importorskip("numpy")
    points = [(x, slope * x + intercept + 10.0 * e) for x, e in pairs]
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    dx, dy = x - x.mean(), y - y.mean()
    vx, vy = float(np.dot(dx, dx)), float(np.dot(dy, dy))
    assume(vx >= len(points) and vy >= 1e-2 * len(points))
    ref_r = float(np.dot(dx, dy) / math.sqrt(vx * vy))
    assume(abs(ref_r) >= 1e-3)
    ref_slope = float(np.dot(dx, dy) / vx)
    ref_intercept = float(y.mean() - ref_slope * x.mean())

    assert pearson(points) == pytest.approx(ref_r, rel=1e-9, abs=0.0)
    got_slope, got_intercept = linear_fit(points)
    assert got_slope == pytest.approx(ref_slope, rel=1e-9, abs=0.0)
    # the intercept is a difference: relative to the size of its two terms
    scale = abs(float(y.mean())) + abs(ref_slope * float(x.mean()))
    assert got_intercept == pytest.approx(ref_intercept, rel=1e-9, abs=1e-9 * scale)

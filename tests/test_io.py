import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncpool import (DomainError, ParseError, ReportDocument,
                     RunConfig, SurveyData, build_grid, enumerate_partitions,
                     evaluate_joint, exact_mixture_moments, input_echo,
                     logit_transform, parse_input, parse_scenario, sample_mu)
from uncpool.io import render_csv, render_markdown, render_report
from uncpool.simulation import sim_report_csv, sim_report_json


# ---------------------------------------------------------------------------
# logit ingestion
# ---------------------------------------------------------------------------

def test_logit_balanced():
    est, var = logit_transform(50, 100)
    assert est == 0.0
    assert var == 0.04


def test_logit_quarter():
    est, var = logit_transform(25, 100)
    assert est == pytest.approx(math.log(25 / 75), abs=1e-12)
    assert var == pytest.approx(1 / 25 + 1 / 75, abs=1e-14)


def test_logit_boundary_correction():
    est, var = logit_transform(0, 20)
    assert est == pytest.approx(math.log(0.5 / 20.5), abs=1e-12)
    assert var == pytest.approx(1 / 0.5 + 1 / 20.5, abs=1e-12)
    est_hi, _ = logit_transform(20, 20)
    assert est_hi == pytest.approx(-est, abs=1e-12)
    # interior counts are untouched by the correction
    est_in, _ = logit_transform(1, 20)
    assert est_in == pytest.approx(math.log(1 / 19), abs=1e-12)


def test_logit_domain():
    with pytest.raises(DomainError):
        logit_transform(0, 0)
    with pytest.raises(DomainError):
        logit_transform(5, 4)
    with pytest.raises(DomainError):
        logit_transform(-1, 4)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def test_parse_summary_form():
    src = io.StringIO("label,estimate,se\nS1,0.254,0.014\nS2,0.361,0.028\n")
    data = parse_input(src)
    assert data.labels == ("S1", "S2")
    assert data.y_hat == pytest.approx([0.254, 0.361])
    assert data.v == pytest.approx([0.014 ** 2, 0.028 ** 2], rel=1e-15)
    assert data.source_form == "summary"


def test_parse_binomial_form():
    src = io.StringIO("label,cases,total\nA,50,100\nB,25,100\n")
    data = parse_input(src)
    assert data.y_hat[0] == 0.0
    assert data.v[0] == 0.04
    assert data.source_form == "binomial"
    assert input_echo(data)["form"] == "binomial"


def test_source_form_field():
    data = SurveyData(["a"], [0.3], [0.01])
    assert data.source_form == "summary"
    assert input_echo(data)["form"] == "summary"
    with pytest.raises(DomainError):
        SurveyData(["a"], [0.3], [0.01], source_form="counts")


def test_parse_empty_inputs():
    with pytest.raises(ParseError, match="no records"):
        parse_input(io.StringIO(""))
    with pytest.raises(ParseError, match="no records"):
        parse_input(io.StringIO("label,estimate,se\n"))


def test_parse_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_input(io.StringIO("name,mean,sd\nA,1,2\n"))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_input(io.StringIO("label,estimate,se\nA,0.2,0.01\nB,0.3\n"))
    with pytest.raises(ParseError, match="line 2"):
        parse_input(io.StringIO("label,estimate,se\nA,x,0.01\n"))
    with pytest.raises(ParseError, match="^line 3: empty label$"):
        parse_input(io.StringIO("label,estimate,se\nA,0.2,0.01\n,0.2,0.02\n"))
    with pytest.raises(ParseError, match="^line 2: estimate must be finite, got nan$"):
        parse_input(io.StringIO("label,estimate,se\nA,nan,0.02\n"))
    with pytest.raises(ParseError, match="^line 3: estimate must be finite, got -inf$"):
        parse_input(io.StringIO("label,estimate,se\nA,0.2,0.01\nB,-inf,0.02\n"))
    # 1e-170 and 1e200 square to 0 and to inf; 1e-160 squares to a subnormal whose 1/V is inf
    for se in ("0", "1e-170", "1e200", "1e-160"):
        with pytest.raises(ParseError, match="line 2.*se"):
            parse_input(io.StringIO(f"label,estimate,se\nA,0.2,{se}\n"))
    # each 1/V of 1e308 is finite, but the running total overflows at the second row
    with pytest.raises(ParseError, match="line 3.*se"):
        parse_input(io.StringIO("label,estimate,se\nA,0.2,1e-154\nB,0.3,1e-154\nC,0.4,1e-154\n"))
    with pytest.raises(ParseError, match="line 3"):
        parse_input(io.StringIO("label,cases,total\nA,5,10\nB,11,10\n"))
    with pytest.raises(ParseError, match="line 2"):
        parse_input(io.StringIO("label,cases,total\nA,5.5,10\n"))
    # a quoted line break would join the label into "AB" and misnumber every later line
    with pytest.raises(ParseError, match="^line 2: a quoted field runs from line 2 to line 3"):
        parse_input(io.StringIO('label,estimate,se\n"A\nB",0.2,0.01\nC,0.3,x\n'))
    with pytest.raises(ParseError, match="^line 4: a quoted field runs from line 4 to line 5"):
        parse_input(io.StringIO('label,estimate,se\nA,0.2,0.01\n\nB,0.3,"0.02\n"\n'))
    with pytest.raises(ParseError, match="^line 4: non-numeric fields in '0.3','x'$"):
        parse_input(io.StringIO('label,estimate,se\nA,0.2,0.01\n\nC,0.3,x\n'))


def test_parse_from_path(tmp_path):
    f = tmp_path / "in.csv"
    f.write_text("label,estimate,se\nA,0.1,0.05\n", encoding="utf-8")
    assert parse_input(f).labels == ("A",)
    assert parse_input(str(f)).labels == ("A",)


def test_parse_ignores_byte_order_mark(tmp_path):
    f = tmp_path / "bom.csv"
    f.write_bytes(b"\xef\xbb\xbflabel,estimate,se\nA,0.1,0.05\nB,0.2,0.05\n")
    assert parse_input(f).labels == ("A", "B")
    assert parse_input(io.StringIO("\ufefflabel,cases,total\nA,5,10\n")).labels == ("A",)
    # only a leading mark is dropped; one inside a label is kept
    assert parse_input(io.StringIO("label,estimate,se\n\ufeffA,0.1,0.05\n")).labels == ("\ufeffA",)


def test_parse_rejects_repeated_label():
    src = io.StringIO("label,estimate,se\nA,0.1,0.05\n\nB,0.2,0.05\nA,0.3,0.05\n")
    with pytest.raises(ParseError, match="line 5: label 'A' repeats line 2") as err:
        parse_input(src)
    assert err.value.line == 5
    # labels are compared after whitespace stripping
    with pytest.raises(ParseError, match="line 3"):
        parse_input(io.StringIO("label,cases,total\nA,5,10\n A ,6,10\n"))


def test_binomial_and_summary_ingestion_agree(tmp_path):
    # the same records fed through both forms give the same analysis
    bin_file = tmp_path / "counts.csv"
    bin_file.write_text("label,cases,total\nA,140,400\nB,130,420\nC,80,390\n", encoding="utf-8")
    data_bin = parse_input(bin_file)
    rows = ["label,estimate,se"]
    for lab, est, var in zip(data_bin.labels, data_bin.y_hat, data_bin.v):
        rows.append(f"{lab},{float(est)!r},{math.sqrt(var)!r}")
    sum_file = tmp_path / "summary.csv"
    sum_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
    data_sum = parse_input(sum_file)
    assert data_sum.y_hat == pytest.approx(data_bin.y_hat, abs=0)
    assert data_sum.v == pytest.approx(data_bin.v, rel=1e-12)
    space = enumerate_partitions(3)
    grid = build_grid(300)
    m_bin, s_bin = exact_mixture_moments(data_bin, evaluate_joint(data_bin, space, grid))
    m_sum, s_sum = exact_mixture_moments(data_sum, evaluate_joint(data_sum, space, grid))
    assert m_sum == pytest.approx(m_bin, abs=1e-12)
    assert s_sum == pytest.approx(s_bin, abs=1e-12)


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------

def sample_doc():
    return ReportDocument(
        kind="pool",
        input={"labels": ["A"], "estimates": [0.1], "variances": [0.0004], "form": "summary"},
        config={"r": 100, "b": 200, "seed": 7, "format": "json", "threshold": 0.001},
        results={"summary": {
            "rows": [{"label": "A", "observed": 0.1, "post_mean": 0.1,
                      "observed_se": 0.02, "post_sd": 0.02,
                      "ci_lower": 0.06, "ci_upper": 0.14}],
            "partition_probs": [{"partition": "{1}", "prob": 1.0, "label": None}],
            "pool_all": {"mean": 0.1, "sd": 0.01, "ci_lower": 0.08, "ci_upper": 0.12},
        }},
    )


def test_report_json_roundtrip_is_byte_identical():
    doc = sample_doc()
    text = doc.to_json()
    again = ReportDocument.from_json(text).to_json()
    assert text == again
    # floats survive exactly
    assert ReportDocument.from_json(text).results == doc.results


def test_report_renderers():
    doc = sample_doc()
    md = render_markdown(doc)
    assert "| A |" in md and "pool-all" in md and "seed: 7" in md
    csv_text = render_csv(doc)
    assert csv_text.splitlines()[0].startswith("survey,observed")
    assert "pool-all" in csv_text
    assert render_report(doc, "json") == doc.to_json()
    with pytest.raises(DomainError):
        render_report(doc, "yaml")


# Labels the CSV reader gives back unchanged: no surrounding blanks (cells are
# stripped), no line breaks; commas and quotes are quoted by the writer.
_LABELS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
                  min_size=1, max_size=8).map(str.strip).filter(bool)
_SUMMARY_ROWS = st.lists(
    st.tuples(_LABELS, st.floats(-1e6, 1e6, allow_nan=False),
              st.floats(1e-150, 1e150, allow_nan=False)),
    min_size=1, max_size=6, unique_by=lambda row: row[0])
_BINOMIAL_ROWS = st.lists(
    st.tuples(_LABELS, st.integers(1, 10 ** 9)).flatmap(
        lambda row: st.tuples(st.just(row[0]), st.integers(0, row[1]), st.just(row[1]))),
    min_size=1, max_size=6, unique_by=lambda row: row[0])


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=40, deadline=None)
@given(form=st.sampled_from(["summary", "binomial"]), data=st.data())
def test_input_echo_round_trips_through_a_summary_csv(form, data):
    if form == "summary":
        rows = data.draw(_SUMMARY_ROWS)
        text = _csv_text(["label", "estimate", "se"],
                         [(a, repr(y), repr(se)) for a, y, se in rows])
    else:
        rows = data.draw(_BINOMIAL_ROWS)
        text = _csv_text(["label", "cases", "total"], rows)
    echo = input_echo(parse_input(io.StringIO(text)))
    assert echo["form"] == form
    summary = _csv_text(["label", "estimate", "se"],
                        [(a, repr(y), repr(math.sqrt(v)))
                         for a, y, v in zip(echo["labels"], echo["estimates"], echo["variances"])])
    again = input_echo(parse_input(io.StringIO(summary)))
    assert again["form"] == "summary"
    assert again["labels"] == echo["labels"]
    assert again["estimates"] == echo["estimates"]
    # se = sqrt(v) squared again lands within one ulp of v
    for v0, v1 in zip(echo["variances"], again["variances"]):
        assert abs(v1 - v0) <= math.ulp(v0)


def test_run_config_validation():
    with pytest.raises(DomainError):
        RunConfig(r=1)
    with pytest.raises(DomainError):
        RunConfig(b=0)
    with pytest.raises(DomainError, match="xml"):   # the output format is render_report's
        render_report(sample_doc(), "xml")
    with pytest.raises(DomainError, match="seed"):
        RunConfig(seed=-1)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def test_parse_scenario_full(tmp_path):
    f = tmp_path / "scen.txt"
    f.write_text(
        "# three-source study\n"
        "psi1 = 0.276\npsi2 = 0.179\nv1 = 0.0036\nv2 = 0.000036\n"
        "delta = 0.0772\nreps = 12\nr = 250\nb = 600\nbase_seed = 9\n",
        encoding="utf-8",
    )
    s = parse_scenario(f)
    assert s.psi1 == 0.276 and s.delta_shift == 0.0772
    assert s.reps == 12 and s.r == 250 and s.b == 600 and s.base_seed == 9


def test_parse_scenario_defaults_and_errors(tmp_path):
    s = parse_scenario(io.StringIO("delta_shift = 0.1\n"))
    assert s.delta_shift == 0.1 and s.reps == 500
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario(io.StringIO("nonsense\n"))
    with pytest.raises(ParseError, match="unknown scenario key"):
        parse_scenario(io.StringIO("sigma = 3\n"))
    with pytest.raises(ParseError, match="bad value"):
        parse_scenario(io.StringIO("reps = many\n"))


@pytest.mark.parametrize("text, line, first", [
    ("reps = 3\nreps = 5\n", 2, 1),
    ("delta_shift = 0.1\n# the alias names the same field\ndelta = 0.2\n", 3, 1),
    ("Reps = 3\n\nb = 10\nREPS = 3\n", 4, 1),
])
def test_parse_scenario_rejects_a_repeated_key(text, line, first):
    # the last value used to win silently
    key = "delta_shift" if "delta" in text else "reps"
    with pytest.raises(ParseError, match=rf"^line {line}: {key} is set again; "
                                         rf"first set on line {first}$") as err:
        parse_scenario(io.StringIO(text))
    assert err.value.line == line


def test_sim_report_serializers():
    from uncpool import SimScenario, run_scenario

    rep = run_scenario(SimScenario(reps=2, r=120, b=400, base_seed=1))
    js = sim_report_json(rep)
    assert json.loads(js)["scenario"]["reps"] == 2
    lines = sim_report_csv(rep).splitlines()
    assert lines[0].startswith("delta_shift,")
    assert len(lines) == 2

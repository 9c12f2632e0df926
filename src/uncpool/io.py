"""Input parsing, run configuration, and report serialization.

Input files are comma-delimited with a header of either
``label,estimate,se`` (summary form) or ``label,cases,total`` (binomial
form, converted to the logit scale on ingestion).  Reports serialize to
JSON (canonical, round-trips byte-identically), CSV, or markdown.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError, ParseError
from .model import SurveyData
from .simulation import SimReport, SimScenario

SUMMARY_HEADER = ("label", "estimate", "se")
BINOMIAL_HEADER = ("label", "cases", "total")


@dataclass(frozen=True)
class InputRecord:
    """One parsed input row: summary (estimate, se) or binomial (cases, total).

    The two forms are mutually exclusive per record; a file uses one form
    throughout, fixed by its header.
    """

    label: str
    estimate: float | None = None
    se: float | None = None
    cases: int | None = None
    total: int | None = None

    def __post_init__(self):
        summary = self.estimate is not None or self.se is not None
        binomial = self.cases is not None or self.total is not None
        if summary == binomial:
            raise DomainError("record must be summary or binomial, not both")
        if summary:
            if self.estimate is None or self.se is None or not math.isfinite(self.estimate):
                raise DomainError("summary record needs finite estimate and se")
            if not (math.isfinite(self.se) and self.se > 0):
                raise DomainError(f"se must be > 0, got {self.se}")
        else:
            if self.cases is None or self.total is None:
                raise DomainError("binomial record needs cases and total")
            if self.total < 1 or not 0 <= self.cases <= self.total:
                raise DomainError(f"need 0 <= cases <= total, total >= 1; "
                                  f"got cases={self.cases}, total={self.total}")

    def to_moments(self) -> tuple[float, float]:
        """(estimate, variance) on the analysis scale."""
        if self.estimate is not None:
            return self.estimate, self.se * self.se
        return logit_transform(self.cases, self.total)


def logit_transform(y: int, n: int) -> tuple[float, float]:
    """Logit of a sample proportion and its delta-method variance.

    estimate = log(p / (1-p)) with p = y/n; variance = 1/y + 1/(n-y).
    At the boundary (y = 0 or y = n) a half count is added to both cells,
    i.e. y* = y + 1/2 and n* = n + 1, keeping both values finite.
    """
    if n < 1:
        raise DomainError(f"total count must be >= 1, got {n}")
    if not 0 <= y <= n:
        raise DomainError(f"cases must satisfy 0 <= y <= n, got y={y}, n={n}")
    ys, ns = (y + 0.5, n + 1.0) if y in (0, n) else (float(y), float(n))
    estimate = math.log(ys / (ns - ys))
    variance = 1.0 / ys + 1.0 / (ns - ys)
    return estimate, variance


def _read_lines(source) -> list[str]:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8").splitlines()
    return source.read().splitlines()


def parse_input(source) -> SurveyData:
    """Parse a survey input file (path, or file-like object) to SurveyData.

    Summary records become (estimate, se^2); binomial records pass through
    :func:`logit_transform`.  Raises ParseError with the offending 1-based
    line number on malformed input.
    """
    lines = _read_lines(source)
    rows = list(csv.reader(lines))
    rows = [(i + 1, [c.strip() for c in row]) for i, row in enumerate(rows)
            if any(c.strip() for c in row)]
    if not rows:
        raise ParseError("no records")
    header_line, header = rows[0]
    header_t = tuple(h.lower() for h in header)
    if header_t == SUMMARY_HEADER:
        form = "summary"
    elif header_t == BINOMIAL_HEADER:
        form = "binomial"
    else:
        raise ParseError(
            f"header must be 'label,estimate,se' or 'label,cases,total', got {','.join(header)}",
            line=header_line,
        )
    if len(rows) == 1:
        raise ParseError("no records")
    records = []
    for line_no, row in rows[1:]:
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=line_no)
        label = row[0]
        if not label:
            raise ParseError("empty label", line=line_no)
        try:
            if form == "summary":
                rec = InputRecord(label=label, estimate=float(row[1]), se=float(row[2]))
            else:
                rec = InputRecord(label=label, cases=int(row[1]), total=int(row[2]))
        except DomainError as exc:
            raise ParseError(str(exc), line=line_no) from None
        except ValueError:
            raise ParseError(f"non-numeric fields in {row[1]!r},{row[2]!r}",
                             line=line_no) from None
        records.append(rec)
    moments = [rec.to_moments() for rec in records]
    return SurveyData(labels=[rec.label for rec in records],
                      y_hat=[m[0] for m in moments], v=[m[1] for m in moments],
                      source_form=form)


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the CLI commands."""

    r: int = 2000
    b: int = 5000
    seed: int = 0
    format: str = "json"
    threshold: float = 0.001

    def __post_init__(self):
        if self.r < 2:
            raise DomainError("grid size r must be >= 2")
        if self.b < 1:
            raise DomainError("draw count b must be >= 1")
        if self.format not in ("json", "csv", "md"):
            raise DomainError(f"unknown output format {self.format!r}")


@dataclass(frozen=True)
class ReportDocument:
    """Self-describing analysis report: input and config echoes plus results.

    ``results`` holds plain JSON-compatible values, so the document
    round-trips losslessly through its JSON form.
    """

    kind: str
    input: dict
    config: dict
    results: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "input": self.input,
                "config": self.config, "results": self.results}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "ReportDocument":
        return cls(kind=d["kind"], input=d["input"], config=d["config"],
                   results=d["results"])

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls.from_dict(json.loads(text))


def input_echo(data: SurveyData) -> dict:
    return {
        "labels": list(data.labels),
        "estimates": [float(x) for x in data.y_hat],
        "variances": [float(x) for x in data.v],
        "form": data.source_form,
    }


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _markdown_survey_table(rows) -> list[str]:
    out = ["| Survey | ObsProp | PostMean | ObsSE | PostSD | 95% Cred Int |",
           "|---|---|---|---|---|---|"]
    for row in rows:
        out.append(
            f"| {row['label']} | {_fmt(row['observed'])} | {_fmt(row['post_mean'])} "
            f"| {_fmt(row['observed_se'])} | {_fmt(row['post_sd'])} "
            f"| ({_fmt(row['ci_lower'])}, {_fmt(row['ci_upper'])}) |"
        )
    return out


def render_markdown(doc: ReportDocument) -> str:
    """Human-readable tables mirroring the summary layout."""
    out = [f"# uncpool report ({doc.kind})", ""]
    out.append(f"seed: {doc.config.get('seed')}  |  config: "
               + ", ".join(f"{k}={v}" for k, v in sorted(doc.config.items()) if k != "seed"))
    out.append("")
    summary = doc.results.get("summary")
    if summary:
        out += _markdown_survey_table(summary["rows"])
        pa = summary.get("pool_all")
        if pa:
            out.append(f"| pool-all |  | {_fmt(pa['mean'])} |  | {_fmt(pa['sd'])} "
                       f"| ({_fmt(pa['ci_lower'])}, {_fmt(pa['ci_upper'])}) |")
        probs = summary.get("partition_probs", [])
        if probs:
            out.append("")
            parts = []
            for pm in probs:
                tag = f"g={pm['label']} " if pm.get("label") else ""
                parts.append(f"{tag}{pm['partition']}: {pm['prob']:.3f}")
            out.append("partition probabilities: " + "; ".join(parts))
    pa = doc.results.get("pool_all")
    if pa:
        out.append("")
        out.append(f"pool-all: mean={_fmt(pa['mean'])} sd={_fmt(pa['sd'])} "
                   f"95% interval=({_fmt(pa['ci_lower'])}, {_fmt(pa['ci_upper'])})")
    dpm = doc.results.get("dpm")
    if dpm:
        out.append("")
        out += _markdown_survey_table(dpm["rows"])
    out.append("")
    return "\n".join(out)


def render_csv(doc: ReportDocument) -> str:
    """Machine-readable tables; sections separated by a blank line."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    summary = doc.results.get("summary") or doc.results.get("dpm")
    if summary:
        w.writerow(["survey", "observed", "post_mean", "observed_se",
                    "post_sd", "ci_lower", "ci_upper"])
        for row in summary["rows"]:
            w.writerow([row["label"], repr(row["observed"]), repr(row["post_mean"]),
                        repr(row["observed_se"]), repr(row["post_sd"]),
                        repr(row["ci_lower"]), repr(row["ci_upper"])])
        pa = summary.get("pool_all")
        if pa:
            w.writerow(["pool-all", "", repr(pa["mean"]), "", repr(pa["sd"]),
                        repr(pa["ci_lower"]), repr(pa["ci_upper"])])
        probs = summary.get("partition_probs")
        if probs:
            w.writerow([])
            w.writerow(["partition", "label", "prob"])
            for pm in probs:
                w.writerow([pm["partition"], pm.get("label") or "", repr(pm["prob"])])
    pa = doc.results.get("pool_all")
    if pa:
        w.writerow(["pool-all", "", repr(pa["mean"]), "", repr(pa["sd"]),
                    repr(pa["ci_lower"]), repr(pa["ci_upper"])])
    return buf.getvalue()


def render_report(doc: ReportDocument, fmt: str) -> str:
    if fmt == "json":
        return doc.to_json()
    if fmt == "csv":
        return render_csv(doc)
    if fmt == "md":
        return render_markdown(doc)
    raise DomainError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# scenario files and simulation reports
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {"psi1": float, "psi2": float, "v1": float, "v2": float,
                  "delta_shift": float, "reps": int, "r": int, "b": int,
                  "base_seed": int}


def parse_scenario(source) -> SimScenario:
    """Parse a flat ``key = value`` scenario file.

    Recognized keys: psi1, psi2, v1, v2, delta_shift (alias: delta), reps,
    r, b, base_seed.  Lines starting with ``#`` are comments.
    """
    lines = _read_lines(source)
    kwargs: dict = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=i)
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key == "delta":
            key = "delta_shift"
        if key not in _SCENARIO_KEYS:
            raise ParseError(f"unknown scenario key {key!r}", line=i)
        try:
            kwargs[key] = _SCENARIO_KEYS[key](val.strip())
        except ValueError:
            raise ParseError(f"bad value for {key}: {val.strip()!r}", line=i) from None
    return SimScenario(**kwargs)


def sim_report_json(report: SimReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def sim_report_csv(report: SimReport) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    head = (["delta_shift", "reps", "base_seed"]
            + [f"median_p_g{k}" for k in range(1, 6)]
            + [f"coverage_{i}" for i in (1, 2, 3)]
            + [f"coverage_se_{i}" for i in (1, 2, 3)]
            + [f"median_post_mean_{i}" for i in (1, 2, 3)]
            + [f"median_post_sd_{i}" for i in (1, 2, 3)]
            + [f"median_sd_reduction_{i}" for i in (1, 2, 3)])
    w.writerow(head)
    s = report.scenario
    w.writerow([repr(s.delta_shift), s.reps, s.base_seed]
               + [repr(x) for x in report.median_p_g]
               + [repr(x) for x in report.coverage]
               + [repr(x) for x in report.coverage_se]
               + [repr(x) for x in report.median_post_mean]
               + [repr(x) for x in report.median_post_sd]
               + [repr(x) for x in report.median_sd_reduction])
    return buf.getvalue()

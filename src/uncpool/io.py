"""Survey inputs and analysis reports: parsing, run configurations, serialization.

Input files are comma-delimited with a header of either
``label,estimate,se`` (summary form) or ``label,cases,total`` (binomial
form, converted to the logit scale on ingestion).  Every variance V must
be positive, and the precisions 1/V must have a finite sum; the error
names the line at which that sum first overflows.  Each record must fit
on one line, so a quoted field holding a line break is refused at its
first line, and every error names the line of the file it is on.
:class:`RunConfig` (the grid commands) and :class:`DpmConfig` (``dpm``)
check their fields when built; the CLI reads its defaults from them
without loading either model.  Reports serialize to JSON (canonical,
round-trips byte-identically), CSV, or markdown; their per-source rows
are built by :func:`survey_rows`, keyed by ``_ROW_KEYS``.
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

SUMMARY_HEADER = ("label", "estimate", "se")
BINOMIAL_HEADER = ("label", "cases", "total")


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
    try:
        ys, ns = (y + 0.5, n + 1.0) if y in (0, n) else (float(y), float(n))
    except OverflowError:
        raise DomainError(f"total count has {len(str(n))} digits, too many for a float") from None
    if ys == ns:
        raise DomainError(f"cases={y} and total={n} are too close for floats to tell apart")
    estimate = math.log(ys / (ns - ys))
    variance = 1.0 / ys + 1.0 / (ns - ys)
    return estimate, variance


def read_lines(source) -> list[str]:
    """Lines of a path or text stream, without a leading UTF-8 byte-order mark."""
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8-sig").splitlines()
    return source.read().removeprefix("\ufeff").splitlines()


def parse_input(source) -> SurveyData:
    """Parse a survey input file (path, or file-like object) to SurveyData.

    Summary records become (estimate, se^2); binomial records pass through
    :func:`logit_transform`.  Raises ParseError with the offending 1-based
    line number on malformed input, and on the line at which the sum of the
    precisions 1/V first overflows.
    """
    reader = csv.reader(read_lines(source))
    rows, last = [], 0
    for row in reader:
        first, last = last + 1, reader.line_num
        if first != last:
            raise ParseError(f"a quoted field runs from line {first} to line {last}; "
                             "a record must fit on one line", line=first)
        row = [c.strip() for c in row]
        if any(row):
            rows.append((first, row))
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
    labels, estimates, variances = [], [], []
    precision = 0.0   # the running sum of 1/V, which must stay finite
    first_seen: dict[str, int] = {}
    for line_no, row in rows[1:]:
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=line_no)
        label = row[0]
        if not label:
            raise ParseError("empty label", line=line_no)
        if label in first_seen:
            raise ParseError(f"label {label!r} repeats line {first_seen[label]}", line=line_no)
        first_seen[label] = line_no
        try:
            if form == "binomial":
                estimate, v = logit_transform(int(row[1]), int(row[2]))
            else:
                estimate, se = float(row[1]), float(row[2])
                v = se * se
                if not math.isfinite(estimate):
                    raise DomainError(f"estimate must be finite, got {estimate}")
                if not (se > 0 and 0 < v < math.inf):
                    raise DomainError(f"se must be > 0 with a finite, nonzero square; got {se}")
        except DomainError as exc:
            raise ParseError(str(exc), line=line_no) from None
        except ValueError:
            raise ParseError(f"non-numeric fields in {row[1]!r},{row[2]!r}",
                             line=line_no) from None
        precision += 1.0 / v
        if precision == math.inf:
            raise ParseError(f"se^2 = {v!r} takes the total precision, the sum of 1/se^2, "
                             "past the float range", line=line_no)
        labels.append(label)
        estimates.append(estimate)
        variances.append(v)
    return SurveyData(labels=labels, y_hat=estimates, v=variances, source_form=form)


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the CLI commands."""

    r: int = 2000
    b: int = 5000
    seed: int = 0
    threshold: float = 0.001

    def __post_init__(self):
        if self.r < 2:
            raise DomainError("grid size r must be >= 2")
        if self.b < 1:
            raise DomainError("draw count b must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.threshold <= 1.0:
            raise DomainError(f"threshold must be a probability in [0, 1], got {self.threshold}")


@dataclass(frozen=True)
class DpmConfig:
    """Settings for the DPM baseline, each checked when the config is built.

    The hyperpriors cannot be set: ``baselines._dpm_hyperpriors`` derives
    eta_b, s_b, phi1 and phi2 from the data.  ``iterations``, ``burn_in``,
    ``thin`` and ``seed`` are read by the Gibbs chain alone.
    ``fixed_eta``/``fixed_tau2`` freeze the base-distribution parameters
    instead of sampling them, which the exact-enumeration oracle requires.
    """

    m: float = 3.0
    iterations: int = 12000
    burn_in: int = 2000
    thin: int = 1
    seed: int = 0
    fixed_eta: float | None = None
    fixed_tau2: float | None = None

    def __post_init__(self):
        if self.burn_in < 0:
            raise DomainError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.iterations <= self.burn_in:
            raise DomainError("iterations must exceed burn_in")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if self.iterations - self.burn_in <= self.thin:   # one draw has no sample SD
            raise DomainError("the chain keeps 1 draw after burn_in and thin; it needs at least 2")
        if self.m <= 0:
            raise DomainError("concentration m must be > 0")
        if not math.isfinite(self.m):
            raise DomainError(f"hyperprior input m={self.m} is not usable")
        if self.fixed_eta is not None and not math.isfinite(self.fixed_eta):
            raise DomainError(f"fixed_eta must be finite, got {self.fixed_eta}")
        if self.fixed_tau2 is not None and not (math.isfinite(self.fixed_tau2)
                                                and self.fixed_tau2 > 0):
            raise DomainError(f"fixed_tau2 must be finite and > 0, got {self.fixed_tau2}")


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


#: Keys of a report's per-source row, in the order its tables print them.
_ROW_KEYS = ("label", "observed", "post_mean", "observed_se", "post_sd", "ci_lower", "ci_upper")


def survey_rows(*columns) -> list[dict]:
    """One report row per source from per-source columns given in ``_ROW_KEYS`` order."""
    return [dict(zip(_ROW_KEYS, row, strict=True)) for row in zip(*columns, strict=True)]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _markdown_survey_table(rows) -> list[str]:
    out = ["| Survey | ObsProp | PostMean | ObsSE | PostSD | 95% Cred Int |",
           "|---|---|---|---|---|---|"]
    for row in rows:
        label, *values = (row[k] for k in _ROW_KEYS)
        obs, mean, se, sd, lo, hi = map(_fmt, values)
        out.append(f"| {label} | {obs} | {mean} | {se} | {sd} | ({lo}, {hi}) |")
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
        if dpm.get("method"):
            out += ["", f"method: {dpm['method']}"]
    out.append("")
    return "\n".join(out)


def render_csv(doc: ReportDocument) -> str:
    """Machine-readable tables; sections separated by a blank line."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    summary = doc.results.get("summary") or doc.results.get("dpm") or {}
    if summary:
        w.writerow(["survey", *_ROW_KEYS[1:]])
        for row in summary["rows"]:
            label, *values = (row[k] for k in _ROW_KEYS)
            w.writerow([label, *map(repr, values)])
    pa = summary.get("pool_all") or doc.results.get("pool_all")
    if pa:
        w.writerow(["pool-all", "", repr(pa["mean"]), "", repr(pa["sd"]),
                    repr(pa["ci_lower"]), repr(pa["ci_upper"])])
    probs = summary.get("partition_probs")
    if probs:
        w.writerow([])
        w.writerow(["partition", "label", "prob"])
        for pm in probs:
            w.writerow([pm["partition"], pm.get("label") or "", repr(pm["prob"])])
    return buf.getvalue()


def render_report(doc: ReportDocument, fmt: str) -> str:
    if fmt == "json":
        return doc.to_json()
    if fmt == "csv":
        return render_csv(doc)
    if fmt == "md":
        return render_markdown(doc)
    raise DomainError(f"unknown output format {fmt!r}")

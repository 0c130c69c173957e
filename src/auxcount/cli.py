"""Command line front end.

Seven subcommands cover the workflow: generate a synthetic frame, score
it (metrics), draw a sample, estimate from an annotated sample, run
replicated experiments (simulate), combine stratum estimates into an F1
(f1), and merge estimate records into a table (report).

Settings resolve as defaults < config file < command-line flags.  Config
files are flat ``key = value`` UTF-8 text.  A setting that only some forms of a
command read (a stratified draw's tau, say) is refused in the others.
Every artifact starts with an audit header recording the command and the
settings the run read; rerunning a stochastic command from that header
reproduces the artifact byte for byte.  An artifact replaces its path
only once it is complete, so a failed run leaves the path as it was.
Exit codes: 0 success, 2 configuration or schema problems, 3 numerical
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from os.path import normpath

import numpy as np

from . import classifier_sim, designs, estimators, f1_estimation, montecarlo
from .errors import (
    AllocationError,
    CalibrationError,
    ConfigError,
    IngestionError,
    UndefinedMetricError,
    VarianceUndefinedError,
)
from .population import (
    STRATUM_ONE, STRATUM_ZERO, Frame, _check_tau, _float_or_none, _require_labels,
    float_texts, load_frame, read_header_fields, read_table, reading, replacing, write_frame,
    write_frame_rows, write_table,
)

# the default of a spec row whose setting every run must give
REQUIRED = ...


def _is_result_key(key: str) -> bool:
    """Output paths stay out of audit headers: they steer where an artifact lands."""
    return not key.startswith("out_")


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, list: _parse_list}


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    try:
        with reading(path, ConfigError) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, raw = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                if key.strip() in values:
                    raise ConfigError(f"{path}:{line_no}: {key.strip()} given twice")
                values[key.strip()] = raw.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return values


def _resolve(args, spec: dict) -> dict:
    """Merge defaults, config file and flags for one command, refusing a
    REQUIRED setting left out and a value outside its spec row's choices."""
    resolved = {key: default for key, (_, default, *_) in spec.items()}
    if args.config:
        file_values = read_config_file(args.config)
        unknown = set(file_values) - set(spec)
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown keys for '{args.command}': {sorted(unknown)}"
            )
        for key, raw in file_values.items():
            typ = spec[key][0]
            try:
                resolved[key] = _PARSERS[typ](raw)
            except ValueError as exc:
                raise ConfigError(f"{args.config}: key {key}: {exc}") from None
    for key in spec:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    _require(resolved, *(key for key, value in resolved.items() if value is REQUIRED))
    for key, (_, _, *choices) in spec.items():
        if choices and resolved[key] not in (None, *choices[0]):
            raise ConfigError(f"unknown {key} {resolved[key]!r}; choose from {choices[0]}")
    return resolved


def _require(resolved: dict, *keys: str):
    missing = [k for k in keys if resolved[k] in (None, REQUIRED)]
    if missing:
        raise ConfigError(f"missing required settings: {missing}")


def _read_by(resolved: dict, form: str, reads: bool, **defaults):
    """Settings that only some forms of a command read: where this run's form
    ``reads`` them, fill in each one not given with its default (REQUIRED
    refuses it missing); where it does not, refuse any given."""
    given = [key for key in defaults if resolved[key] is not None]
    if given and not reads:
        raise ConfigError(f"{form} does not read {given}")
    resolved.update({key: d for key, d in defaults.items() if reads and key not in given})
    _require(resolved, *(key for key in defaults if resolved[key] is REQUIRED))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _audit(command: str, resolved: dict) -> dict:
    audit = {"command": command}
    for key in sorted(resolved):
        if _is_result_key(key) and resolved[key] is not None:
            audit[key] = resolved[key]
    return audit


def _audit_lines(audit: dict) -> list[str]:
    return [f"{key} = {_fmt(value)}" for key, value in audit.items()]


def audit_to_config_lines(audit: dict) -> list[str]:
    """Config-file lines that rerun the audited command.

    Only keys the audited command accepts are kept; artifact files may
    carry extra schema lines (a sample's parent_N, say) next to the
    audit proper.
    """
    spec = _COMMANDS[audit["command"]][1]
    return _audit_lines({k: v for k, v in audit.items() if k in spec and _is_result_key(k)})


def read_audit(path) -> dict:
    """Audit header of an artifact (JSON or # commented CSV)."""
    if str(path).endswith(".json"):
        with reading(path) as fh:
            return json.load(fh)["audit"]
    return read_header_fields(path)


def _out_path(args, name: str) -> str:
    return f"{args.out or '.'}/{name}"


def _write_json(path, audit: dict, payload: dict):
    text = json.dumps({"audit": audit, **payload}, indent=2, sort_keys=True, allow_nan=False)
    with replacing(path) as fh:
        fh.write(text + "\n")


def _write_record_csv(path, audit: dict, records: list[dict]):
    rows = ([_fmt(record.get(f)) for f in estimators.RECORD_FIELDS] for record in records)
    write_table(path, _audit_lines(audit), estimators.RECORD_FIELDS, rows)


def _estimate(sample, name: str):
    """The estimate of the pairing table's ``name`` from sample, by its public
    function looked up on the estimators module, where a wrapper may replace it."""
    return getattr(estimators, estimators.PAIRINGS[name].function)(sample)


# a sample file's own facts, which differ between the strata of one run
_STRATUM_FACTS = ("sample_design", "parent_N", "parent_aux_total", "stratum")


def _stratum_estimates(resolved: dict, names) -> list:
    """(stratum, estimate) from the sample_one and sample_zero files, by the
    estimators ``names``; a file that does not name its stratum is refused,
    and so is a pair whose audit lines show two different sample runs (a
    key both files carry with two values)."""
    samples, audits = [], []
    for stratum in (STRATUM_ONE, STRATUM_ZERO):
        path = resolved[f"sample_{stratum}"]
        sample = designs.load_sample(path)
        if sample.stratum != stratum:
            found = "no stratum" if sample.stratum is None else f"stratum {sample.stratum!r}"
            raise ConfigError(f"{path}: a sample of {found}, given as {stratum!r}")
        samples.append(sample)
        audits.append({k: v for k, v in read_audit(path).items() if k not in _STRATUM_FACTS})
    # a frame path compares in normal form: ./frame.csv and frame.csv name one file
    one, zero = ({k: normpath(v) if k == "frame" else v for k, v in a.items()} for a in audits)
    key = next((k for k in one if k in zero and one[k] != zero[k]), None)
    if key is not None:
        raise ConfigError(
            f"{resolved['sample_one']} and {resolved['sample_zero']} come from two sample runs: "
            f"{key} {one[key]!r} against {zero[key]!r}"
        )
    return [(s.stratum, _estimate(s, name)) for s, name in zip(samples, names)]


# ---------------------------------------------------------------------------
# command implementations

GENERATE_SPEC = {
    "N": (int, REQUIRED),
    "positives": (int, REQUIRED),
    "a1": (float, None),
    "b1": (float, None),
    "a0": (float, None),
    "b0": (float, None),
    "target_loss": (float, None),
    "target_f1": (float, None),
    "tau": (float, None),
    "seed": (int, REQUIRED),
    "out_frame": (str, "frame.csv"),
}
# units a range of generate's scores holds: the rows written while the next is scored
_GENERATE_ROWS = 1 << 16


def cmd_generate(args, resolved: dict) -> int:
    N, positives = resolved["N"], resolved["positives"]
    if N < 1:
        raise ConfigError("N must be at least 1")
    if not 0 <= positives <= N:
        raise ConfigError(f"positives={positives} must lie in [0, N={N}]")
    shapes = [resolved[k] for k in ("a1", "b1", "a0", "b0")]
    calibrated = None in shapes
    _read_by(resolved, "generate with a1,b1,a0,b0", calibrated, target_loss=None, target_f1=None)
    targets = [k for k in ("target_loss", "target_f1") if resolved[k] is not None]
    if calibrated and (shapes != [None] * 4 or len(targets) != 1):
        raise ConfigError("give all of a1,b1,a0,b0, or none and one of target_loss/target_f1")
    _read_by(resolved, "generate without target_f1", targets == ["target_f1"],
             tau=classifier_sim.DEFAULT_THRESHOLD)
    labels = np.zeros(N)
    labels[:positives] = 1.0
    path = _out_path(args, resolved["out_frame"])
    if not calibrated:
        profile = classifier_sim.QualityProfile(
            shape_pos=(shapes[0], shapes[1]), shape_neg=(shapes[2], shapes[3])
        )
        # the rows of simulate_predictions' frame, each range written as soon
        # as it is scored, while later ranges are scored on other threads
        scores, ranges = classifier_sim._scoring(labels, profile, resolved["seed"], _GENERATE_ROWS)

        def columns(part):  # ids u0..u{N-1} need no quotes
            return ["u" + str(i) for i in range(part.start, part.stop)], labels[part], scores[part]

        with contextlib.closing(ranges):
            write_frame_rows(path, _audit_lines(_audit("generate", resolved)), ranges, columns)
        return 0
    # u0..u{N-1} are unique and unpadded: only the other columns need checks
    ids = np.array([f"u{i}" for i in range(N)], dtype=object)
    base = Frame.__new__(Frame)._set(ids, np.full(N, 0.5), labels)
    kwargs = {k: resolved[k] for k in (*targets, "tau") if resolved[k] is not None}
    cal = classifier_sim.calibrate_profile(base, seed=resolved["seed"], **kwargs)
    (resolved["a1"], resolved["b1"]) = cal.profile.shape_pos
    (resolved["a0"], resolved["b0"]) = cal.profile.shape_neg
    resolved.update(target_loss=None, target_f1=None, tau=None)  # a rerun reads the shapes
    # simulate_predictions of the shapes found, which the audit holds
    write_frame(cal.frame, path, _audit_lines(_audit("generate", resolved)))
    return 0


METRICS_SPEC = {
    "frame": (str, REQUIRED),
    "tau": (float, classifier_sim.DEFAULT_THRESHOLD),
    "out_metrics": (str, "metrics.json"),
}


def cmd_metrics(args, resolved: dict) -> int:
    _check_tau(resolved["tau"])  # before the frame is read
    frame = load_frame(resolved["frame"])
    _require_labels(frame, "metrics")
    counts = classifier_sim.confusion_counts(frame, resolved["tau"])
    loss = classifier_sim.population_loss(frame)
    payload = {
        "N": frame.N,
        "true_total": frame.true_total,
        "aux_total": frame.aux_total,
        "loss_total": loss,
        "loss_per_unit": loss / frame.N,
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "tn": counts.tn,
        "f1": classifier_sim.f1_from_counts(counts),
    }
    _write_json(
        _out_path(args, resolved["out_metrics"]), _audit("metrics", resolved), payload
    )
    return 0


SAMPLE_SPEC = {
    "frame": (str, REQUIRED),
    "design": (str, REQUIRED, montecarlo.DESIGN_CHOICES),
    "n": (int, REQUIRED),
    "tau": (float, None),
    "allocation": (str, None, designs.ALLOCATION_RULES),
    "seed": (int, REQUIRED),
    "out_sample": (str, "sample.csv"),
}


def _check_allocation(resolved: dict):
    """A stratified draw needs an allocation rule and reads tau; no other draw reads either."""
    _read_by(resolved, f"design {resolved['design']!r}", resolved["design"] == "stratified",
             tau=classifier_sim.DEFAULT_THRESHOLD, allocation=REQUIRED)
    if resolved["tau"] is not None:
        _check_tau(resolved["tau"])


def cmd_sample(args, resolved: dict) -> int:
    _check_allocation(resolved)
    if resolved["n"] < 1:  # too few for any frame
        raise ConfigError(f"need n >= 1 draws, got n={resolved['n']}")
    rng = np.random.default_rng(resolved["seed"])  # which refuses a negative seed
    frame = load_frame(resolved["frame"])
    lines = _audit_lines(_audit("sample", resolved))
    plan = designs.sampling_plan(frame, resolved["n"], resolved["tau"], resolved["allocation"])
    draw = designs.pps_wr if resolved["design"] == "pps" else designs.srs_wor
    stem = resolved["out_sample"].removesuffix(".csv")
    for h, rows, n_h in plan:  # a stratified sample writes one file per stratum
        name = resolved["out_sample"] if h is None else f"{stem}_{h}.csv"
        designs.write_sample(draw(frame, n_h, rng, stratum=(h, rows)), _out_path(args, name), lines)
    return 0


# each two-stratum pairing, by the estimator of its zero stratum
_BY_ZERO = {names[1]: names for names in estimators.STRATIFIED.values()}

ESTIMATE_SPEC = {
    "sample": (str, None),
    "sample_one": (str, None),
    "sample_zero": (str, None),
    "estimator": (str, None, tuple(estimators.PAIRINGS)),
    "zero_estimator": (str, None, tuple(_BY_ZERO)),
    "z": (float, estimators.DEFAULT_Z),
    "baseline_se": (float, None),
    "out_record": (str, "record.csv"),
}

def cmd_estimate(args, resolved: dict) -> int:
    estimators._check_z(resolved["z"])  # before any sample is read
    estimators._check_baseline_se(resolved["baseline_se"])
    stratified = resolved["sample_one"] is not None or resolved["sample_zero"] is not None
    _read_by(resolved, "an estimate from sample_one/sample_zero", not stratified,
             sample=REQUIRED, estimator=REQUIRED)
    _read_by(resolved, "an estimate from one sample", stratified,
             sample_one=REQUIRED, sample_zero=REQUIRED, zero_estimator="srs")
    if stratified:
        names = _BY_ZERO[resolved["zero_estimator"]]
        estimate = estimators.stratified_estimate(_stratum_estimates(resolved, names))
    else:
        estimate = _estimate(designs.load_sample(resolved["sample"]), resolved["estimator"])
    record = estimators.estimate_record(estimate, resolved["z"], resolved["baseline_se"])
    _write_record_csv(
        _out_path(args, resolved["out_record"]), _audit("estimate", resolved), [record]
    )
    return 0


SIMULATE_SPEC = {
    "frame": (str, REQUIRED),
    "design": (str, REQUIRED, montecarlo.DESIGN_CHOICES),
    "estimator": (str, REQUIRED, montecarlo.ESTIMATOR_CHOICES),
    "n": (int, REQUIRED),
    "R": (int, REQUIRED),
    "tau": (float, None),
    "allocation": (str, None, designs.ALLOCATION_RULES),
    "seed": (int, REQUIRED),
    "baseline_se": (float, None),
    "out_report": (str, "report.json"),
    "out_replicates": (str, "replicates.csv"),
    "out_histogram": (str, "histogram.csv"),
}


def cmd_simulate(args, resolved: dict) -> int:
    _check_allocation(resolved)
    settings = dict(
        design=resolved["design"],
        estimator=resolved["estimator"],
        n=resolved["n"],
        R=resolved["R"],
        seed=resolved["seed"],
        tau=resolved["tau"],
        allocation=resolved["allocation"],
        srs_baseline_se=resolved["baseline_se"],
    )
    montecarlo.check_run_settings(**settings)  # every refusal that needs no frame
    frame = load_frame(resolved["frame"])
    report = montecarlo.run_replications(frame, **settings)
    audit = _audit("simulate", resolved)
    _write_json(_out_path(args, resolved["out_report"]), audit, report.summary_dict())

    lines = _audit_lines(audit)
    columns = {
        "replicate": map(str, range(report.R)),
        "estimate": float_texts(report.estimates),
        "estimated_variance": float_texts(report.estimated_variances),
    }
    if report.zero_stratum_estimates is not None:
        columns["zero_stratum_estimate"] = float_texts(report.zero_stratum_estimates)
    write_table(
        _out_path(args, resolved["out_replicates"]), lines, list(columns), zip(*columns.values())
    )
    bins = ((repr(float(b.lo)), repr(float(b.hi)), str(int(b.count))) for b in report.bins)
    write_table(
        _out_path(args, resolved["out_histogram"]), lines, ("bin_lo", "bin_hi", "count"), bins
    )
    return 0


F1_SPEC = {
    "sample_one": (str, REQUIRED),
    "sample_zero": (str, REQUIRED),
    "flagged_tp": (int, REQUIRED),
    "flagged_fn": (int, REQUIRED),
    "c": (int, REQUIRED),
    "out_f1": (str, "f1.json"),
}


def cmd_f1(args, resolved: dict) -> int:
    flagged = classifier_sim.ConfusionCounts(  # refuses a negative count before any read
        tp=resolved["flagged_tp"], fp=0, fn=resolved["flagged_fn"], tn=0
    )
    if resolved["c"] < flagged.tp:  # c counts every predicted positive, the flagged TP too
        raise ConfigError(f"c={resolved['c']} must be at least flagged_tp={flagged.tp}")
    (_, one), (_, zero) = _stratum_estimates(resolved, estimators.F1_STRATA)
    f1, se = f1_estimation.estimate_f1_two_stratum(one, zero, flagged, resolved["c"])
    payload = {
        "f1": f1,
        "se": se,
        "tp_hat": flagged.tp + one.total,
        "fn_hat": flagged.fn + zero.total,
        "var_tp": one.variance,
        "var_fn": zero.variance,
        "c": resolved["c"],
    }
    _write_json(_out_path(args, resolved["out_f1"]), _audit("f1", resolved), payload)
    return 0


REPORT_SPEC = {
    "inputs": (list, REQUIRED),
    "paper_mode": (bool, None),
    "out_table": (str, "table.txt"),
}


def _format_table(rows: list[dict], paper_mode: bool) -> str:
    header = ["estimator", "total", "se", "ci_lo", "ci_hi", "deff"]

    def show(field, value):
        if value in (None, ""):
            return ""
        if field == "estimator":
            return str(value)
        value = float(value)
        if field == "deff":
            return f"{value:.4f}"
        if paper_mode:
            return str(round(value))
        return f"{value:.6g}"

    table = [header] + [[show(f, row.get(f)) for f in header] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    out = []
    for line in table:
        cells = [line[0].ljust(widths[0])] + [
            line[i].rjust(widths[i]) for i in range(1, len(header))
        ]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out) + "\n"


def cmd_report(args, resolved: dict) -> int:
    rows = [row for path in resolved["inputs"] for row in _read_record_rows(path)]
    if not rows:
        raise ConfigError("no estimate records found in the inputs")
    text = _format_table(rows, bool(resolved["paper_mode"]))
    with replacing(_out_path(args, resolved["out_table"])) as fh:
        fh.writelines(f"# {line}\n" for line in _audit_lines(_audit("report", resolved)))
        fh.write(text)
    sys.stdout.write(text)
    return 0


_PPS_LABELS = {p.label for p in estimators.PAIRINGS.values() if p.design == designs.DESIGN_PPS}
_RECORD_LABELS = {p.label for p in estimators.PAIRINGS.values()} | {estimators.ESTIMATOR_STRAT}
_UNSIGNED = ("se", "z", "deff")  # deff is a squared SE ratio


def _read_record_rows(path) -> list[dict]:
    _, header, fields, ragged = read_table(path)
    width = len(estimators.RECORD_FIELDS)
    if header != list(estimators.RECORD_FIELDS):
        raise ConfigError(f"{path}: row 1: expected columns {','.join(estimators.RECORD_FIELDS)}")
    records = [dict(zip(header, fields[i : i + width])) for i in range(0, len(fields), width)]
    for row, record in enumerate(records, start=2):  # the header is row 1
        if record["estimator"] not in _RECORD_LABELS:
            raise ConfigError(f"{path}: row {row}: unknown estimator {record['estimator']!r}")
        values = {}
        for key in ("total", "se", "z", "ci_lo", "ci_hi", "deff"):
            text = record[key]  # only deff may be blank: no baseline SE was given
            value = values[key] = _float_or_none(text) if text or key != "deff" else 0.0
            # a sign bit refuses -0.0 too, which the table would print as -0
            if value is None or np.isnan(value) or (key in _UNSIGNED and np.signbit(value)):
                kind = "a nonnegative number" if key in _UNSIGNED else "a number"
                raise ConfigError(f"{path}: row {row}: {key} {text!r} is not {kind}")
            if np.isinf(value) and key != "deff":  # a tiny baseline SE overflows deff
                raise ConfigError(f"{path}: row {row}: {key} {text!r} is not finite")
        for key in ("n", "N"):
            text = record[key]
            if not (text.strip().isdecimal() and int(text) > 0):
                raise ConfigError(f"{path}: row {row}: {key} {text!r} is not a positive integer")
        n, N = (int(record[key]) for key in ("n", "N"))
        # PPS draws, with replacement, may outnumber the units they are drawn from
        if n > N and record["estimator"] not in _PPS_LABELS:
            raise ConfigError(f"{path}: row {row}: n {n} exceeds N {N}")
        # as confidence_interval computes them, bit for bit: by repr, as -0.0 == 0.0
        total, margin = values["total"], values["z"] * values["se"]
        for key, want in (("ci_lo", total - margin), ("ci_hi", total + margin)):
            if repr(values[key]) != repr(want):
                raise ConfigError(f"{path}: row {row}: {key} {record[key]!r}, expected {want!r}")
    if ragged is not None:  # named only once the rows above it pass
        raise ConfigError(f"{path}: row {ragged + 2}: expected {width} fields")
    return records


# ---------------------------------------------------------------------------

_COMMANDS = {
    "generate": (
        cmd_generate, GENERATE_SPEC, "write a synthetic labeled frame with simulated scores"
    ),
    "metrics": (
        cmd_metrics, METRICS_SPEC, "population loss, confusion counts and F1 of a labeled frame"
    ),
    "sample": (cmd_sample, SAMPLE_SPEC, "draw a sample (pps, srs, or stratified) from a frame"),
    "estimate": (cmd_estimate, ESTIMATE_SPEC, "turn an annotated sample into an estimate record"),
    "simulate": (cmd_simulate, SIMULATE_SPEC, "replicated sampling experiment on a labeled frame"),
    "f1": (cmd_f1, F1_SPEC, "delta-method F1 from two stratum samples plus audited counts"),
    "report": (cmd_report, REPORT_SPEC, "merge estimate records into an aligned table"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auxcount",
        description="Design-based estimation of rare totals with classifier scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, spec, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--out", help="output directory (default: current)")
        for key, (typ, *_) in spec.items():
            flag = "--" + key.replace("_", "-")
            if typ is list:
                p.add_argument(flag, dest=key, nargs="+")
            elif typ is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=key, type=typ)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, spec, _ = _COMMANDS[args.command]
    try:
        return command(args, _resolve(args, spec))
    except (VarianceUndefinedError, UndefinedMetricError, CalibrationError) as exc:
        print(f"auxcount: error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, IngestionError, AllocationError, ValueError, OSError) as exc:
        print(f"auxcount: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

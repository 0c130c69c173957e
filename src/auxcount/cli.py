"""Command line front end.

Seven subcommands cover the workflow: generate a synthetic frame, score
it (metrics), draw a sample, estimate from an annotated sample, run
replicated experiments (simulate), combine stratum estimates into an F1
(f1), and merge estimate records into a table (report).

Settings resolve as defaults < config file < command-line flags.  Config
files are flat ``key = value`` text.  Every artifact starts with an
audit header recording the command, seed and all result-affecting
settings; rerunning a stochastic command from that header reproduces
the artifact byte for byte.  Exit codes: 0 success, 2 configuration or
schema problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
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
    STRATUM_ONE, STRATUM_ZERO, Frame, _float_or_none, float_texts, load_frame,
    read_header_fields, read_table, write_frame, write_table,
)

PAPER_Z = 2.0

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
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, raw = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
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
        with open(path) as fh:
            return json.load(fh)["audit"]
    return read_header_fields(path)


def _out_path(args, name: str) -> str:
    out = args.out or "."
    return f"{out}/{name}"


def _write_json(path, audit: dict, payload: dict):
    text = json.dumps({"audit": audit, **payload}, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
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
    "tau": (float, classifier_sim.DEFAULT_THRESHOLD),
    "seed": (int, REQUIRED),
    "out_frame": (str, "frame.csv"),
}


def cmd_generate(args, resolved: dict) -> int:
    N, positives = resolved["N"], resolved["positives"]
    if N < 1:
        raise ConfigError("N must be at least 1")
    if not 0 <= positives <= N:
        raise ConfigError(f"positives={positives} must lie in [0, N={N}]")
    shapes = [resolved[k] for k in ("a1", "b1", "a0", "b0")]
    targets = [k for k in ("target_loss", "target_f1") if resolved[k] is not None]
    if None in shapes and (shapes != [None] * 4 or len(targets) != 1):
        raise ConfigError("give all of a1,b1,a0,b0, or none and one of target_loss/target_f1")
    labels = np.zeros(N)
    labels[:positives] = 1.0
    # u0..u{N-1} are unique and unpadded: only the other columns need checks
    ids = np.array([f"u{i}" for i in range(N)], dtype=object)
    base = Frame.__new__(Frame)._set(ids, np.full(N, 0.5), labels, None)
    if None not in shapes:
        profile = classifier_sim.QualityProfile(
            shape_pos=(shapes[0], shapes[1]), shape_neg=(shapes[2], shapes[3])
        )
        frame = classifier_sim.simulate_predictions(base, profile, resolved["seed"])
    else:
        kwargs = {targets[0]: resolved[targets[0]]}
        cal = classifier_sim.calibrate_profile(
            base, tau=resolved["tau"], seed=resolved["seed"], **kwargs
        )
        frame = cal.frame
        (resolved["a1"], resolved["b1"]) = cal.profile.shape_pos
        (resolved["a0"], resolved["b0"]) = cal.profile.shape_neg
    audit = _audit("generate", resolved)
    write_frame(frame, _out_path(args, resolved["out_frame"]), _audit_lines(audit))
    return 0


METRICS_SPEC = {
    "frame": (str, REQUIRED),
    "tau": (float, classifier_sim.DEFAULT_THRESHOLD),
    "out_metrics": (str, "metrics.json"),
}


def cmd_metrics(args, resolved: dict) -> int:
    frame = load_frame(resolved["frame"])
    if not frame.fully_labeled:
        raise ConfigError("metrics needs a fully labeled frame")
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
    "tau": (float, classifier_sim.DEFAULT_THRESHOLD),
    "allocation": (str, None, designs.ALLOCATION_RULES),
    "seed": (int, REQUIRED),
    "out_sample": (str, "sample.csv"),
}


def _check_allocation(resolved: dict):
    """Refuse, before the frame is read, a stratified draw with no allocation
    rule and any other draw with one."""
    if (resolved["design"] == "stratified") != (resolved["allocation"] is not None):
        raise ConfigError("stratified sampling needs an allocation rule, and only it takes one")


def cmd_sample(args, resolved: dict) -> int:
    _check_allocation(resolved)
    design = resolved["design"]
    frame = load_frame(resolved["frame"])
    lines = _audit_lines(_audit("sample", resolved))
    plan = designs.sampling_plan(frame, resolved["n"], resolved["tau"], resolved["allocation"])
    draw = designs.pps_wr if design == "pps" else designs.srs_wor
    rng = np.random.default_rng(resolved["seed"])
    stem = resolved["out_sample"].removesuffix(".csv")
    for sub, n_h in plan:  # a stratified sample writes one file per stratum
        name = f"{stem}_{sub.stratum}.csv" if design == "stratified" else resolved["out_sample"]
        designs.write_sample(draw(sub, n_h, rng), _out_path(args, name), lines)
    return 0


# each two-stratum pairing, by the estimator of its zero stratum
_BY_ZERO = {names[1]: names for names in estimators.STRATIFIED.values()}

ESTIMATE_SPEC = {
    "sample": (str, None),
    "sample_one": (str, None),
    "sample_zero": (str, None),
    "estimator": (str, None, tuple(estimators.PAIRINGS)),
    "zero_estimator": (str, "srs", tuple(_BY_ZERO)),
    "z": (float, None),
    "paper_mode": (bool, None),
    "baseline_se": (float, None),
    "out_record": (str, "record.csv"),
}

def cmd_estimate(args, resolved: dict) -> int:
    stratified = resolved["sample_one"] is not None or resolved["sample_zero"] is not None
    if stratified and resolved["sample"] is not None:
        raise ConfigError("give either sample or sample_one/sample_zero, not both")
    z = resolved["z"]
    if z is None:
        z = PAPER_Z if resolved["paper_mode"] else estimators.DEFAULT_Z
    if stratified:
        _require(resolved, "sample_one", "sample_zero")
        if resolved["estimator"] is not None:
            raise ConfigError("stratified estimates take zero_estimator, not estimator")
        names = _BY_ZERO[resolved["zero_estimator"]]
        estimate = estimators.stratified_estimate(_stratum_estimates(resolved, names))
    else:
        _require(resolved, "sample", "estimator")
        if resolved["zero_estimator"] != ESTIMATE_SPEC["zero_estimator"][1]:
            raise ConfigError("zero_estimator applies only to sample_one/sample_zero estimates")
        estimate = _estimate(designs.load_sample(resolved["sample"]), resolved["estimator"])
    record = estimators.estimate_record(estimate, z=z, baseline_se=resolved["baseline_se"])
    resolved["z"] = z
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
    "tau": (float, classifier_sim.DEFAULT_THRESHOLD),
    "allocation": (str, None, designs.ALLOCATION_RULES),
    "seed": (int, REQUIRED),
    "baseline_se": (float, None),
    "out_report": (str, "report.json"),
    "out_replicates": (str, "replicates.csv"),
    "out_histogram": (str, "histogram.csv"),
}


def cmd_simulate(args, resolved: dict) -> int:
    _check_allocation(resolved)
    frame = load_frame(resolved["frame"])
    report = montecarlo.run_replications(
        frame,
        design=resolved["design"],
        estimator=resolved["estimator"],
        n=resolved["n"],
        R=resolved["R"],
        seed=resolved["seed"],
        tau=resolved["tau"] if resolved["design"] == "stratified" else None,
        allocation=resolved["allocation"],
        srs_baseline_se=resolved["baseline_se"],
    )
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
    (_, one), (_, zero) = _stratum_estimates(resolved, estimators.F1_STRATA)
    flagged = classifier_sim.ConfusionCounts(
        tp=resolved["flagged_tp"], fp=0, fn=resolved["flagged_fn"], tn=0
    )
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
    rows = []
    for path in resolved["inputs"]:
        rows.extend(_read_record_rows(path))
    if not rows:
        raise ConfigError("no estimate records found in the inputs")
    text = _format_table(rows, bool(resolved["paper_mode"]))
    with open(_out_path(args, resolved["out_table"]), "w") as fh:
        for line in _audit_lines(_audit("report", resolved)):
            fh.write(f"# {line}\n")
        fh.write(text)
    sys.stdout.write(text)
    return 0


_PPS_LABELS = {p.label for p in estimators.PAIRINGS.values() if p.design == designs.DESIGN_PPS}
_RECORD_LABELS = {p.label for p in estimators.PAIRINGS.values()} | {estimators.ESTIMATOR_STRAT}


def _read_record_rows(path) -> list[dict]:
    try:
        _, header, fields, ragged = read_table(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    width = len(estimators.RECORD_FIELDS)
    if header != list(estimators.RECORD_FIELDS):
        raise ConfigError(f"{path}: row 1: expected columns {','.join(estimators.RECORD_FIELDS)}")
    if ragged is not None:
        raise ConfigError(f"{path}: row {ragged + 2}: expected {width} fields")
    records = [dict(zip(header, fields[i : i + width])) for i in range(0, len(fields), width)]
    for row, record in enumerate(records, start=2):  # the header is row 1
        if record["estimator"] not in _RECORD_LABELS:
            raise ConfigError(f"{path}: row {row}: unknown estimator {record['estimator']!r}")
        values = {}
        for key in ("total", "se", "z", "ci_lo", "ci_hi", "deff"):
            text = record[key]  # only deff may be blank: no baseline SE was given
            value = values[key] = _float_or_none(text) if text or key != "deff" else 0.0
            # a sign bit refuses -0.0 too, which the table would print as -0
            if value is None or np.isnan(value) or (key in ("se", "z") and np.signbit(value)):
                kind = "a nonnegative number" if key in ("se", "z") else "a number"
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

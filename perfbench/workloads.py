"""The benchmark's four workloads: inputs, one timed pass, output checks.

``setup`` imports auxcount and builds everything a pass reuses; it is
what ``setup_s`` times.  ``run_pass`` is the timed part and returns one
Op per operation, an operation being one CLI command or one
``run_replications`` call; it calls ``gap`` between operations, where
the runner probes the host's speed outside the timed stretches.
``check`` runs after the timer stops: it marks an op failed when the
output differs from the first pass of the run (every pass repeats the
same seeds) or fails a correctness check.
Checks run once per distinct output, since equal bytes give equal
verdicts.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import math
import os
import statistics
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    register_N: int
    register_positives: int
    readme_N: int
    readme_positives: int
    readme_R: int
    mc_units: tuple  # (positives, hard positives, negatives)
    mc_n: int
    pps_R: int
    strat_R: int


# register_N is N_2022 in tests/conftest.py, at about 0.4% positives;
# the readme and Monte Carlo sizes are the README walkthrough and the
# acceptance-criteria runs.  mc-strat runs R = 2,500 per pairing, so that
# a 15 s run holds three passes (about 4.5 s each) and reports their
# median; at R = 10,000 a run held one ~18 s pass, whose time spread 0.21
# of the median across runs on a shared 2-vCPU host.
FULL = Sizes(1_463_762, 5_855, 50_000, 250, 2_000, (944, 100, 190_000), 500, 10_000, 2_500)
SMOKE = Sizes(5_000, 20, 5_000, 25, 40, (25, 3, 4_972), 100, 40, 40)

# Monte Carlo tolerances are set at R = 10,000 and widen as 1/sqrt(R)
# below it, so smaller runs allow the same number of standard errors.
CHECK_R = 10_000

# The README's documented results at its seeds 11-14 (full size only).
README_HH_ROW = ["HH", "206.162", "40.5962", "126.594", "285.731"]
README_SRS_SE = "202.4"
README_PPS_SE = "44.5"
README_DEFF = "0.048"


@dataclass
class Op:
    name: str
    output: object = None
    error: str = ""


def _artifact(path):
    """Header fields and data rows of a CSV artifact."""
    fields, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    fields[key.strip()] = value.strip()
            else:
                body.append(line)
    return fields, list(csv.DictReader(body))


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(b))


def _check_record(path, total, se):
    """The record at ``path`` against an independently computed total and SE."""
    rec = {k: float(v) for k, v in _artifact(path)[1][0].items() if k not in ("estimator", "deff") and v}
    if not (_close(rec["total"], total) and _close(rec["se"], se)):
        return f"{path}: total/se {rec['total']}/{rec['se']}, expected {total}/{se}"
    if not rec["ci_lo"] < rec["total"] < rec["ci_hi"]:
        return f"{path}: interval does not bracket the total"
    return ""


def _hh_from_sample(path):
    x = [float(r["y"]) / float(r["pi"]) for r in _artifact(path)[1]]
    return statistics.fmean(x), math.sqrt(statistics.variance(x) / len(x))


def _srs_from_sample(path, diff):
    """Expansion (or difference) total and variance of one stratum sample."""
    fields, rows = _artifact(path)
    N, n = int(fields["parent_N"]), len(rows)
    d = [float(r["y"]) - (float(r["p_hat"]) if diff else 0.0) for r in rows]
    base = float(fields["parent_aux_total"]) if diff else 0.0
    return base + N * statistics.fmean(d), N * N * (1 - n / N) * statistics.variance(d) / n


def _judge(first, op, digest, verify):
    """Fail ``op`` if its output differs from the first pass's, or fails ``verify``.

    ``first`` maps op name to (digest, verdict) of the first pass, so each
    distinct output is verified once.
    """
    if op.name not in first:
        try:
            verdict = verify()
        except (OSError, LookupError, ValueError, ArithmeticError) as exc:  # malformed output
            verdict = f"{op.name}: check failed on {exc!r}"
        first[op.name] = (digest, verdict)
    seen_digest, verdict = first[op.name]
    op.error = verdict if digest == seen_digest else f"{op.name}: output differs from the first pass"


class CliWorkload:
    """A sequence of ``auxcount`` commands run through ``cli.main``."""

    def __init__(self, seed, sizes, workdir):
        self.seed, self.sizes, self.dir = seed, sizes, workdir
        self.smoke = sizes == SMOKE
        self.first: dict[str, tuple] = {}

    def setup(self):
        import auxcount.cli

        self.cli = auxcount.cli
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name):
        return f"{self.dir}/{name}"

    def run_pass(self, tracer, workers=1, gap=lambda: None):
        ops = []
        for name, argv, _, _ in self.steps():
            if ops:
                gap()
            op = Op(name)
            out, err = io.StringIO(), io.StringIO()
            with tracer.span("cli." + name.split("[")[0]):
                try:
                    with redirect_stdout(out), redirect_stderr(err):
                        rc = self.cli.main(argv() if callable(argv) else argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    rc = exc.code
                except Exception:  # count it and go on with the pass
                    rc = traceback.format_exc(limit=-2)
            op.output = out.getvalue()
            if rc != 0:
                op.error = f"{name}: exit {rc}: {err.getvalue().strip()}"
            ops.append(op)
        return ops

    def check(self, ops):
        steps = {name: (files, verify) for name, _, files, verify in self.steps()}
        for op in ops:
            if op.error:
                continue
            files, verify = steps[op.name]
            h = hashlib.sha256(op.output.encode())
            try:
                for f in files:
                    with open(self.path(f), "rb") as fh:
                        h.update(fh.read())
            except OSError as exc:
                op.error = f"{op.name}: {exc}"
                continue
            _judge(self.first, op, h.hexdigest(), lambda: verify(op))

    def artifact_bytes(self):
        return sum(os.path.getsize(self.path(f)) for _, _, files, _ in self.steps() for f in files)

    def _check_metrics(self, N, positives):
        with open(self.path("metrics.json")) as fh:
            m = json.load(fh)
        if (m["N"], m["true_total"]) != (N, positives):
            return f"metrics: N/true_total {m['N']}/{m['true_total']}, expected {N}/{positives}"
        if m["tp"] + m["fp"] + m["fn"] + m["tn"] != N:
            return "metrics: confusion counts do not sum to N"
        return ""

    def _check_draws(self, files, n):
        draws = sum(len(_artifact(self.path(f))[1]) for f in files)
        return "" if draws == n else f"{files}: {draws} draws, expected {n}"


class RegisterCli(CliWorkload):
    """cli-2022: the annotation workflow on a register-sized frame."""

    @property
    def frame_units(self):
        return self.sizes.register_N

    def steps(self):
        s, seed, p = self.sizes, self.seed, self.path
        frame, n = p("frame.csv"), "500"
        return [
            ("generate", ["generate", "--N", str(s.register_N), "--positives",
                          str(s.register_positives), "--a1", "4", "--b1", "1.5", "--a0",
                          "0.2", "--b0", "8", "--seed", str(seed), "--out", self.dir],
             ["frame.csv"], lambda op: ""),
            ("metrics", ["metrics", "--frame", frame, "--out", self.dir],
             ["metrics.json"], lambda op: self._check_metrics(s.register_N, s.register_positives)),
            ("sample[pps]", ["sample", "--frame", frame, "--design", "pps", "--n", n,
                             "--seed", str(seed + 1), "--out", self.dir],
             ["sample.csv"], lambda op: self._check_draws(["sample.csv"], 500)),
            ("sample[stratified]", ["sample", "--frame", frame, "--design", "stratified",
                                    "--allocation", "neyman_proxy", "--n", n,
                                    "--seed", str(seed + 2), "--out", self.dir],
             ["sample_one.csv", "sample_zero.csv"],
             lambda op: self._check_draws(["sample_one.csv", "sample_zero.csv"], 500)),
            ("estimate[hh]", ["estimate", "--sample", p("sample.csv"), "--estimator", "hh",
                              "--out", self.dir, "--out-record", "record_hh.csv"],
             ["record_hh.csv"],
             lambda op: _check_record(p("record_hh.csv"), *_hh_from_sample(p("sample.csv")))),
            ("estimate[strat]", ["estimate", "--sample-one", p("sample_one.csv"),
                                 "--sample-zero", p("sample_zero.csv"), "--zero-estimator",
                                 "diff", "--out", self.dir, "--out-record", "record_strat.csv"],
             ["record_strat.csv"], self._check_strat),
            ("report", ["report", "--inputs", p("record_hh.csv"), p("record_strat.csv"),
                        "--out", self.dir],
             ["table.txt"], self._check_report),
        ]

    def _check_strat(self, op):
        t1, v1 = _srs_from_sample(self.path("sample_one.csv"), diff=False)
        t0, v0 = _srs_from_sample(self.path("sample_zero.csv"), diff=True)
        return _check_record(self.path("record_strat.csv"), t1 + t0, math.sqrt(v1 + v0))

    def _check_report(self, op):
        rows = {line.split()[0]: line.split() for line in op.output.splitlines()[1:]}
        for est, rec in (("HH", "record_hh.csv"), ("STRAT", "record_strat.csv")):
            total = float(_artifact(self.path(rec))[1][0]["total"])
            if rows.get(est, [None, None])[1] != f"{total:.6g}":
                return f"report: {est} row {rows.get(est)} does not show total {total:.6g}"
        return ""


class ReadmeCli(CliWorkload):
    """cli-readme: the README's CLI walkthrough at its documented seeds.

    The walkthrough's seeds are fixed so that its documented numbers can
    be checked; the workload seed does not change the inputs.
    """

    @property
    def frame_units(self):
        return self.sizes.readme_N

    def steps(self):
        s, p = self.sizes, self.path
        frame, R = p("frame.csv"), str(s.readme_R)

        def simulate_pps():
            with open(p("srs_report.json")) as fh:
                baseline = json.load(fh)["empirical_se"]
            return ["simulate", "--frame", frame, "--design", "pps", "--estimator", "hh",
                    "--n", "300", "--R", R, "--seed", "14", "--baseline-se",
                    f"{baseline:.1f}", "--out", self.dir]

        return [
            ("generate", ["generate", "--N", str(s.readme_N), "--positives",
                          str(s.readme_positives), "--target-f1", "0.7", "--seed", "11",
                          "--out", self.dir],
             ["frame.csv"], lambda op: ""),
            ("metrics", ["metrics", "--frame", frame, "--out", self.dir],
             ["metrics.json"], self._check_metrics_f1),
            ("sample[pps]", ["sample", "--frame", frame, "--design", "pps", "--n", "300",
                             "--seed", "12", "--out", self.dir],
             ["sample.csv"], lambda op: self._check_draws(["sample.csv"], 300)),
            ("estimate[hh]", ["estimate", "--sample", p("sample.csv"), "--estimator", "hh",
                              "--out", self.dir],
             ["record.csv"],
             lambda op: _check_record(p("record.csv"), *_hh_from_sample(p("sample.csv")))),
            ("report", ["report", "--inputs", p("record.csv"), "--out", self.dir],
             ["table.txt"], self._check_report),
            ("simulate[srs]", ["simulate", "--frame", frame, "--design", "srs", "--estimator",
                               "srs", "--n", "300", "--R", R, "--seed", "13", "--out", self.dir,
                               "--out-report", "srs_report.json", "--out-replicates",
                               "srs_replicates.csv", "--out-histogram", "srs_histogram.csv"],
             ["srs_report.json", "srs_replicates.csv", "srs_histogram.csv"],
             lambda op: self._check_simulate("srs_report.json", README_SRS_SE, None)),
            ("simulate[pps]", simulate_pps,
             ["report.json", "replicates.csv", "histogram.csv"],
             lambda op: self._check_simulate("report.json", README_PPS_SE, README_DEFF)),
        ]

    def _check_metrics_f1(self, op):
        problem = self._check_metrics(self.sizes.readme_N, self.sizes.readme_positives)
        with open(self.path("metrics.json")) as fh:
            f1 = json.load(fh)["f1"]
        if not problem and not abs(f1 - 0.7) <= 0.02 * 0.7:  # calibrate_profile's tolerance
            problem = f"metrics: F1 {f1} not within 2% of the 0.7 target"
        return problem

    def _check_report(self, op):
        row = op.output.splitlines()[1].split()
        if self.smoke:
            total = float(_artifact(self.path("record.csv"))[1][0]["total"])
            expected = ["HH", f"{total:.6g}"]
            row = row[:2]
        else:
            expected = README_HH_ROW
        return "" if row == expected else f"report: HH row {row}, expected {expected}"

    def _check_simulate(self, name, readme_se, readme_deff):
        with open(self.path(name)) as fh:
            rep = json.load(fh)
        if rep["R"] != self.sizes.readme_R or rep["true_total"] != self.sizes.readme_positives:
            return f"{name}: R/true_total {rep['R']}/{rep['true_total']}"
        if sum(b[2] for b in rep["histogram"]) != rep["R"]:
            return f"{name}: histogram counts do not sum to R"
        if self.smoke:
            return ""
        if f"{rep['empirical_se']:.1f}" != readme_se:
            return f"{name}: empirical_se {rep['empirical_se']}, README says {readme_se}"
        if readme_deff and f"{rep['deff_vs_srs']:.3f}" != readme_deff:
            return f"{name}: deff_vs_srs {rep['deff_vs_srs']}, README says {readme_deff}"
        return ""


class MonteCarloWorkload:
    """``run_replications`` on the acceptance frame of tests/conftest.py."""

    def __init__(self, seed, sizes, workdir):
        self.seed, self.sizes = seed, sizes
        self.first: dict[str, tuple] = {}
        self.oracle = None

    def setup(self):
        import numpy as np

        import auxcount

        n_pos, n_hard, n_neg = self.sizes.mc_units
        # the recipe of tests/conftest.build_acceptance_frame
        rng = np.random.default_rng(20260823)
        probs = auxcount.clamp_probs(np.concatenate([
            rng.beta(8.0, 0.8, n_pos - n_hard),
            rng.uniform(0.02, 0.45, n_hard),
            rng.beta(0.018, 2.0, n_neg),
        ]))
        labels = np.zeros(n_pos + n_neg)
        labels[:n_pos] = 1.0
        self.ax = auxcount
        self.frame = auxcount.Frame([f"u{i}" for i in range(n_pos + n_neg)], probs, labels)
        self.frame_units = self.frame.N
        self.has_workers = "workers" in inspect.signature(auxcount.run_replications).parameters

    def run(self, name, workers, R, **kwargs):
        op = Op(name)
        if workers != 1:
            kwargs["workers"] = workers
        try:
            op.output = self.ax.run_replications(
                self.frame, n=self.sizes.mc_n, R=R, seed=self.seed, **kwargs
            )
        except Exception:  # count it and go on with the pass
            op.error = f"{name}: " + traceback.format_exc(limit=-2)
        return op

    def _truth(self):
        """True total and closed-form HH and SRS standard errors of the frame."""
        if self.oracle is None:
            p, y = self.frame.aux_probs, self.frame.labels
            t, N, n = float(y.sum()), self.frame.N, self.sizes.mc_n
            hh_var = (float((p.sum() / p[y == 1.0]).sum()) - t * t) / n
            prev = t / N
            srs_var = N * N * (1 - n / N) * prev * (1 - prev) * N / (N - 1) / n
            self.oracle = {"truth": t, "hh": math.sqrt(hh_var), "srs": math.sqrt(srs_var)}
        return self.oracle

    def check(self, ops):
        for op in ops:
            if op.error:
                continue
            rep = op.output
            h = hashlib.sha256(json.dumps(rep.summary_dict(), sort_keys=True).encode())
            h.update(rep.estimates.tobytes())
            h.update(rep.estimated_variances.tobytes())
            _judge(self.first, op, h.hexdigest(), lambda: self._check_report(op.name, rep))
            op.output = None

    def _check_report(self, name, rep):
        o = self._truth()
        scale = max(1.0, math.sqrt(CHECK_R / rep.R))
        se = rep.empirical_se
        z = (rep.empirical_mean - o["truth"]) / (se / math.sqrt(rep.R))
        ratio = rep.mean_estimated_variance / se**2
        closed = o.get(rep.estimator)
        if rep.true_total != o["truth"]:
            return f"{name}: true_total {rep.true_total}, frame has {o['truth']}"
        if not abs(z) <= 4.0:
            return f"{name}: mean {rep.empirical_mean} is {z:.2f} MC SEs from the truth"
        if not abs(ratio - 1.0) <= 0.1 * scale:
            return f"{name}: estimated/empirical variance {ratio:.4f} outside 1 +/- {0.1 * scale:.3g}"
        if closed is not None and not abs(se - closed) <= 0.05 * scale * closed:
            return f"{name}: empirical SE {se:.4g} vs closed form {closed:.4g}"
        return ""

    def artifact_bytes(self):
        return 0


class PpsMonteCarlo(MonteCarloWorkload):
    """mc-pps: the paper's PPS-WR design with the Hansen-Hurwitz estimator."""

    def setup(self):
        super().setup()
        self.ax.pps_wr(self.frame, 1, 0)  # builds the alias table cached on the frame

    def run_pass(self, tracer, workers=1, gap=lambda: None):
        return [self.run("run_replications[pps/hh]", workers, self.sizes.pps_R,
                         design="pps", estimator="hh")]


class StratMonteCarlo(MonteCarloWorkload):
    """mc-strat: SRS baseline, then stratified SRS with expansion and difference."""

    def run_pass(self, tracer, workers=1, gap=lambda: None):
        R = self.sizes.strat_R
        srs = self.run("run_replications[srs/srs]", workers, R, design="srs", estimator="srs")
        ops = [srs]
        for est in ("strat_srs", "strat_diff"):
            gap()
            name = f"run_replications[stratified/{est}]"
            if srs.error:
                ops.append(Op(name, error=f"{name}: skipped, the SRS baseline failed"))
                continue
            ops.append(self.run(name, workers, R, design="stratified", estimator=est, tau=0.5,
                                allocation="neyman_oracle",
                                srs_baseline_se=srs.output.empirical_se))
        return ops


WORKLOADS = {
    "cli-2022": RegisterCli,
    "mc-pps": PpsMonteCarlo,
    "mc-strat": StratMonteCarlo,
    "cli-readme": ReadmeCli,
}

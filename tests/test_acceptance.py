"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
to the terminal, and then asserts on the collected sub-checks, so a red
run still reports every criterion's verdict.
"""

import math
import time

import numpy as np
from scipy.stats import hypergeom

from auxcount import (
    DESIGN_SRS,
    Estimate,
    F1Inputs,
    census_estimate,
    confidence_interval,
    delta_f1,
    design_effect,
    difference_estimate,
    equivalent_srs_n,
    f1_gradient,
    srs_estimate,
    srs_se_for_total,
    stratified_estimate,
    stratify_by_prediction,
    under_reporting,
)
from auxcount.cli import audit_to_config_lines, main, read_audit

from conftest import (
    ACCEPT_N,
    N_2022,
    make_sample,
    one_stratum_review_sample,
)


def _verdict(capsys, num: int, name: str, checks: dict):
    ok = all(checks.values())
    with capsys.disabled():
        print(f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, {key: val for key, val in checks.items() if not val}


def test_criterion_1_two_stratum_disagreement(capsys):
    t0 = time.perf_counter()
    sampled = srs_estimate(one_stratum_review_sample(positives=99))
    flagged = census_estimate(1775, 1912)
    combined = stratified_estimate([("sampled", sampled), ("flagged", flagged)])
    checks = {
        # 99/200 sits exactly on the tolerance boundary; allow float noise
        "proportion 0.50": abs(sampled.proportion - 0.50) <= 0.005 + 1e-12,
        "proportion SE 0.035": abs(sampled.proportion_se - 0.035) <= 0.001,
        "total 2457": abs(sampled.total - 2457) <= 1.0,
        "SE 172": abs(sampled.se - 172) <= 1.0,
        "combined total 4232": abs(combined.total - 4232) <= 1.0,
        "combined SE 172": abs(combined.se - 172) <= 1.0,
        "runtime under 1 s": time.perf_counter() - t0 < 1.0,
    }
    _verdict(capsys, 1, "two-stratum disagreement totals", checks)


def test_criterion_2_interval_arithmetic(capsys):
    record = Estimate("HH", 6051.0, 548.0**2, n=200, N=N_2022)
    lo, hi = confidence_interval(record, z=2.0)
    gap = under_reporting(record, 2695.0, z=2.0)
    checks = {
        "ci [4955, 7147]": (lo, hi) == (4955.0, 7147.0),
        "under-reporting point": gap.point == 3356.0,
        "under-reporting [2260, 4452]": (gap.lo, gap.hi) == (2260.0, 4452.0),
        "not truncated": not gap.truncated,
    }
    _verdict(capsys, 2, "interval arithmetic", checks)


def test_criterion_3_design_effect_chain(capsys):
    p = 6051.0 / N_2022
    baseline = srs_se_for_total(N_2022, p, 200)
    deff = design_effect(548.0, baseline)
    n_eq = equivalent_srs_n(N_2022, p, 548.0)
    checks = {
        "baseline SE 6641": abs(baseline - 6641) <= 5.0,
        "deff 0.0068": abs(deff - 0.0068) <= 0.0005,
        "equivalent n 27k-30k": 27_000 <= n_eq <= 30_000,
    }
    _verdict(capsys, 3, "design-effect chain", checks)


def test_criterion_4_replicated_estimator_ordering(capsys, request, acceptance_frame):
    t0 = time.perf_counter()
    runs = request.getfixturevalue("acceptance_runs")
    elapsed = time.perf_counter() - t0
    closed_form = srs_se_for_total(
        acceptance_frame.N, acceptance_frame.true_total / acceptance_frame.N, ACCEPT_N
    )
    baseline = runs["srs"].empirical_se
    ses = {name: run.empirical_se for name, run in runs.items()}
    deff_consistent = all(
        abs(runs[name].deff_vs_srs - (ses[name] / baseline) ** 2) <= 1e-9
        for name in ("hh", "strat_srs", "strat_diff")
    )
    checks = {
        "closed-form SRS SE 598": abs(closed_form - 598) <= 5.0,
        "empirical SRS within 5%": abs(baseline - closed_form) <= 0.05 * closed_form,
        "ordering hh < strat_srs < strat_diff < srs": (
            ses["hh"] < ses["strat_srs"] < ses["strat_diff"] < ses["srs"]
        ),
        "hh deff under 0.10": runs["hh"].deff_vs_srs < 0.10,
        "deff equals squared SE ratio": deff_consistent,
        "runtime under 5 min": elapsed < 300.0,
    }
    _verdict(capsys, 4, "replicated estimator ordering", checks)


def test_criterion_5_variance_shrinks_with_loss(capsys, sweep_points):
    exact = [point.exact_variance for point in sweep_points]
    rel_dev = [
        abs(point.empirical_variance - point.exact_variance) / point.exact_variance
        for point in sweep_points
    ]
    checks = {
        "five points": len(sweep_points) == 5,
        "strictly decreasing": all(b < a for a, b in zip(exact, exact[1:])),
        "final under 1% of initial": exact[-1] < 0.01 * exact[0],
        "empirical within 10% everywhere": max(rel_dev) <= 0.10,
    }
    _verdict(capsys, 5, "variance shrinks with classifier loss", checks)


def test_criterion_6_unbiased_and_calibrated(capsys, benign_frame, benign_run):
    from auxcount import exact_hh_design_variance

    truth = benign_frame.true_total
    exact = exact_hh_design_variance(benign_frame, benign_run.n)
    band = 3.0 * benign_run.empirical_se / math.sqrt(benign_run.R)
    y = [1.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    exact_diff = difference_estimate(
        make_sample(DESIGN_SRS, y, y, 50, 21.0)
    )
    checks = {
        "mean within 3 MC SEs": abs(benign_run.empirical_mean - truth) <= band,
        "mean estimated variance within 5%": (
            abs(benign_run.mean_estimated_variance - exact) <= 0.05 * exact
        ),
        "difference estimator exact at p_hat = y": (
            exact_diff.total == 21.0 and exact_diff.variance == 0.0
        ),
    }
    _verdict(capsys, 6, "unbiasedness and variance calibration", checks)


def test_criterion_7_zero_stratum_bimodality(capsys, bimodal_frame, bimodal_run):
    zero = stratify_by_prediction(bimodal_frame, 0.5)["zero"]
    positives = int(np.sum(bimodal_frame.labels[zero]))
    predicted = float(hypergeom.pmf(0, zero.size, positives, 200))
    emp = bimodal_run.zero_stratum_empty_fraction
    band = 3.0 * math.sqrt(predicted * (1 - predicted) / bimodal_run.R)
    zero_bins = [b for b in bimodal_run.bins if b.lo == 0.0 and b.hi == 0.0]
    checks = {
        "point mass bin exists": len(zero_bins) == 1,
        "point mass holds the empty mode": (
            zero_bins and zero_bins[0].count == round(emp * bimodal_run.R)
        ),
        "mode dominates": zero_bins and zero_bins[0].count > 0.5 * bimodal_run.R,
        "matches hypergeometric within 3 SEs": abs(emp - predicted) <= band,
    }
    _verdict(capsys, 7, "zero-stratum bimodality", checks)


def test_criterion_8_f1_delta_method(capsys):
    # gradient vs central finite differences
    grad_ok = True
    for tp, fn, c in ((512.0, 77.0, 901.0), (2558.0, 137.0, 8840.0)):
        inputs = F1Inputs(tp, 0.0, fn, 0.0, c)
        g_tp, g_fn = f1_gradient(inputs)
        h = 1e-6

        def f(a, b):
            return 2.0 * a / (a + b + c)

        fd_tp = (f(tp + h, fn) - f(tp - h, fn)) / (2 * h)
        fd_fn = (f(tp, fn + h) - f(tp, fn - h)) / (2 * h)
        grad_ok &= abs(fd_tp - g_tp) / abs(g_tp) < 1e-6
        grad_ok &= abs(fd_fn - g_fn) / abs(g_fn) < 1e-6

    # flagged counts plus a sampled one-stratum remainder; predicted
    # negatives fully enumerated, so var_fn = 0
    one = srs_estimate(one_stratum_review_sample(positives=104))
    recon = F1Inputs(
        tp_hat=2558.0 + one.total,
        var_tp=one.variance,
        fn_hat=137.0,
        var_fn=0.0,
        c=8840.0,
    )
    f1, var = delta_f1(recon)
    se = math.sqrt(var)

    # parametric bootstrap on normal draws of (TP, FN)
    rng = np.random.default_rng(314)
    B = 200_000
    boot_ok = True
    setups = [
        (recon.tp_hat, recon.var_tp, recon.fn_hat, recon.var_fn, recon.c),
        (800.0, 900.0, 120.0, 400.0, 1500.0),
        (300.0, 250.0, 40.0, 36.0, 360.0),
    ]
    for tp, var_tp, fn, var_fn, c in setups:
        delta_se = math.sqrt(delta_f1(F1Inputs(tp, var_tp, fn, var_fn, c))[1])
        tp_draw = rng.normal(tp, math.sqrt(var_tp), B)
        fn_draw = rng.normal(fn, math.sqrt(var_fn), B)
        boot = np.std(2.0 * tp_draw / (tp_draw + fn_draw + c), ddof=1)
        boot_ok &= abs(delta_se - boot) / boot <= 0.10

    checks = {
        "gradient matches finite differences": grad_ok,
        "reconstructed variance near 2.6e-4": 0.7 * 2.6e-4 <= var <= 1.3 * 2.6e-4,
        "SE rounds to 0.02": round(se, 2) == 0.02,
        "delta SE matches bootstrap within 10%": boot_ok,
        "point F1 plausible": 0.70 <= f1 <= 0.75,
    }
    _verdict(capsys, 8, "delta-method F1 inference", checks)


def test_criterion_9_deterministic_reruns(capsys, tmp_path):
    def rerun_matches(tag, first_args, artifact_names):
        first = tmp_path / f"{tag}_first"
        second = tmp_path / f"{tag}_rerun"
        first.mkdir(), second.mkdir()
        assert main([*first_args, "--out", str(first)]) == 0
        audit = read_audit(str(first / artifact_names[0]))
        cfg = first / "rerun.cfg"
        cfg.write_text("\n".join(audit_to_config_lines(audit)) + "\n")
        command = first_args[0]
        code = main([command, "--config", str(cfg), "--out", str(second)])
        assert code == 0
        return all(
            (second / name).read_bytes() == (first / name).read_bytes()
            for name in artifact_names
        )

    gen_ok = rerun_matches(
        "gen",
        ["generate", "--N", "400", "--positives", "20", "--target-loss", "0.3",
         "--seed", "33"],
        ["frame.csv"],
    )
    frame_path = str(tmp_path / "gen_first" / "frame.csv")
    sample_ok = rerun_matches(
        "sample",
        ["sample", "--frame", frame_path, "--design", "pps", "--n", "40",
         "--seed", "3"],
        ["sample.csv"],
    )
    sim_ok = rerun_matches(
        "sim",
        ["simulate", "--frame", frame_path, "--design", "srs", "--estimator", "srs",
         "--n", "20", "--R", "40", "--seed", "9"],
        ["report.json", "replicates.csv", "histogram.csv"],
    )
    checks = {
        "generate reruns byte-for-byte": gen_ok,
        "sample reruns byte-for-byte": sample_ok,
        "simulate reruns byte-for-byte": sim_ok,
    }
    _verdict(capsys, 9, "deterministic reruns", checks)

"""Acceptance checks binding the whole package together.

One test per headline guarantee, in a fixed order: the frozen density
table, estimation sample sizes, statistic-oracle equivalence, coefficient
recovery on generated panels, the closed-form variance cross-check, the
directional replication pattern, binary predictor contracts, pipeline
determinism, and exactness of the K-S statistic.  Tests with a wall-clock
budget assert it themselves, so a pass line certifies both the numbers
and the runtime.
"""

import csv
import json
import time

import numpy as np
import pytest

import oracles
from gravnet.cli import main
from gravnet.compare import (
    ModelPrediction,
    analytical_var_avg_ns,
    build_comparison_report,
    ks_two_sample,
)
from gravnet.estimation import (
    _ols_log1p_start,
    _zip_em,
    fit_logit,
    fit_ols,
    fit_poisson_pml,
    fit_zip,
)
from gravnet.netstats import (
    STAT_KINDS,
    WEIGHTED_KINDS,
    TradeNetwork,
    compute_statistic,
    density,
    reciprocal_degree,
)
from gravnet.panel import (
    build_cross_section,
    build_design_matrix,
    load_panel,
    summary_stats,
)
from gravnet.prediction import (
    density_induced_binary,
    link_probabilities,
    predict_ols,
    predict_ppml,
    predict_zip,
    sample_bernoulli_ensemble,
    sample_weighted_ensemble,
    threshold_matching_density,
)
from gravnet.synth import GENERATOR_COVARIATES, SynthSpec, write_synth_panel

#: Yearly country and positive-flow counts with the densities they imply,
#: frozen to four decimals, plus the two-decimal form used in summaries.
DENSITY_TABLE = (
    (1970, 129, 6583, 0.3987, "0.40"),
    (1975, 135, 7618, 0.4211, "0.42"),
    (1980, 142, 8162, 0.4077, "0.41"),
    (1985, 148, 9108, 0.4186, "0.42"),
    (1990, 145, 10289, 0.4928, "0.49"),
    (1995, 157, 12138, 0.4956, "0.50"),
    (2000, 154, 11828, 0.5020, "0.50"),
)

RECOVERY_YEARS = tuple(range(1994, 2001))


def test_density_reproduces_frozen_yearly_table():
    start = time.perf_counter()
    for year, n, links, four_dp, two_dp in DENSITY_TABLE:
        flat = np.zeros(n * n)
        off = np.flatnonzero(~np.eye(n, dtype=bool).ravel())
        flat[off[:links]] = 1.0
        rho = density(TradeNetwork(flat.reshape(n, n)))
        assert rho == links / (n * (n - 1)), year
        assert round(rho, 4) == four_dp, year
        assert f"{rho:.2f}" == two_dp, year
    assert time.perf_counter() - start < 1.0


def test_estimation_sample_sizes_on_constructed_year(tmp_path):
    """154 countries with exactly 11828 positive flows give estimation
    samples of 11828 rows (positive dyads) and 23562 rows (all dyads)."""
    paths = write_synth_panel(
        SynthSpec(n_countries=154, years=(2000,), noise="zip", seed=5),
        str(tmp_path),
    )
    with open(paths["dyads"], newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        fields = reader.fieldnames
    assert len(rows) == 154 * 153
    for k, row in enumerate(rows):
        row["flow"] = "2.5" if k < 11828 else "0"
    with open(paths["dyads"], "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    panel = load_panel(paths["dyads"], paths["countries"])
    cs = build_cross_section(panel, 2000)
    stats = summary_stats(cs)
    assert stats.n_countries == 154
    assert stats.n_flows == 11828
    assert round(stats.density, 4) == 0.5020
    positive = build_design_matrix(cs, panel, positive_only=True)
    full = build_design_matrix(cs, panel)
    assert positive.X.shape[0] == 11828
    assert full.X.shape[0] == 23562


def test_all_statistics_match_loop_oracle():
    """200 random networks, every catalogue statistic under both weight
    transforms, against the naive triple-loop reference, to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for case in range(200):
        n = int(rng.integers(4, 9))
        p = rng.choice([0.25, 0.5, 0.8, 1.0])
        a = (rng.random((n, n)) < p).astype(np.int8)
        np.fill_diagonal(a, 0)
        w = np.exp(rng.normal(0.0, 1.2, (n, n))) * a
        net = TradeNetwork(w)
        for transform in ("identity", "log_positive"):
            expected = oracles.loop_statistics(w.tolist(), a.tolist(), transform)
            for kind in STAT_KINDS:
                if transform == "log_positive" and kind not in WEIGHTED_KINDS:
                    continue  # binary statistics ignore the weight scale
                got = compute_statistic(net, kind, transform)
                values, defined = expected[kind]
                assert got.defined.tolist() == defined, (case, kind)
                for i in range(n):
                    if defined[i]:
                        assert abs(got.values[i] - values[i]) <= 1e-12, (case, kind)
            assert abs(density(net) - expected["density"]) <= 1e-12
            assert reciprocal_degree(net).values.tolist() == expected["ND_recip"][0]
    assert time.perf_counter() - start < 30.0


def _recovery_panel(noise, seed, out_dir):
    spec = SynthSpec(n_countries=50, years=RECOVERY_YEARS, noise=noise, seed=seed)
    paths = write_synth_panel(spec, str(out_dir))
    panel = load_panel(paths["dyads"], paths["countries"])
    with open(paths["truth"]) as fh:
        truth = json.load(fh)
    return panel, truth["years"]


def _within_3se(fit, target):
    z = (fit.coefficients - np.asarray(target)) / np.sqrt(np.diag(fit.vcov))
    return list(np.abs(z) < 3.0)


@pytest.mark.slow
def test_estimators_recover_generating_coefficients(tmp_path):
    """Each estimator finds the generating coefficients within 3 reported
    standard errors in at least 95% of (run, year, coefficient) events
    over 20 seeded panels per noise regime, and every EM log-likelihood
    trace is non-decreasing."""
    start = time.perf_counter()
    hits = {"OLS": [], "PPML": [], "LOGIT": [], "ZIP": []}
    for run in range(20):
        panel, truth = _recovery_panel("lognormal", 1000 + run, tmp_path / f"l{run}")
        for year in RECOVERY_YEARS:
            cs = build_cross_section(panel, year)
            dm = build_design_matrix(cs, panel, GENERATOR_COVARIATES, positive_only=True)
            hits["OLS"] += _within_3se(fit_ols(dm), truth[str(year)]["gamma"])

        panel, truth = _recovery_panel("poisson", 1000 + run, tmp_path / f"p{run}")
        for year in RECOVERY_YEARS:
            cs = build_cross_section(panel, year)
            dm = build_design_matrix(cs, panel, GENERATOR_COVARIATES)
            hits["PPML"] += _within_3se(fit_poisson_pml(dm), truth[str(year)]["gamma"])

        panel, truth = _recovery_panel("zip", 1000 + run, tmp_path / f"z{run}")
        for year in RECOVERY_YEARS:
            cs = build_cross_section(panel, year)
            dm = build_design_matrix(cs, panel, GENERATOR_COVARIATES)
            y = np.asarray(dm.y, dtype=float)
            gamma = truth[str(year)]["gamma"]
            theta = truth[str(year)]["theta"]
            # count means are large here, so the Poisson zero mass is
            # negligible and the zero indicator identifies the structural
            # zero stage
            logit = fit_logit(dm)
            hits["LOGIT"] += _within_3se(logit, theta)
            zf = fit_zip(dm)
            hits["ZIP"] += _within_3se(zf.poisson_part, gamma)
            hits["ZIP"] += _within_3se(zf.logit_part, theta)
            trace = np.array(
                _zip_em(dm.X, y, np.zeros(dm.X.shape[1]), _ols_log1p_start(dm.X, y))[2]
            )
            assert np.all(np.diff(trace) >= -1e-8 * (1.0 + np.abs(trace[:-1])))
    for tag, events in hits.items():
        assert len(events) == (1680 if tag == "ZIP" else 840)
        rate = float(np.mean(events))
        assert rate >= 0.95, f"{tag} recovery rate {rate:.4f}"
    assert time.perf_counter() - start < 300.0


#: Gentle index slopes keep the per-dyad means homogeneous, so the
#: Monte-Carlo variance of the replication average concentrates fast.
VARIANCE_SLOPES = (0.3, 0.25, -0.3, 0.2, 0.15)


def _variance_instance(noise, seed, out_dir):
    spec = SynthSpec(
        n_countries=20,
        years=(2000,),
        noise=noise,
        seed=seed,
        mean_log_flow=3.0,
        gamma_slopes=VARIANCE_SLOPES,
    )
    paths = write_synth_panel(spec, str(out_dir))
    panel = load_panel(paths["dyads"], paths["countries"])
    return build_cross_section(panel, 2000), panel


def test_analytical_variance_matches_monte_carlo(tmp_path):
    """The closed-form variance of average node strength agrees with the
    empirical variance across a 10,000-replication ensemble within 5%
    relative error for each model family."""
    start = time.perf_counter()
    m = 10_000

    cs, panel = _variance_instance("lognormal", 23, tmp_path / "ols")
    dm = build_design_matrix(cs, panel, GENERATOR_COVARIATES, positive_only=True)
    pred = predict_ols(fit_ols(dm), dm)
    checks = [("OLS", pred, sample_weighted_ensemble(pred, m, seed=31))]

    cs, panel = _variance_instance("poisson", 22, tmp_path / "ppml")
    dm = build_design_matrix(cs, panel, GENERATOR_COVARIATES)
    pred = predict_ppml(fit_poisson_pml(dm), dm)
    off = ~np.eye(pred.n, dtype=bool)
    assert pred.value[off].min() >= 1.0
    checks.append(("PPML", pred, sample_weighted_ensemble(pred, m, seed=32)))

    cs, panel = _variance_instance("zip", 21, tmp_path / "zip")
    dm = build_design_matrix(cs, panel, GENERATOR_COVARIATES)
    zf = fit_zip(dm)
    lk = link_probabilities(zf, dm)
    pred = predict_zip(zf, dm)
    off = ~np.eye(pred.n, dtype=bool)
    assert (pred.value[off] / lk.xi[off]).min() >= 1.0  # count-stage means
    checks.append(
        ("ZIP", pred, sample_weighted_ensemble(pred, m, seed=33, link_probs=lk))
    )

    for tag, pred, ens in checks:
        averages = ens.replications.reshape(m, -1).sum(axis=1) / pred.n
        mc = float(averages.var(ddof=1))
        closed = analytical_var_avg_ns(pred)
        assert abs(mc / closed - 1.0) <= 0.05, (tag, mc, closed)
    assert time.perf_counter() - start < 120.0


def _single_year_pvalues(seed, out_dir):
    paths = write_synth_panel(
        SynthSpec(n_countries=50, years=(2000,), noise="zip", seed=seed),
        str(out_dir),
    )
    panel = load_panel(paths["dyads"], paths["countries"])
    cs = build_cross_section(panel, 2000)
    dm_pos = build_design_matrix(cs, panel, GENERATOR_COVARIATES, positive_only=True)
    dm_full = build_design_matrix(cs, panel, GENERATOR_COVARIATES)
    observed = TradeNetwork(cs.weights)
    po = predict_ols(fit_ols(dm_pos), dm_pos)
    pp = predict_ppml(fit_poisson_pml(dm_full), dm_full)
    pz = predict_zip(fit_zip(dm_full), dm_full)

    # log-scale predictions keep the observed support and are compared
    # against observed log weights; level predictions cover every dyad
    # and are compared in levels
    log_report = build_comparison_report(
        observed,
        cs.country_ids,
        {"OLS": ModelPrediction(TradeNetwork(po.value, po.mask))},
        observed_transform="log_positive",
    )
    level_report = build_comparison_report(
        observed,
        cs.country_ids,
        {
            "PPML": ModelPrediction(TradeNetwork(pp.value)),
            "ZIP": ModelPrediction(TradeNetwork(pz.value)),
        },
        observed_transform="identity",
    )
    log_p = {s.kind: s.ks.p_value for s in log_report.statistics}
    level_p = {(s.model_tag, s.kind): s.ks.p_value for s in level_report.statistics}
    return log_p, level_p


def test_log_pipeline_replicates_structure_where_level_pipelines_fail(tmp_path):
    """Directional pattern over 20 generated panels: the log-scale model
    on the observed support is statistically indistinguishable from the
    observation for strengths, neighbor strengths, and weighted
    clustering, while the level-scale full-matrix predictions are
    rejected for the latter two."""
    keep = {"NS_tot": 0, "ANNS_tot": 0, "WCC_tot": 0}
    reject = {
        ("PPML", "ANNS_tot"): 0,
        ("PPML", "WCC_tot"): 0,
        ("ZIP", "ANNS_tot"): 0,
        ("ZIP", "WCC_tot"): 0,
    }
    runs = 20
    for run in range(runs):
        log_p, level_p = _single_year_pvalues(300 + run, tmp_path / str(run))
        for kind in keep:
            keep[kind] += log_p[kind] > 0.05
        for cell in reject:
            reject[cell] += level_p[cell] < 0.05
    for kind, count in keep.items():
        assert count > runs // 2, (kind, count)
    for cell, count in reject.items():
        assert count > runs // 2, (cell, count)


def test_binary_predictors_match_density_contracts(tmp_path):
    """Thresholding link probabilities at the observed density lands
    within two links of it, and the Bernoulli ensemble's mean density
    matches the mean link probability within Monte-Carlo error."""
    paths = write_synth_panel(
        SynthSpec(n_countries=20, years=(2000,), noise="zip", seed=28),
        str(tmp_path),
    )
    panel = load_panel(paths["dyads"], paths["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, GENERATOR_COVARIATES)
    n = len(cs.country_ids)
    pairs = n * (n - 1)
    rho = density(TradeNetwork(cs.weights))
    observed_links = int(round(rho * pairs))

    logit = fit_logit(dm)
    for fit in (logit, fit_zip(dm)):
        lk = link_probabilities(fit, dm)
        induced = density_induced_binary(lk, rho)
        assert abs(int(induced.adjacency.sum()) - observed_links) <= 2
        matched = threshold_matching_density(lk, rho)
        assert abs(int(matched.adjacency.sum()) - observed_links) <= 2

    lk = link_probabilities(logit, dm)
    m = 10_000
    ens = sample_bernoulli_ensemble(lk, m, seed=34)
    densities = ens.replications.reshape(m, -1).sum(axis=1) / pairs
    xi = lk.xi[~np.eye(n, dtype=bool)]
    se = float(np.sqrt((xi * (1.0 - xi)).sum() / pairs**2 / m))
    assert abs(float(densities.mean()) - float(xi.mean())) <= 3.0 * se


def _run_pipeline(config_path, out_dir):
    for command in ("fit", "predict", "netstats", "compare", "report"):
        code = main([command, "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0, command


def _artifact_bytes(root):
    # the log carries timestamps and is not an artifact
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "run.log.jsonl"
    }


def test_full_pipeline_is_byte_identical_across_runs(tmp_path):
    """The same config and seed produce identical artifact bytes twice."""
    panel_paths = write_synth_panel(
        SynthSpec(n_countries=16, years=(1995, 2000), noise="zip", seed=9),
        str(tmp_path / "panel"),
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "dyads": panel_paths["dyads"],
                "countries": panel_paths["countries"],
                "out": str(tmp_path / "unused"),
                "covariates": list(GENERATOR_COVARIATES),
                "replications": 30,
                "seed": 5,
            }
        )
    )
    _run_pipeline(config_path, tmp_path / "a")
    _run_pipeline(config_path, tmp_path / "b")
    first = _artifact_bytes(tmp_path / "a")
    second = _artifact_bytes(tmp_path / "b")
    assert any(key.endswith("report.json") for key in first)
    assert first.keys() == second.keys()
    assert all(first[key] == second[key] for key in first)


def test_ks_statistic_matches_counting_oracle():
    """Exact agreement with a brute-force ECDF scan on 1,000 small-sample
    pairs; identical samples give D = 0 with p = 1."""
    rng = np.random.default_rng(4242)
    for case in range(1000):
        n1 = int(rng.integers(1, 13))
        n2 = int(rng.integers(1, 13))
        if case % 2:  # heavy ties: small integer support
            x = rng.integers(0, 6, n1).astype(float)
            y = rng.integers(0, 6, n2).astype(float)
        else:
            x = rng.normal(0.0, 1.0, n1)
            y = rng.normal(0.3, 1.3, n2)
        got = ks_two_sample(x, y)
        assert got.d_statistic == oracles.loop_ks_statistic(x, y), case
    same = np.array([0.0, 1.5, 1.5, 2.0, 3.7])
    result = ks_two_sample(same, same.copy())
    assert result.d_statistic == 0.0
    assert result.p_value == 1.0

"""Comparison-layer tests.

The K-S statistic is checked for exact equality against a counting oracle.
Ensemble summaries are checked on degenerate (zero-variance) ensembles,
against binomial moments, field for field against the per-kind loop
oracle, and for memory that stays flat in the ensemble size when the
ensemble is streamed.  The closed-form average-strength variances are
checked against their printed values and against Monte Carlo ensembles.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from gravnet.compare import (
    CORRELATION_PAIRS,
    REPORT_KINDS,
    ModelPrediction,
    _Z975,
    analytical_var_avg_ns,
    build_comparison_report,
    ensemble_summary,
    ks_two_sample,
    report_as_dict,
)
from gravnet.errors import ValidationError
from gravnet.estimation import fit_ols, fit_poisson_pml, fit_zip
from gravnet.netstats import TradeNetwork
from gravnet.prediction import (
    LinkProbabilityMatrix,
    NetworkEnsemble,
    PredictedWeights,
    link_probabilities,
    predict_ols,
    predict_ppml,
    predict_zip,
    sample_bernoulli_ensemble,
    sample_weighted_ensemble,
    stream_weighted_ensemble,
)

from oracles import loop_ensemble_summary, loop_ks_statistic
from test_prediction import country_names, make_dm, simulate_grid


# ------------------------------------------------------------------ K-S


def test_ks_identical_samples_give_zero():
    x = [3.0, 1.0, 4.0, 1.0, 5.0]
    res = ks_two_sample(x, list(x))
    assert res.d_statistic == 0.0
    assert res.p_value == 1.0
    assert (res.n1, res.n2) == (5, 5)


def test_ks_fully_separated_points():
    res = ks_two_sample([0.0], [1.0])
    assert res.d_statistic == 1.0
    assert 0.0 <= res.p_value <= 1.0


def test_ks_matches_counting_oracle():
    rng = np.random.default_rng(31)
    for trial in range(300):
        n1 = int(rng.integers(1, 13))
        n2 = int(rng.integers(1, 13))
        if trial % 2:
            # integer-valued samples force ties within and across samples
            x = rng.integers(0, 5, size=n1).astype(float)
            y = rng.integers(0, 5, size=n2).astype(float)
        else:
            x = rng.normal(size=n1)
            y = rng.normal(size=n2)
        got = ks_two_sample(x, y)
        assert got.d_statistic == loop_ks_statistic(x, y)


def test_ks_invariant_under_monotone_transforms():
    rng = np.random.default_rng(32)
    x = rng.normal(size=40)
    y = rng.normal(loc=0.7, size=25)
    base = ks_two_sample(x, y).d_statistic
    assert ks_two_sample(np.exp(x), np.exp(y)).d_statistic == base
    assert ks_two_sample(3.0 * x + 11.0, 3.0 * y + 11.0).d_statistic == base
    assert ks_two_sample(np.arctan(x), np.arctan(y)).d_statistic == base


def test_ks_p_decreases_with_separation():
    rng = np.random.default_rng(33)
    x = rng.normal(size=60)
    close = ks_two_sample(x, rng.normal(size=60))
    far = ks_two_sample(x, rng.normal(loc=3.0, size=60))
    assert far.d_statistic > close.d_statistic
    assert far.p_value < close.p_value


def test_ks_rejects_empty_and_nonfinite():
    with pytest.raises(ValidationError):
        ks_two_sample([], [1.0])
    with pytest.raises(ValidationError):
        ks_two_sample([1.0], [])
    with pytest.raises(ValidationError):
        ks_two_sample([np.nan], [1.0])


def test_z975_literal_is_the_normal_quantile_bit_for_bit():
    assert _Z975 == float(ndtri(0.975))


# ------------------------------------------------------- ensemble summary


def exact_ols_prediction():
    """A zero-residual-variance log-linear prediction: draws are exact."""
    rng = np.random.default_rng(34)
    n = 5
    ids = country_names(n)
    mask = np.zeros((n, n), dtype=np.int8)
    value = np.zeros((n, n))
    for i, j in [(0, 1), (1, 0), (0, 2), (2, 3), (3, 1), (4, 0), (1, 4)]:
        mask[i, j] = 1
        value[i, j] = rng.normal(loc=2.0)
    return PredictedWeights("OLS", ids, value, np.zeros((n, n)), mask)


def test_ensemble_summary_degenerate_ols_collapses():
    pred = exact_ols_prediction()
    ens = sample_weighted_ensemble(pred, m=50, seed=1)
    (summary,) = ensemble_summary(ens, ("NS_tot",), "identity")
    assert summary.sd == 0.0
    assert summary.ci_low == summary.mean == summary.ci_high
    assert summary.normal_low == summary.mean == summary.normal_high
    assert summary.m == 50 and summary.n_dropped == 0

    # and every replication is exactly the predicted log matrix
    np.testing.assert_array_equal(ens.replications[0], pred.value)
    np.testing.assert_array_equal(ens.replications[-1], pred.value)


def test_ensemble_summary_bernoulli_density_moments():
    n = 6
    xi = np.full((n, n), 0.5)
    np.fill_diagonal(xi, 0.0)
    lp = LinkProbabilityMatrix(country_names(n), xi)
    m = 10_000
    ens = sample_bernoulli_ensemble(lp, m=m, seed=3)
    (summary,) = ensemble_summary(ens, ("density",))
    assert abs(summary.mean - 0.5) <= 3.0 * summary.sd / np.sqrt(m)
    assert summary.ci_low <= summary.mean <= summary.ci_high
    # binomial spread: per-replication density has sd sqrt(p(1-p)/pairs)
    want_sd = np.sqrt(0.25 / (n * (n - 1)))
    assert summary.sd == pytest.approx(want_sd, rel=0.1)


def test_ensemble_summary_drops_undefined_replications():
    n = 4
    empty = np.zeros((n, n))
    ring = np.zeros((n, n))
    for k in range(n):
        ring[k, (k + 1) % n] = 1.0
    reps = np.stack([empty, ring, empty, ring, ring])
    ens = NetworkEnsemble("PPML", country_names(n), reps, seed=0)

    # partner averages are undefined on an empty network
    (summary,) = ensemble_summary(ens, ("ANND_tot",))
    assert summary.m == 3 and summary.n_dropped == 2

    all_empty = NetworkEnsemble("PPML", country_names(n), np.zeros((3, n, n)), seed=0)
    with pytest.raises(ValidationError):
        ensemble_summary(all_empty, ("ANND_tot",))
    with pytest.raises(ValidationError):
        ensemble_summary(NetworkEnsemble("PPML", country_names(n), reps[:1], seed=0),
                         ("ND_tot",))


def test_mask_ensemble_takes_its_binary_statistics_once(monkeypatch):
    import gravnet.netstats as netstats

    exact = exact_ols_prediction()
    pred = PredictedWeights(
        "OLS", exact.country_ids, exact.value, 0.3 * exact.mask, exact.mask
    )
    m = 9
    kinds = REPORT_KINDS + ("density",)
    want = tuple(
        loop_ensemble_summary(sample_weighted_ensemble(pred, m=m, seed=6), kind)
        for kind in kinds
    )

    computed = []
    original = netstats._clustering

    def counting(kind, *args, **kwargs):
        computed.append(kind)
        return original(kind, *args, **kwargs)

    monkeypatch.setattr(netstats, "_clustering", counting)
    got = ensemble_summary(stream_weighted_ensemble(pred, m=m, seed=6), kinds)
    assert got == want
    # every replication's adjacency is the mask: one BCC_tot, m of WCC_tot
    assert computed.count("BCC_tot") == 1
    assert computed.count("WCC_tot") == m


def test_mask_ensemble_undefined_binary_kinds_are_dropped_every_time():
    n = 4
    ids = country_names(n)
    empty = np.zeros((n, n), dtype=np.int8)
    pred = PredictedWeights("OLS", ids, np.zeros((n, n)), np.zeros((n, n)), empty)
    stream = stream_weighted_ensemble(pred, m=5, seed=2)
    stack = sample_weighted_ensemble(pred, m=5, seed=2)

    kept = ("ND_tot", "NS_tot", "density")
    got = ensemble_summary(stream, kept)
    assert got == tuple(loop_ensemble_summary(stack, kind) for kind in kept)
    assert [(s.m, s.n_dropped) for s in got] == [(5, 0)] * 3
    # no partners and no triangles anywhere: undefined in all 5 replications
    for kind in ("ANND_tot", "BCC_tot", "WCC_tot"):
        with pytest.raises(ValidationError, match=f"{kind}: undefined in every replication"):
            loop_ensemble_summary(stack, kind)
        with pytest.raises(ValidationError, match=f"{kind}: undefined in every replication"):
            ensemble_summary(stream, ("ND_tot", kind))


@pytest.mark.parametrize(
    "kind, transform",
    [("FOO", "identity"), ("NS_tot", "bogus"), ("ND_tot", "bogus")],
)
def test_ensemble_summary_rejects_unknown_kind_or_transform(kind, transform):
    n = 4
    reps = np.ones((3, n, n))
    ens = NetworkEnsemble("PPML", country_names(n), reps, seed=0)
    with pytest.raises(ValidationError, match="unknown"):
        ensemble_summary(ens, (kind,), transform)


def test_ensemble_summary_rejects_a_bare_string():
    ens = NetworkEnsemble("PPML", country_names(4), np.ones((3, 4, 4)), seed=0)
    with pytest.raises(ValidationError, match="sequence of kinds"):
        ensemble_summary(ens, "ND_tot")


def oracle_ensembles():
    """Small masked-OLS, PPML, ZIP and Bernoulli ensembles, plus one whose
    replications alternate between an empty network and a ring, so the
    partner averages and clusterings are dropped in some replications."""
    rng = np.random.default_rng(37)
    ids = country_names(6)
    rows = [(e, i) for e in ids for i in ids if e != i]
    k = len(rows)
    X = np.column_stack([np.ones(k), rng.normal(size=k), rng.normal(size=k)])
    y = np.exp(X @ np.array([2.0, 0.5, -0.4]) + rng.normal(scale=0.8, size=k))
    keep = rng.random(k) < 0.7
    dm = make_dm(ids, [r for r, kp in zip(rows, keep) if kp], X[keep], y[keep])
    ols = predict_ols(fit_ols(dm), dm)

    _, dm = simulate_grid(rng, 6, theta=(-1.0, 0.4, 0.0), gamma=(1.5, 0.4, -0.3))
    ppml = predict_ppml(fit_poisson_pml(dm), dm)
    zres = fit_zip(dm)
    lp = link_probabilities(zres, dm)

    ring = np.roll(np.eye(4), 1, axis=1)
    dropped = np.stack([np.zeros((4, 4)), ring, np.zeros((4, 4)), ring, 2.5 * ring])
    return {
        "OLS": sample_weighted_ensemble(ols, m=40, seed=1),
        "PPML": sample_weighted_ensemble(ppml, m=40, seed=2),
        "ZIP": sample_weighted_ensemble(predict_zip(zres, dm), m=40, seed=3, link_probs=lp),
        "BERNOULLI": sample_bernoulli_ensemble(lp, m=40, seed=4),
        "DROPPED": NetworkEnsemble("PPML", country_names(4), dropped, seed=0),
    }


@pytest.mark.parametrize("transform", ["identity", "log_positive"])
def test_ensemble_summary_matches_per_kind_loop_oracle(transform):
    kinds = REPORT_KINDS + ("density",)
    ensembles = oracle_ensembles()
    assert not np.all(ensembles["OLS"].mask[~np.eye(6, dtype=bool)])
    for tag, ens in ensembles.items():
        got = ensemble_summary(ens, kinds, transform)
        want = tuple(loop_ensemble_summary(ens, kind, transform) for kind in kinds)
        assert got == want, tag
    dropped = ensemble_summary(ensembles["DROPPED"], kinds, transform)
    assert {s.kind: s.n_dropped for s in dropped if s.n_dropped} == {
        "ANND_tot": 2, "BCC_tot": 2, "ANNS_tot": 2, "WCC_tot": 2,
    }


def traced_peak_bytes(summarise) -> int:
    """Peak traced memory of ``summarise()``, with interpreter caches warm.

    numpy's Poisson draw at array means parks one 2-tuple per call in
    CPython's 2-tuple free list, up to its cap of 2000.  The free list is
    filled first, and the collector (which empties it) is off while
    tracing, so the peak counts the summary's own memory.
    """
    gc.collect()
    gc.disable()
    try:
        pairs = [(k, -k) for k in range(4000)]
        del pairs  # 2 000 of these freed tuples stay on the free list
        tracemalloc.start()
        try:
            summarise()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()


def test_streamed_summary_memory_is_flat_in_m():
    n = 40
    rng = np.random.default_rng(41)
    level = rng.uniform(0.0, 20.0, size=(n, n))
    np.fill_diagonal(level, 0.0)
    off = (~np.eye(n, dtype=bool)).astype(np.int8)
    pred = PredictedWeights("PPML", country_names(n), level, level, off)

    def peak(m):
        stream = stream_weighted_ensemble(pred, m, seed=5)
        return traced_peak_bytes(lambda: ensemble_summary(stream, REPORT_KINDS))

    small, large = peak(50), peak(800)
    assert large < 1.5 * small, (small, large)
    assert large < 800 * n * n * 8  # one float64 stack of 800 replications


# ------------------------------------------------- analytical variances


def test_analytical_var_ppml_printed_value():
    n = 100
    value = np.zeros((n, n))
    value[0, 1:] = 1000.0 / (n - 1)  # avg NS_out = 10
    mask = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(mask, 0)
    pred = PredictedWeights("PPML", country_names(n), value, value.copy(), mask)
    assert analytical_var_avg_ns(pred) == pytest.approx(0.1, rel=1e-12)


def test_analytical_var_ols_printed_value():
    n = 101
    mask = np.zeros((n, n), dtype=np.int8)
    # exactly half of the ordered pairs carry a link
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in off[: len(off) // 2]:
        mask[i, j] = 1
    variance = 2.0 * mask
    pred = PredictedWeights("OLS", country_names(n), np.zeros((n, n)), variance, mask)
    want = 0.5 * 2.0 * (n - 1) / n
    assert analytical_var_avg_ns(pred) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.9901, abs=5e-5)


def test_analytical_var_validation():
    pred = exact_ols_prediction()
    bogus = PredictedWeights(
        "LOGIT", pred.country_ids, np.asarray(pred.value),
        np.asarray(pred.variance), np.asarray(pred.mask),
    )
    with pytest.raises(ValidationError):
        analytical_var_avg_ns(bogus)


def test_analytical_var_matches_monte_carlo():
    """The three closed forms against M = 10,000 ensembles, 5% relative."""
    m = 10_000
    rng = np.random.default_rng(35)

    # Poisson
    ids, dm = simulate_grid(rng, 6, theta=(-30.0, 0.0, 0.0), gamma=(1.5, 0.4, -0.3))
    fit = fit_poisson_pml(dm)
    pred = predict_ppml(fit, dm)
    ens = sample_weighted_ensemble(pred, m=m, seed=21)
    mc_var = ensemble_summary(ens, ("NS_out",), "identity")[0].sd ** 2
    assert mc_var == pytest.approx(analytical_var_avg_ns(pred), rel=0.05)

    # zero-inflated
    ids, dm = simulate_grid(rng, 6, theta=(-0.8, 0.5, 0.0), gamma=(1.6, 0.4, -0.3))
    zres = fit_zip(dm)
    zpred = predict_zip(zres, dm)
    lp = link_probabilities(zres, dm)
    zens = sample_weighted_ensemble(zpred, m=m, seed=22, link_probs=lp)
    mc_var = ensemble_summary(zens, ("NS_out",), "identity")[0].sd ** 2
    assert mc_var == pytest.approx(analytical_var_avg_ns(zpred), rel=0.05)

    # log-linear
    ids = country_names(6)
    rows = [(e, i) for e in ids for i in ids if e != i]
    k = len(rows)
    X = np.column_stack([np.ones(k), rng.normal(size=k), rng.normal(size=k)])
    y = np.exp(X @ np.array([2.0, 0.5, -0.4]) + rng.normal(scale=0.8, size=k))
    keep = rng.random(k) < 0.7
    dm = make_dm(ids, [r for r, kp in zip(rows, keep) if kp], X[keep], y[keep])
    ofit = fit_ols(dm)
    opred = predict_ols(ofit, dm)
    oens = sample_weighted_ensemble(opred, m=m, seed=23)
    mc_var = ensemble_summary(oens, ("NS_out",), "identity")[0].sd ** 2
    assert mc_var == pytest.approx(analytical_var_avg_ns(opred), rel=0.05)


# ----------------------------------------------------------------- report


def observed_network(seed=36, n=6):
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((n, n)) < 0.6, rng.uniform(1.0, 9.0, (n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    return TradeNetwork(w)


def test_report_point_mass_recovers_observed():
    net = observed_network()
    ids = country_names(net.n)
    reps = np.repeat(net.weights[None], 5, axis=0)
    ens = NetworkEnsemble("PPML", ids, reps, seed=0)
    predictions = {
        "PPML": ModelPrediction(net, ensemble=ens, transform="log_positive"),
    }
    report = build_comparison_report(net, ids, predictions, year=1999)

    assert report.year == 1999
    assert len(report.statistics) == len(REPORT_KINDS)
    for cell in report.statistics:
        assert cell.ks.d_statistic == 0.0
        assert cell.ks.p_value == 1.0
        assert cell.predicted_avg == cell.observed_avg
        assert cell.summary.ci_low <= cell.observed_avg <= cell.summary.ci_high
    for corr in report.correlations:
        assert corr.observed_r == corr.predicted_r


def test_report_alignment_errors():
    net = observed_network()
    ids = country_names(net.n)
    with pytest.raises(ValidationError):
        build_comparison_report(net, ids, {})

    other_ids = ("Q",) + ids[1:]
    reps = np.repeat(net.weights[None], 3, axis=0)
    bad_ens = NetworkEnsemble("PPML", other_ids, reps, seed=0)
    with pytest.raises(ValidationError) as err:
        build_comparison_report(
            net, ids, {"PPML": ModelPrediction(net, ensemble=bad_ens)}
        )
    assert "Q" in str(err.value) and ids[0] in str(err.value)

    small = TradeNetwork(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        build_comparison_report(net, ids, {"PPML": ModelPrediction(small)})
    with pytest.raises(ValidationError):
        build_comparison_report(net, ids[:-1], {"PPML": ModelPrediction(net)})


def test_report_rows_and_json():
    net = observed_network(seed=37)
    ids = country_names(net.n)
    predictions = {
        "PPML": ModelPrediction(net, transform="log_positive"),
        "OLS": ModelPrediction(net, transform="log_positive"),
    }
    report = build_comparison_report(net, ids, predictions, year=2000)

    assert len(report.statistics) == 2 * len(REPORT_KINDS)
    assert len(report.correlations) == 2 * len(CORRELATION_PAIRS)
    # models appear in sorted order for deterministic artifacts
    assert [s.model_tag for s in report.statistics[: len(REPORT_KINDS)]] == \
        ["OLS"] * len(REPORT_KINDS)

    payload = json.dumps(report_as_dict(report), sort_keys=True)
    assert payload == json.dumps(report_as_dict(report), sort_keys=True)
    decoded = json.loads(payload)
    assert decoded["report_version"] == "1"
    assert decoded["n_countries"] == net.n

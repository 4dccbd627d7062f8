"""Prediction and sampling tests.

Point predictions are checked by recomputing the formulas directly from the
fitted coefficients and the design matrix.  Thresholding rules are checked
against brute-force scans.  Samplers are checked on their first two moments
with Monte Carlo error bounds and on exact reproducibility.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from gravnet.errors import (
    PredictionOverflowError,
    SchemaError,
    ValidationError,
)
from gravnet.estimation import FitResult, fit_logit, fit_ols, fit_poisson_pml, fit_zip
from gravnet.panel import DesignMatrix, build_cross_section, build_design_matrix, load_panel
from gravnet.prediction import (
    DEFAULT_REPLICATIONS,
    LinkProbabilityMatrix,
    PredictedWeights,
    density_induced_binary,
    link_probabilities,
    predict_ols,
    predict_ppml,
    predict_zip,
    sample_bernoulli_ensemble,
    sample_weighted_ensemble,
    threshold_by_manhattan,
    threshold_matching_density,
    zero_flow_probability,
)
from gravnet.synth import GENERATOR_COVARIATES, SynthSpec, write_synth_panel

COLUMNS = ("const", "x1", "x2")


def country_names(n):
    return tuple(f"C{k:02d}" for k in range(n))


def full_grid_rows(ids):
    return tuple((e, i) for e in ids for i in ids if e != i)


def grid_positions(ids):
    """Exporter and importer positions of the rows of ``full_grid_rows(ids)``."""
    index = {c: k for k, c in enumerate(ids)}
    rows = full_grid_rows(ids)
    return np.array([index[e] for e, _ in rows]), np.array([index[i] for _, i in rows])


def make_dm(ids, rows, X, y, columns=COLUMNS):
    """Design over the countries ``ids`` whose rows are the (exporter,
    importer) id pairs ``rows``."""
    index = {c: k for k, c in enumerate(ids)}
    return DesignMatrix(
        country_ids=tuple(ids),
        exporter=np.array([index[e] for e, _ in rows], dtype=np.intp),
        importer=np.array([index[i] for _, i in rows], dtype=np.intp),
        columns=tuple(columns),
        X=np.asarray(X, dtype=float),
        y=np.asarray(y, dtype=float),
    )


def simulate_grid(rng, n, theta, gamma):
    """Zero-inflated flows on a full ordered-pair grid."""
    ids = country_names(n)
    rows = full_grid_rows(ids)
    k = len(rows)
    X = np.column_stack([np.ones(k), rng.normal(size=k), rng.normal(size=k)])
    psi = expit(X @ np.asarray(theta))
    mu = np.exp(X @ np.asarray(gamma))
    y = np.where(rng.random(k) < psi, 0.0, rng.poisson(mu)).astype(float)
    return ids, make_dm(ids, rows, X, y)


def manual_fit(tag, coefficients, columns=COLUMNS, sigma2=None):
    """Assemble a FitResult without running an estimator."""
    p = len(coefficients)
    return FitResult(
        model_tag=tag,
        names=tuple(columns),
        coefficients=np.asarray(coefficients, dtype=float),
        vcov=np.zeros((p, p)),
        loglik=0.0,
        r2_or_pseudo=0.0,
        n_obs=0,
        converged=True,
        iterations=1,
        sigma2=sigma2,
    )


def fitted_zip(seed=3, n=7):
    rng = np.random.default_rng(seed)
    ids, dm = simulate_grid(rng, n, theta=(-0.5, 0.8, 0.0), gamma=(1.2, 0.5, -0.4))
    return ids, dm, fit_zip(dm)


# ---------------------------------------------------------------- OLS


def test_predict_ols_places_rows_on_mask():
    rng = np.random.default_rng(0)
    ids = country_names(4)
    rows = [(ids[0], ids[1]), (ids[1], ids[0]), (ids[2], ids[3]), (ids[0], ids[3]),
            (ids[3], ids[2]), (ids[1], ids[2])]
    X = np.column_stack([np.ones(6), rng.normal(size=6), rng.normal(size=6)])
    y = np.exp(rng.normal(size=6) + 2.0)
    dm = make_dm(ids, rows, X, y)
    fit = fit_ols(dm)
    pred = predict_ols(fit, dm)

    assert pred.model_tag == "OLS"
    assert pred.country_ids == ids
    eta = X @ fit.coefficients
    index = {c: k for k, c in enumerate(ids)}
    for (e, i), want in zip(rows, eta):
        assert pred.mask[index[e], index[i]] == 1
        assert pred.value[index[e], index[i]] == pytest.approx(want, abs=1e-12)
        assert pred.variance[index[e], index[i]] == pytest.approx(fit.sigma2, abs=0)
    assert pred.mask.sum() == len(rows)
    assert np.all(pred.value[pred.mask == 0] == 0.0)
    assert np.all(pred.variance[pred.mask == 0] == 0.0)


def test_predict_ols_embeds_into_given_country_order():
    rng = np.random.default_rng(1)
    ids = country_names(5)
    rows = [(ids[1], ids[3]), (ids[3], ids[1]), (ids[1], ids[4]), (ids[4], ids[3])]
    X = np.column_stack([np.ones(4), rng.normal(size=4), rng.normal(size=4)])
    y = np.exp(rng.normal(size=4))
    dm = make_dm(ids, rows, X, y)
    fit = fit_ols(dm)

    pred = predict_ols(fit, dm)
    assert pred.n == 5
    # country C00 trades with nobody here but still gets a row and column
    assert pred.mask[0].sum() == 0 and pred.mask[:, 0].sum() == 0


def test_design_positions_must_index_the_countries():
    ids = country_names(3)
    rows = full_grid_rows(ids)
    X = np.ones((6, 3))
    dm = make_dm(ids, rows, X, np.ones(6))
    assert [dm.dyad(k) for k in range(6)] == list(rows)
    with pytest.raises(SchemaError, match="exporter positions"):
        replace(dm, country_ids=ids[:2])
    with pytest.raises(SchemaError, match="importer positions"):
        replace(dm, importer=dm.importer[:-1])
    with pytest.raises(SchemaError, match="exporter positions"):
        replace(dm, exporter=-dm.exporter)
    with pytest.raises(SchemaError, match="importer positions"):
        replace(dm, importer=dm.importer.astype(float))


def test_predict_ols_rejects_zero_rows_and_foreign_fits():
    rng = np.random.default_rng(2)
    ids = country_names(3)
    rows = full_grid_rows(ids)
    X = np.column_stack([np.ones(6), rng.normal(size=6), rng.normal(size=6)])
    y = np.array([3.0, 0.0, 1.0, 2.0, 5.0, 4.0])
    dm = make_dm(ids, rows, X, y)
    positive = make_dm(ids, [r for r, f in zip(rows, y) if f > 0],
                       X[y > 0], y[y > 0])
    fit = fit_ols(positive)

    with pytest.raises(ValidationError):
        predict_ols(fit, dm)
    with pytest.raises(ValidationError):
        predict_ols(manual_fit("PPML", (0.0, 0.0, 0.0)), positive)
    with pytest.raises(SchemaError):
        predict_ols(manual_fit("OLS", (0.0, 0.0), columns=("const", "x1"), sigma2=1.0),
                    positive)


# ---------------------------------------------------------------- PPML


def test_predict_ppml_recomputes_levels():
    rng = np.random.default_rng(4)
    ids, dm = simulate_grid(rng, 6, theta=(-30.0, 0.0, 0.0), gamma=(1.0, 0.4, -0.3))
    fit = fit_poisson_pml(dm)
    pred = predict_ppml(fit, dm)

    assert pred.model_tag == "PPML"
    want = np.exp(dm.X @ fit.coefficients)
    index = {c: k for k, c in enumerate(ids)}
    got = np.array([pred.value[index[e], index[i]] for e, i in full_grid_rows(ids)])
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_array_equal(pred.variance, pred.value)
    assert np.all(np.diag(pred.mask) == 0)
    assert pred.mask.sum() == len(ids) * (len(ids) - 1)


def test_predict_ppml_overflow_names_first_dyad():
    rng = np.random.default_rng(5)
    ids, dm = simulate_grid(rng, 3, theta=(-2.0, 0.0, 0.0), gamma=(0.5, 0.1, 0.1))
    fit = manual_fit("PPML", (800.0, 0.0, 0.0))
    with pytest.raises(PredictionOverflowError) as err:
        predict_ppml(fit, dm)
    exporter, importer = full_grid_rows(ids)[0]
    assert exporter in str(err.value) and importer in str(err.value)


def test_predict_ppml_requires_full_grid():
    rng = np.random.default_rng(6)
    ids, dm = simulate_grid(rng, 4, theta=(0.0, 0.0, 0.0), gamma=(0.5, 0.2, 0.1))
    fit = manual_fit("PPML", (0.5, 0.0, 0.0))
    partial = make_dm(ids, full_grid_rows(ids)[:-1], dm.X[:-1], dm.y[:-1])
    with pytest.raises(ValidationError):
        predict_ppml(fit, partial)


# ---------------------------------------------------------------- ZIP


def test_predict_zip_mixture_mean_and_variance():
    ids, dm, zres = fitted_zip()
    pred = predict_zip(zres, dm)

    psi = expit(dm.X @ zres.logit_part.coefficients)
    mu = np.exp(dm.X @ zres.poisson_part.coefficients)
    src, dst = grid_positions(ids)
    np.testing.assert_allclose(pred.value[src, dst], (1 - psi) * mu, rtol=1e-12)
    np.testing.assert_allclose(
        pred.variance[src, dst], mu * (1 - psi) * (1 + mu * psi), rtol=1e-12
    )
    assert pred.model_tag == "ZIP"
    assert np.all(np.diag(pred.value) == 0.0)
    # mixture variance always exceeds the mean when extra zeros are present
    assert np.all(pred.variance[src, dst] >= pred.value[src, dst])


def test_predicted_arrays_are_read_only():
    ids, dm, zres = fitted_zip()
    pred = predict_zip(zres, dm)
    with pytest.raises(ValueError):
        pred.value[0, 1] = 99.0
    with pytest.raises(ValueError):
        pred.mask[0, 1] = 0


# ------------------------------------------------- link probabilities


def test_link_probabilities_complement_the_zero_stage():
    ids, dm, zres = fitted_zip()
    lp = link_probabilities(zres, dm)

    u = dm.X @ zres.logit_part.coefficients
    src, dst = grid_positions(ids)
    np.testing.assert_allclose(lp.xi[src, dst], 1.0 - expit(u), rtol=1e-12)
    assert np.all(np.diag(lp.xi) == 0.0)
    off = ~np.eye(lp.n, dtype=bool)
    assert np.all(lp.xi[off] > 0.0) and np.all(lp.xi[off] < 1.0)


def test_link_probabilities_accept_standalone_logit():
    ids, dm, _ = fitted_zip(seed=8)
    fit = fit_logit(dm)
    lp = link_probabilities(fit, dm)
    want = 1.0 - expit(dm.X @ fit.coefficients)
    index = {c: k for k, c in enumerate(ids)}
    got = np.array([lp.xi[index[e], index[i]] for e, i in full_grid_rows(ids)])
    np.testing.assert_allclose(got, want, rtol=1e-12)

    with pytest.raises(ValidationError):
        link_probabilities(manual_fit("PPML", (0.0, 0.0, 0.0)), dm)


def test_logit_link_probabilities_match_the_observed_links(tmp_path):
    # with an intercept, the logit score equation makes the fitted zero
    # probabilities average to the zero share, so the link probabilities
    # average to the observed density
    spec = SynthSpec(n_countries=30, years=(2000,), noise="zip", seed=3)
    paths = write_synth_panel(spec, str(tmp_path))
    panel = load_panel(paths["dyads"], paths["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, GENERATOR_COVARIATES)
    xi = link_probabilities(fit_logit(dm), dm).xi
    off = ~np.eye(cs.n, dtype=bool)
    observed = cs.adjacency[off].astype(float)
    assert 0.0 < observed.mean() < 1.0
    assert abs(xi[off].mean() - observed.mean()) < 1e-8
    assert np.corrcoef(xi[off], observed)[0, 1] > 0.0


# ------------------------------------------------- zero probabilities


def test_zero_flow_probability_forms():
    ids, dm, zres = fitted_zip(seed=9)
    psi = expit(dm.X @ zres.logit_part.coefficients)
    mu = np.exp(dm.X @ zres.poisson_part.coefficients)
    src, dst = grid_positions(ids)

    consistent = zero_flow_probability(zres, dm)
    np.testing.assert_allclose(
        consistent[src, dst], psi + (1 - psi) * np.exp(-mu), rtol=1e-12
    )
    assert np.all(consistent[src, dst] > 0.0)
    assert np.all(consistent[src, dst] < 1.0)

    printed = zero_flow_probability(zres, dm, form="printed")
    np.testing.assert_allclose(printed[src, dst], psi + (1 - psi) * mu, rtol=1e-12)
    # the printed variant is not a probability: large means push it past one
    assert printed.max() > 1.0

    with pytest.raises(ValidationError):
        zero_flow_probability(zres, dm, form="exact")


# ------------------------------------------------------- thresholding


def hand_lp():
    xi = np.array([
        [0.0, 0.9, 0.2],
        [0.5, 0.0, 0.7],
        [0.5, 0.1, 0.0],
    ])
    return LinkProbabilityMatrix(country_names(3), xi)


def test_density_induced_binary_is_strict():
    lp = hand_lp()
    out = density_induced_binary(lp, 0.5)
    want = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int8)
    np.testing.assert_array_equal(out.adjacency, want)
    assert out.threshold == 0.5
    assert out.realized_density == pytest.approx(2 / 6)

    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValidationError):
            density_induced_binary(lp, bad)


def test_density_induced_binary_monotone_in_threshold():
    ids, dm, zres = fitted_zip(seed=11, n=8)
    lp = link_probabilities(zres, dm)
    previous = None
    for rho in np.linspace(0.05, 0.95, 19):
        a = density_induced_binary(lp, float(rho)).adjacency
        if previous is not None:
            # raising the cutoff can only remove links
            assert np.all(a <= previous)
        previous = a


def test_threshold_matching_density_hits_target_count():
    ids, dm, zres = fitted_zip(seed=12, n=9)
    lp = link_probabilities(zres, dm)
    pairs = lp.n * (lp.n - 1)
    for rho in (0.0, 0.13, 0.5, 0.777, 1.0):
        out = threshold_matching_density(lp, rho)
        assert out.adjacency.sum() == round(rho * pairs)
        assert abs(out.realized_density - rho) <= 0.5 / pairs + 1e-12
        assert np.all(np.diag(out.adjacency) == 0)


def test_threshold_matching_density_prefers_high_probabilities():
    lp = hand_lp()
    out = threshold_matching_density(lp, 2 / 6)
    want = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int8)
    np.testing.assert_array_equal(out.adjacency, want)
    assert out.threshold == 0.7


def test_threshold_matching_density_breaks_ties_by_row_order():
    xi = np.full((3, 3), 0.4)
    np.fill_diagonal(xi, 0.0)
    lp = LinkProbabilityMatrix(country_names(3), xi)
    out = threshold_matching_density(lp, 0.5)
    # 3 links requested out of 6 equal candidates: first three in row-major order
    want = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=np.int8)
    np.testing.assert_array_equal(out.adjacency, want)


def test_threshold_by_manhattan_matches_bruteforce():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(3, 7))
        xi = rng.random((n, n))
        np.fill_diagonal(xi, 0.0)
        lp = LinkProbabilityMatrix(country_names(n), xi)
        observed = (rng.random((n, n)) < 0.4).astype(np.int8)
        np.fill_diagonal(observed, 0)

        out = threshold_by_manhattan(lp, observed)

        off = ~np.eye(n, dtype=bool)
        grid = np.unique(np.concatenate([np.linspace(0, 1, 2001), xi[off], [0.0]]))
        dists = []
        for s in grid:
            a = (xi > s).astype(np.int8)
            np.fill_diagonal(a, 0)
            dists.append(int(np.abs(a[off] - observed[off]).sum()))
        dists = np.array(dists)
        assert out.manhattan_distance == dists.min()
        # recomputed distance at the returned cutoff agrees with the field
        a_back = (xi > out.threshold).astype(np.int8)
        np.fill_diagonal(a_back, 0)
        assert int(np.abs(a_back[off] - observed[off]).sum()) == out.manhattan_distance
        # ties go to the smallest cutoff: no optimal grid point sits below it
        smaller = grid[(dists == dists.min()) & (grid < out.threshold - 1e-15)]
        assert smaller.size == 0


def test_threshold_by_manhattan_recovers_generating_adjacency():
    rng = np.random.default_rng(14)
    n = 6
    xi = rng.random((n, n))
    np.fill_diagonal(xi, 0.0)
    from gravnet.prediction import LinkProbabilityMatrix

    lp = LinkProbabilityMatrix(country_names(n), xi)
    observed = (xi > 0.5).astype(np.int8)
    out = threshold_by_manhattan(lp, observed)
    assert out.manhattan_distance == 0
    np.testing.assert_array_equal(out.adjacency, observed)
    with pytest.raises(ValidationError):
        threshold_by_manhattan(lp, observed[:-1, :-1])


# ------------------------------------------------------------ sampling


def counter_keyed_samplers():
    """Each sampler as ``draw(m, seed) -> NetworkEnsemble`` on small fits."""
    ids, dm, zres = fitted_zip(seed=15, n=5)
    lp = link_probabilities(zres, dm)
    zpred = predict_zip(zres, dm)
    ppml = predict_ppml(fit_poisson_pml(dm), dm)
    positive = dm.y > 0
    rows = [row for row, keep in zip(full_grid_rows(ids), positive) if keep]
    ols_dm = make_dm(ids, rows, dm.X[positive], dm.y[positive])
    ols = predict_ols(fit_ols(ols_dm), ols_dm)
    return {
        "BERNOULLI": lambda m, seed: sample_bernoulli_ensemble(lp, m=m, seed=seed),
        "OLS": lambda m, seed: sample_weighted_ensemble(ols, m=m, seed=seed),
        "PPML": lambda m, seed: sample_weighted_ensemble(ppml, m=m, seed=seed),
        "ZIP": lambda m, seed: sample_weighted_ensemble(zpred, m=m, seed=seed, link_probs=lp),
    }, (zpred, lp)


@pytest.mark.parametrize("tag", ["BERNOULLI", "OLS", "PPML", "ZIP"])
def test_ensemble_reproducible_and_counter_keyed(tag):
    samplers, _ = counter_keyed_samplers()
    sample = samplers[tag]

    e1 = sample(6, 42)
    e2 = sample(6, 42)
    assert e1.replications.tobytes() == e2.replications.tobytes()
    assert e1.seed == 42 and e1.model_tag == tag

    e3 = sample(6, 43)
    assert e1.replications.tobytes() != e3.replications.tobytes()

    # replication r depends only on (seed, r), not on the ensemble size
    e_small = sample(2, 42)
    np.testing.assert_array_equal(e_small.replications, e1.replications[:2])


def test_zip_replication_follows_the_documented_recipe():
    samplers, (zpred, lp) = counter_keyed_samplers()
    ens = samplers["ZIP"](6, 42)
    n = zpred.n
    off = ~np.eye(n, dtype=bool)
    mu = np.zeros((n, n))
    mu[off] = zpred.value[off] / lp.xi[off]
    for r in (0, 4):
        # uniforms for the link grid first, then the Poisson grid
        g = np.random.Generator(np.random.Philox(key=[42, r]))
        links = g.random((n, n)) < lp.xi
        counts = g.poisson(mu)
        want = np.where(links & off, counts, 0).astype(float)
        assert ens.replications[r].tobytes() == want.tobytes()


def test_bernoulli_ensemble_moments():
    ids, dm, zres = fitted_zip(seed=16, n=6)
    lp = link_probabilities(zres, dm)
    m = 4000
    ens = sample_bernoulli_ensemble(lp, m=m, seed=7)

    assert ens.replications.dtype == np.int8
    assert set(np.unique(ens.replications)) <= {0, 1}
    assert np.all(ens.replications[:, np.arange(6), np.arange(6)] == 0)

    freq = ens.replications.mean(axis=0)
    off = ~np.eye(6, dtype=bool)
    se = np.sqrt(lp.xi[off] * (1 - lp.xi[off]) / m)
    assert np.all(np.abs(freq[off] - lp.xi[off]) <= 3 * se + 1e-12)

    # realized density concentrates on the mean link probability
    pairs = off.sum()
    dens = ens.replications.reshape(m, -1).sum(axis=1) / pairs
    se_dens = np.sqrt((lp.xi[off] * (1 - lp.xi[off])).sum()) / pairs / np.sqrt(m)
    assert abs(dens.mean() - lp.xi[off].mean()) <= 3 * se_dens


def test_weighted_ensemble_ols_draws_on_mask_only():
    rng = np.random.default_rng(17)
    ids = country_names(4)
    rows = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0]), (ids[3], ids[1]),
            (ids[0], ids[2]), (ids[2], ids[3])]
    X = np.column_stack([np.ones(6), rng.normal(size=6), rng.normal(size=6)])
    y = np.exp(X @ np.array([2.0, 0.5, -0.5]) + rng.normal(scale=0.6, size=6))
    dm = make_dm(ids, rows, X, y)
    fit = fit_ols(dm)
    pred = predict_ols(fit, dm)

    m = 3000
    ens = sample_weighted_ensemble(pred, m=m, seed=5)
    assert ens.model_tag == "OLS"
    np.testing.assert_array_equal(ens.mask, pred.mask)
    onmask = pred.mask == 1
    assert np.all(ens.replications[:, ~onmask] == 0.0)

    sd = np.sqrt(fit.sigma2)
    means = ens.replications.mean(axis=0)
    assert np.all(np.abs(means[onmask] - pred.value[onmask]) <= 3 * sd / np.sqrt(m))
    sample_var = ens.replications[:, onmask].var(axis=0, ddof=1)
    # variance of a normal sample variance: 2 sigma^4 / (m - 1)
    bound = 3 * np.sqrt(2.0 / (m - 1)) * fit.sigma2
    assert np.all(np.abs(sample_var - fit.sigma2) <= bound)


def test_weighted_ensemble_ppml_moments():
    rng = np.random.default_rng(18)
    ids, dm = simulate_grid(rng, 5, theta=(-30.0, 0.0, 0.0), gamma=(1.1, 0.3, -0.2))
    fit = fit_poisson_pml(dm)
    pred = predict_ppml(fit, dm)

    m = 4000
    ens = sample_weighted_ensemble(pred, m=m, seed=9)
    assert ens.model_tag == "PPML"
    off = ~np.eye(5, dtype=bool)
    assert np.all(ens.replications[:, ~off] == 0.0)
    assert np.all(ens.replications >= 0.0)
    assert np.all(ens.replications == np.round(ens.replications))

    mu = pred.value[off]
    means = ens.replications.mean(axis=0)[off]
    assert np.all(np.abs(means - mu) <= 3 * np.sqrt(mu / m) + 1e-12)

    big = mu >= 1.0
    sample_var = ens.replications[:, off].var(axis=0, ddof=1)[big]
    # relative error of the Poisson variance estimate: sqrt((2 + 1/mu) / m)
    rel = 3 * np.sqrt((2.0 + 1.0 / mu[big]) / m)
    assert np.all(np.abs(sample_var / mu[big] - 1.0) <= rel)


def test_weighted_ensemble_zip_moments():
    rng = np.random.default_rng(19)
    # intercepts keep every count mean comfortably above one, where the
    # 5% variance tolerance leaves real Monte-Carlo headroom
    ids, dm = simulate_grid(rng, 6, theta=(-1.0, 0.4, 0.0), gamma=(1.8, 0.4, -0.3))
    zres = fit_zip(dm)
    pred = predict_zip(zres, dm)
    lp = link_probabilities(zres, dm)

    m = DEFAULT_REPLICATIONS
    ens = sample_weighted_ensemble(pred, m=m, seed=11, link_probs=lp)
    assert ens.model_tag == "ZIP"
    off = ~np.eye(6, dtype=bool)

    means = ens.replications.mean(axis=0)[off]
    se = np.sqrt(pred.variance[off] / m)
    assert np.all(np.abs(means - pred.value[off]) <= 3 * se)

    # headline calibration: sampled variance within 5% where the count
    # stage predicts at least one unit of trade
    mu = pred.value[off] / lp.xi[off]
    big = mu >= 1.0
    sample_var = ens.replications[:, off].var(axis=0, ddof=1)[big]
    assert np.all(np.abs(sample_var / pred.variance[off][big] - 1.0) <= 0.05)

    # zero fraction matches the mixture's zero mass
    zero_mass = zero_flow_probability(zres, dm)[off]
    zero_freq = (ens.replications == 0.0).mean(axis=0)[off]
    se0 = np.sqrt(zero_mass * (1 - zero_mass) / m)
    assert np.all(np.abs(zero_freq - zero_mass) <= 3 * se0 + 1e-12)


def test_weighted_ensemble_zip_requires_link_probabilities():
    ids, dm, zres = fitted_zip(seed=20, n=5)
    pred = predict_zip(zres, dm)
    with pytest.raises(ValidationError):
        sample_weighted_ensemble(pred, m=2, seed=0)
    lp = link_probabilities(zres, dm)
    other = LinkProbabilityMatrix(("V", "W", "X", "Y", "Z"), np.asarray(lp.xi))
    with pytest.raises(ValidationError):
        sample_weighted_ensemble(pred, m=2, seed=0, link_probs=other)


def test_sampling_argument_validation():
    ids, dm, zres = fitted_zip(seed=21, n=5)
    lp = link_probabilities(zres, dm)
    with pytest.raises(ValidationError):
        sample_bernoulli_ensemble(lp, m=0, seed=0)
    with pytest.raises(ValidationError):
        sample_bernoulli_ensemble(lp, m=5, seed=-1)

    pred = predict_zip(zres, dm)
    bogus = PredictedWeights(
        "GRAVITY", pred.country_ids, np.asarray(pred.value),
        np.asarray(pred.variance), np.asarray(pred.mask),
    )
    with pytest.raises(ValidationError):
        sample_weighted_ensemble(bogus, m=2, seed=0)

    ens = sample_bernoulli_ensemble(lp, m=2, seed=0)
    with pytest.raises(ValueError):
        ens.replications[0, 0, 1] = 1

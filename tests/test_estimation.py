import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from gravnet.errors import (
    ConvergenceError,
    DegenerateComparisonError,
    SeparationError,
    SingularDesignError,
    ValidationError,
)
from gravnet.estimation import (
    FitResult,
    ZipFitResult,
    _zip_em,
    _zip_information,
    _zip_loglik,
    _zip_row_loglik,
    attach_vuong,
    fit_logit,
    fit_ols,
    fit_poisson_pml,
    fit_zip,
    vuong_test,
)
from gravnet.panel import DesignMatrix

import oracles


def make_dm(X, y, columns):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    # row k is the dyad E{k} -> I{k}
    k = len(y)
    ids = tuple(f"E{r}" for r in range(k)) + tuple(f"I{r}" for r in range(k))
    return DesignMatrix(
        country_ids=ids, exporter=np.arange(k), importer=np.arange(k, 2 * k),
        columns=tuple(columns), X=X, y=y,
    )


def with_const(x):
    x = np.asarray(x, dtype=float)
    return np.column_stack([np.ones(len(x)), x])


def grid_maximize(fun, center, half_width, rounds=5, points=21):
    """Iteratively refined dense grid search; final resolution is
    half_width * (2/(points-1))**rounds per axis."""
    best = list(center)
    width = float(half_width)
    best_val = -math.inf
    for _ in range(rounds):
        axes = [np.linspace(b - width, b + width, points) for b in best]
        for combo in itertools.product(*axes):
            val = fun(combo)
            if val > best_val:
                best_val = val
                best = list(combo)
        width *= 2.0 / (points - 1)
    return np.array(best), best_val


# ---------------------------------------------------------------- OLS


def test_ols_exact_fit():
    x = np.array([0.0, 1.0, 2.0])
    dm = make_dm(with_const(x), np.exp(x), ("const", "x"))
    fit = fit_ols(dm)
    assert fit.model_tag == "OLS"
    np.testing.assert_allclose(fit.coefficients, [0.0, 1.0], atol=1e-12)
    assert fit.sigma2 == pytest.approx(0.0, abs=1e-24)
    assert fit.r2_or_pseudo == pytest.approx(1.0)
    assert fit.loglik == math.inf
    assert np.all(fit.vcov == 0.0)


def test_ols_known_line_with_noise():
    rng = np.random.default_rng(303)
    n = 200
    x = rng.uniform(-2.0, 2.0, n)
    gamma = np.array([1.5, -0.8])
    ln_w = with_const(x) @ gamma + rng.normal(0.0, 0.5, n)
    dm = make_dm(with_const(x), np.exp(ln_w), ("const", "x"))
    fit = fit_ols(dm)

    assert np.all(np.abs(fit.coefficients - gamma) < 3.0 * fit.std_errors)
    residuals = np.log(dm.y) - dm.X @ fit.coefficients
    assert np.max(np.abs(dm.X.T @ residuals)) < 1e-10

    n_obs, p = dm.X.shape
    ssr = float(residuals @ residuals)
    assert fit.sigma2 == pytest.approx(ssr / (n_obs - p), rel=1e-12)
    np.testing.assert_allclose(
        fit.vcov, fit.sigma2 * np.linalg.inv(dm.X.T @ dm.X), rtol=1e-10
    )
    assert np.min(np.linalg.eigvalsh(fit.vcov)) > -1e-12
    assert 0.0 < fit.r2_or_pseudo < 1.0


def test_ols_rank_deficiency_names_columns():
    x = np.linspace(0.0, 1.0, 10)
    X = np.column_stack([np.ones(10), x, 2.0 * x])
    dm = make_dm(X, np.exp(x), ("const", "x", "x_doubled"))
    with pytest.raises(SingularDesignError) as info:
        fit_ols(dm)
    assert info.value.columns
    assert set(info.value.columns) <= {"x", "x_doubled"}


def test_ols_requires_spare_row():
    X = with_const([0.0, 1.0])
    dm = make_dm(X, [1.0, 2.0], ("const", "x"))
    with pytest.raises(ValidationError):
        fit_ols(dm)


def test_ols_shift_invariance():
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 3.0, 50)
    flows = np.exp(0.5 + 0.9 * x + rng.normal(0.0, 0.3, 50))
    base = fit_ols(make_dm(with_const(x), flows, ("const", "x")))
    shifted = fit_ols(make_dm(with_const(x + 5.0), flows, ("const", "x")))
    np.testing.assert_allclose(
        shifted.coefficients[1], base.coefficients[1], rtol=1e-10
    )
    pred_base = with_const(x) @ base.coefficients
    pred_shift = with_const(x + 5.0) @ shifted.coefficients
    np.testing.assert_allclose(pred_shift, pred_base, atol=1e-10)


# ---------------------------------------------------------------- Poisson


def test_poisson_intercept_only_mean():
    X = np.ones((3, 1))
    dm = make_dm(X, [1.0, 2.0, 3.0], ("const",))
    fit = fit_poisson_pml(dm)
    assert fit.coefficients[0] == pytest.approx(math.log(2.0), abs=1e-10)
    assert fit.vcov[0, 0] == pytest.approx(1.0 / 6.0, rel=1e-8)
    assert fit.converged


def test_poisson_matches_grid_search():
    rng = np.random.default_rng(71)
    n = 20
    x = rng.uniform(-1.0, 1.0, n)
    truth = np.array([0.5, 0.8])
    y = rng.poisson(np.exp(with_const(x) @ truth)).astype(float)
    dm = make_dm(with_const(x), y, ("const", "x"))
    fit = fit_poisson_pml(dm)

    def objective(beta):
        mu = [math.exp(beta[0] + beta[1] * xi) for xi in x]
        return oracles.loop_poisson_loglik(y, mu)

    best, best_val = grid_maximize(objective, [0.0, 0.0], 2.0)
    assert np.max(np.abs(fit.coefficients - best)) < 1e-4
    assert fit.loglik >= best_val - 1e-8


def test_poisson_score_equations_hold():
    rng = np.random.default_rng(72)
    n = 150
    X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)])
    y = rng.poisson(np.exp(X @ np.array([0.3, 0.7, -0.4]))).astype(float)
    fit = fit_poisson_pml(make_dm(X, y, ("const", "x1", "x2")))
    mu = np.exp(X @ fit.coefficients)
    assert np.max(np.abs(X.T @ (y - mu))) < 1e-6


def test_poisson_real_valued_response():
    rng = np.random.default_rng(73)
    n = 100
    x = rng.uniform(-1, 1, n)
    y = np.exp(with_const(x) @ np.array([0.2, 0.5])) * rng.uniform(0.5, 1.5, n)
    fit = fit_poisson_pml(make_dm(with_const(x), y, ("const", "x")))
    assert fit.converged
    mu = np.exp(with_const(x) @ fit.coefficients)
    assert np.max(np.abs(with_const(x).T @ (y - mu))) < 1e-6


def test_poisson_all_zero_response_fails():
    X = np.ones((5, 1))
    dm = make_dm(X, np.zeros(5), ("const",))
    with pytest.raises(ConvergenceError) as info:
        fit_poisson_pml(dm)
    assert info.value.last_coefficients is not None


def test_poisson_rejects_negative_response():
    dm = make_dm(np.ones((4, 1)), [1.0, -0.5, 2.0, 1.0], ("const",))
    with pytest.raises(ValidationError):
        fit_poisson_pml(dm)


def test_poisson_vcov_matches_numeric_hessian():
    rng = np.random.default_rng(74)
    n = 60
    x = rng.uniform(-1, 1, n)
    y = rng.poisson(np.exp(0.4 + 0.9 * x)).astype(float)
    dm = make_dm(with_const(x), y, ("const", "x"))
    fit = fit_poisson_pml(dm)

    def loglik(beta):
        mu = [math.exp(beta[0] + beta[1] * xi) for xi in x]
        return oracles.loop_poisson_loglik(y, mu)

    h = np.array(oracles.numeric_hessian(loglik, list(fit.coefficients)))
    np.testing.assert_allclose(fit.vcov, np.linalg.inv(-h), rtol=1e-4)


def test_poisson_pseudo_r2_matches_loop_oracle():
    rng = np.random.default_rng(76)
    n = 120
    x = rng.uniform(-1, 1, n)
    y = rng.poisson(np.exp(0.5 + 0.8 * x)).astype(float)
    fit = fit_poisson_pml(make_dm(with_const(x), y, ("const", "x")))
    mu = np.exp(with_const(x) @ fit.coefficients)
    assert fit.loglik == pytest.approx(oracles.loop_poisson_loglik(y, mu), rel=1e-12)
    # McFadden: against the intercept-only model, whose mean is ybar
    null = oracles.loop_poisson_loglik(y, [y.mean()] * n)
    assert fit.r2_or_pseudo == pytest.approx(1.0 - fit.loglik / null, rel=1e-12)


def test_poisson_shift_invariance():
    rng = np.random.default_rng(75)
    x = rng.uniform(0, 2, 80)
    y = rng.poisson(np.exp(0.1 + 0.6 * x)).astype(float)
    base = fit_poisson_pml(make_dm(with_const(x), y, ("const", "x")))
    shifted = fit_poisson_pml(make_dm(with_const(x + 3.0), y, ("const", "x")))
    mu_base = np.exp(with_const(x) @ base.coefficients)
    mu_shift = np.exp(with_const(x + 3.0) @ shifted.coefficients)
    np.testing.assert_allclose(mu_shift, mu_base, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------- Logit
# The logit models the zero flows, so a test that wants the indicator ``a``
# fitted passes the flows ``1 - a``.


def test_logit_intercept_only():
    X = np.ones((20, 1))
    a = np.zeros(20)
    a[:5] = 1.0
    dm = make_dm(X, 1 - a, ("const",))
    fit = fit_logit(dm)
    assert fit.coefficients[0] == pytest.approx(math.log(1.0 / 3.0), abs=1e-8)
    assert fit.model_tag == "LOGIT"


def test_logit_matches_grid_search():
    rng = np.random.default_rng(81)
    n = 20
    x = rng.uniform(-1.5, 1.5, n)
    a = (rng.random(n) < expit(-0.3 + 1.2 * x)).astype(float)
    assert 0 < a.sum() < n
    dm = make_dm(with_const(x), 1 - a, ("const", "x"))
    fit = fit_logit(dm)

    def objective(theta):
        p = [1.0 / (1.0 + math.exp(-(theta[0] + theta[1] * xi))) for xi in x]
        return oracles.loop_logit_loglik(a, p)

    best, best_val = grid_maximize(objective, [0.0, 0.0], 3.0)
    assert np.max(np.abs(fit.coefficients - best)) < 1e-4
    assert fit.loglik >= best_val - 1e-8


def test_logit_score_equations_hold():
    rng = np.random.default_rng(82)
    n = 200
    X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
    a = (rng.random(n) < expit(X @ np.array([0.2, -0.9]))).astype(float)
    fit = fit_logit(make_dm(X, 1 - a, ("const", "x")))
    prob = expit(X @ fit.coefficients)
    assert np.max(np.abs(X.T @ (a - prob))) < 1e-6


def test_logit_perfect_separation():
    x = np.array([-2.0, -1.0, 1.0, 2.0])
    a = (x > 0).astype(float)
    dm = make_dm(with_const(x), 1 - a, ("const", "x"))
    with pytest.raises(SeparationError):
        fit_logit(dm)


def test_logit_requires_both_classes():
    dm = make_dm(np.ones((6, 1)), np.ones(6), ("const",))
    with pytest.raises(ValidationError):
        fit_logit(dm)
    dm_zero = make_dm(np.ones((6, 1)), np.zeros(6), ("const",))
    with pytest.raises(ValidationError):
        fit_logit(dm_zero)


def test_logit_rejects_negative_flow():
    dm = make_dm(np.ones((4, 1)), [1.0, -0.5, 0.0, 1.0], ("const",))
    with pytest.raises(ValidationError, match="non-negative"):
        fit_logit(dm)


def test_logit_vcov_matches_numeric_hessian():
    rng = np.random.default_rng(83)
    n = 80
    x = rng.uniform(-2, 2, n)
    a = (rng.random(n) < expit(0.3 + 0.8 * x)).astype(float)
    dm = make_dm(with_const(x), 1 - a, ("const", "x"))
    fit = fit_logit(dm)

    def loglik(theta):
        p = [1.0 / (1.0 + math.exp(-(theta[0] + theta[1] * xi))) for xi in x]
        return oracles.loop_logit_loglik(a, p)

    h = np.array(oracles.numeric_hessian(loglik, list(fit.coefficients)))
    np.testing.assert_allclose(fit.vcov, np.linalg.inv(-h), rtol=1e-4)


def test_logit_pseudo_r2_matches_loop_oracle():
    rng = np.random.default_rng(84)
    n = 150
    x = rng.uniform(-2, 2, n)
    a = (rng.random(n) < expit(-0.4 + 0.9 * x)).astype(float)
    fit = fit_logit(make_dm(with_const(x), 1 - a, ("const", "x")))
    p = expit(with_const(x) @ fit.coefficients)
    assert fit.loglik == pytest.approx(oracles.loop_logit_loglik(a, p), rel=1e-12)
    # McFadden: against the intercept-only model, whose probability is the share
    null = oracles.loop_logit_loglik(a, [a.mean()] * n)
    assert fit.r2_or_pseudo == pytest.approx(1.0 - fit.loglik / null, rel=1e-12)


# ---------------------------------------------------------------- ZIP


def simulate_zip(rng, n, theta, gamma, x=None):
    x = rng.uniform(-1.0, 1.0, n) if x is None else x
    X = with_const(x)
    psi = expit(X @ np.asarray(theta))
    mu = np.exp(X @ np.asarray(gamma))
    structural = rng.random(n) < psi
    y = np.where(structural, 0.0, rng.poisson(mu)).astype(float)
    return X, y


def test_zip_recovers_simulation_truth():
    rng = np.random.default_rng(91)
    theta = np.array([-0.4, 0.9])
    gamma = np.array([1.1, 0.8])
    X, y = simulate_zip(rng, 5000, theta, gamma)
    dm = make_dm(X, y, ("const", "x"))
    fit = fit_zip(dm)
    assert fit.converged
    assert np.all(
        np.abs(fit.logit_part.coefficients - theta)
        < 3.0 * fit.logit_part.std_errors
    )
    assert np.all(
        np.abs(fit.poisson_part.coefficients - gamma)
        < 3.0 * fit.poisson_part.std_errors
    )


def test_zip_em_trace_is_monotone():
    rng = np.random.default_rng(92)
    X, y = simulate_zip(rng, 600, [-0.2, 0.7], [0.9, 0.6])
    theta0 = np.zeros(2)
    gamma0 = np.linalg.solve(X.T @ X, X.T @ np.log1p(y))
    _, _, trace, converged = _zip_em(X, y, theta0, gamma0)
    assert converged
    diffs = np.diff(np.array(trace))
    assert np.all(diffs >= -1e-8 * (1.0 + np.abs(np.array(trace[:-1]))))


def test_zip_on_pure_poisson_data_nests():
    rng = np.random.default_rng(93)
    n = 400
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.poisson(np.exp(0.2 + 0.6 * x)).astype(float)
    assert (y == 0).any() and (y > 0).any()
    dm = make_dm(with_const(x), y, ("const", "x"))
    zip_fit = fit_zip(dm)
    pois_fit = fit_poisson_pml(dm)
    np.testing.assert_allclose(
        zip_fit.poisson_part.coefficients, pois_fit.coefficients, atol=1e-3
    )
    assert zip_fit.logit_part.coefficients[0] < -3.0

    # Likelihood-level nesting: psi pinned to ~0 reproduces the Poisson fit
    u = np.full(n, -40.0)
    v = with_const(x) @ pois_fit.coefficients
    assert _zip_loglik(y, u, v) == pytest.approx(pois_fit.loglik, abs=1e-6)


def test_zip_loglik_matches_direct_maximizer():
    rng = np.random.default_rng(94)
    X, y = simulate_zip(rng, 150, [-0.3, 0.8], [0.8, 0.5])
    dm = make_dm(X, y, ("const", "x"))
    fit = fit_zip(dm)
    packed = np.concatenate(
        [fit.logit_part.coefficients, fit.poisson_part.coefficients]
    )

    def negative_loglik(params):
        theta, gamma = params[:2], params[2:]
        psi = [1.0 / (1.0 + math.exp(-(theta[0] + theta[1] * xi)))
               for xi in X[:, 1]]
        mu = [math.exp(gamma[0] + gamma[1] * xi) for xi in X[:, 1]]
        return -oracles.loop_zip_loglik(y, psi, mu)

    best = -math.inf
    for shift in (0.0, 0.2, -0.2):
        res = minimize(
            negative_loglik, packed + shift, method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 20000,
                     "maxfev": 20000},
        )
        best = max(best, -res.fun)
    assert fit.loglik == pytest.approx(best, abs=1e-6)
    assert fit.loglik >= best - 1e-6


def test_zip_information_matches_numeric_hessian():
    rng = np.random.default_rng(95)
    X, y = simulate_zip(rng, 60, [-0.2, 0.6], [0.7, 0.4])
    dm = make_dm(X, y, ("const", "x"))
    fit = fit_zip(dm)
    theta = fit.logit_part.coefficients
    gamma = fit.poisson_part.coefficients

    def loglik(params):
        th, ga = params[:2], params[2:]
        psi = [1.0 / (1.0 + math.exp(-(th[0] + th[1] * xi))) for xi in X[:, 1]]
        mu = [math.exp(ga[0] + ga[1] * xi) for xi in X[:, 1]]
        return oracles.loop_zip_loglik(y, psi, mu)

    packed = list(np.concatenate([theta, gamma]))
    # step large enough to beat cancellation in the double differences
    h_num = np.array(oracles.numeric_hessian(loglik, packed, step=1e-4))
    info = _zip_information(X, y, theta, gamma)
    np.testing.assert_allclose(info, -h_num, rtol=1e-3, atol=1e-5)

    vcov_joint = np.linalg.inv(info)
    np.testing.assert_allclose(fit.logit_part.vcov, vcov_joint[:2, :2],
                               rtol=1e-10)
    np.testing.assert_allclose(fit.poisson_part.vcov, vcov_joint[2:, 2:],
                               rtol=1e-10)
    assert np.min(np.linalg.eigvalsh(vcov_joint)) > 0.0


def test_zip_row_loglik_matches_loop_oracle_row_by_row():
    rng = np.random.default_rng(97)
    n = 300
    u = rng.normal(0.0, 1.5, n)
    v = rng.normal(1.0, 1.0, n)
    y = np.where(rng.random(n) < expit(u), 0.0, rng.poisson(np.exp(v))).astype(float)
    assert (y == 0).any() and (y > 0).any()
    rows = _zip_row_loglik(y, u, v)
    want = [oracles.loop_zip_loglik([yi], [expit(ui)], [math.exp(vi)])
            for yi, ui, vi in zip(y, u, v)]
    np.testing.assert_allclose(rows, want, rtol=1e-12, atol=0.0)


def test_zip_requires_mixed_responses():
    dm_pos = make_dm(np.ones((6, 1)), np.arange(1.0, 7.0), ("const",))
    with pytest.raises(ValidationError):
        fit_zip(dm_pos)
    dm_zero = make_dm(np.ones((6, 1)), np.zeros(6), ("const",))
    with pytest.raises(ValidationError):
        fit_zip(dm_zero)


def test_zip_pseudo_r2_between_zero_and_one():
    rng = np.random.default_rng(96)
    X, y = simulate_zip(rng, 800, [-0.5, 1.0], [1.0, 0.7])
    fit = fit_zip(make_dm(X, y, ("const", "x")))
    assert 0.0 < fit.logit_part.r2_or_pseudo < 1.0
    assert fit.logit_part.r2_or_pseudo == fit.poisson_part.r2_or_pseudo


# ---------------------------------------------------------------- Vuong


def test_vuong_degenerate_on_constant_difference():
    rng = np.random.default_rng(101)
    x = rng.uniform(-1, 1, 30)
    y = rng.poisson(np.exp(0.5 + 0.5 * x)).astype(float) + 1.0  # all positive
    dm = make_dm(with_const(x), y, ("const", "x"))
    pois = fit_poisson_pml(dm)
    # u = -750 drives ln(1 - psi) to exactly 0.0, so with the same Poisson
    # coefficients every per-row likelihood is bitwise identical
    part = FitResult(
        model_tag="ZIP_LOGIT", names=pois.names,
        coefficients=np.array([-750.0, 0.0]), vcov=np.eye(2), loglik=0.0,
        r2_or_pseudo=0.0, n_obs=pois.n_obs, converged=True, iterations=1,
    )
    zip_like = ZipFitResult(
        logit_part=part, poisson_part=pois, loglik=float(pois.loglik),
    )
    with pytest.raises(DegenerateComparisonError):
        vuong_test(zip_like, pois, dm)


def test_vuong_favors_zip_under_heavy_inflation():
    rng = np.random.default_rng(102)
    X, y = simulate_zip(rng, 2000, [0.6, 0.5], [1.4, 0.6])
    dm = make_dm(X, y, ("const", "x"))
    zip_fit = fit_zip(dm)
    pois_fit = fit_poisson_pml(dm)
    result = vuong_test(zip_fit, pois_fit, dm)
    assert result.statistic > 3.0
    assert result.p_value < 0.01
    updated = attach_vuong(zip_fit, pois_fit, dm)
    assert updated.vuong_vs_poisson == pytest.approx(result.statistic)
    assert updated.as_dict()["vuong_vs_poisson"] == pytest.approx(result.statistic)


def test_vuong_statistic_matches_loop_oracles():
    rng = np.random.default_rng(105)
    X, y = simulate_zip(rng, 400, [0.3, 0.8], [1.0, 0.5])
    dm = make_dm(X, y, ("const", "x"))
    zip_fit = fit_zip(dm)
    pois_fit = fit_poisson_pml(dm)
    psi = expit(X @ zip_fit.logit_part.coefficients)
    mu_zip = np.exp(X @ zip_fit.poisson_part.coefficients)
    mu_pois = np.exp(X @ pois_fit.coefficients)
    # per-row log-likelihood differences, each row through the loop oracles
    m = np.array([
        oracles.loop_zip_loglik([yi], [pi], [mi]) - oracles.loop_poisson_loglik([yi], [qi])
        for yi, pi, mi, qi in zip(y, psi, mu_zip, mu_pois)
    ])
    expected = math.sqrt(len(m)) * m.mean() / m.std()
    result = vuong_test(zip_fit, pois_fit, dm)
    assert result.n_obs == len(y)
    assert result.statistic == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_vuong_checks_matching_design():
    rng = np.random.default_rng(103)
    X, y = simulate_zip(rng, 200, [-0.2, 0.5], [0.8, 0.4])
    dm = make_dm(X, y, ("const", "x"))
    zip_fit = fit_zip(dm)
    pois_fit = fit_poisson_pml(dm)
    other = make_dm(X[:100], y[:100], ("const", "x"))
    with pytest.raises(ValidationError):
        vuong_test(zip_fit, pois_fit, other)


@pytest.mark.slow
def test_vuong_size_under_poisson_truth():
    rng = np.random.default_rng(104)
    accept = 0
    sims = 100
    for _ in range(sims):
        n = 400
        x = rng.uniform(-1.0, 1.0, n)
        y = rng.poisson(np.exp(0.4 + 0.7 * x)).astype(float)
        if not (y == 0).any() or not (y > 0).any():
            continue
        dm = make_dm(with_const(x), y, ("const", "x"))
        try:
            zip_fit = fit_zip(dm)
            pois_fit = fit_poisson_pml(dm)
            result = vuong_test(zip_fit, pois_fit, dm)
        except ConvergenceError:
            continue
        if result.p_value > 0.05:
            accept += 1
    assert accept >= 0.9 * sims


# ---------------------------------------------------------------- plumbing


def test_fit_result_accessors_and_serialization():
    rng = np.random.default_rng(111)
    x = rng.uniform(-1, 1, 50)
    flows = np.exp(0.5 + 0.4 * x + rng.normal(0, 0.2, 50))
    fit = fit_ols(make_dm(with_const(x), flows, ("const", "x")))
    assert fit.coefficient("x") == pytest.approx(fit.coefficients[1])
    with pytest.raises(ValidationError):
        fit.coefficient("nope")
    payload = fit.as_dict()
    assert payload["model"] == "OLS"
    assert [c["name"] for c in payload["coefficients"]] == ["const", "x"]
    assert "sigma2" in payload["diagnostics"]

    y = rng.poisson(np.exp(0.2 + 0.5 * x)).astype(float)
    pois = fit_poisson_pml(make_dm(with_const(x), y, ("const", "x")))
    assert "sigma2" not in pois.as_dict()["diagnostics"]

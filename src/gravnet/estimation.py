"""Regression estimators for dyadic trade flows.

Four models share one design-matrix convention: OLS on logged positive
flows, Poisson pseudo-maximum-likelihood on levels (real-valued responses
allowed), a logit for the zero flows, and a zero-inflated Poisson fitted
by EM with a logit zero stage and a Poisson count stage on the same
regressors.

All iterative fits run IRLS inner loops, converge on relative
log-likelihood change, and report classical inverse-Fisher covariance
matrices.  The ZIP covariance comes from the observed information of the
mixture likelihood, not from the two M-step solvers, so the reported
standard errors account for the latent zero labels being estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateComparisonError,
    SeparationError,
    SingularDesignError,
    ValidationError,
)

#: IRLS stops when the relative log-likelihood change drops below this.
IRLS_TOL = 1e-10
MAX_IRLS_ITERATIONS = 100

#: EM stops on relative log-likelihood change; looser than IRLS because each
#: EM step already contains full inner maximizations.
EM_TOL = 1e-8
MAX_EM_ITERATIONS = 500

#: Largest |linear predictor| an iterate may reach: exp() overflows IEEE
#: doubles just above 709.  Beyond it a fit is treated as diverging
#: (separation in the logit); a bound on X @ beta, unlike one on the
#: coefficients, does not depend on the units of the regressors.
MAX_LINEAR_PREDICTOR = 700.0

#: IRLS also requires the last step to be this small (relative to the
#: coefficient norm). Guards against boundary drift: with a degenerate
#: response the likelihood change goes quiet while the iterates still move
#: by a constant amount per step toward an unattained supremum.
STEP_TOL = 1e-6

#: Step-halving budget per IRLS iteration; 2^-30 of a Newton step is as
#: good as stuck, so further halving cannot rescue the iteration.
MAX_STEP_HALVINGS = 30


@dataclass(frozen=True)
class FitResult:
    """One fitted model: named coefficients plus standard diagnostics.

    ``sigma2`` is the degrees-of-freedom-corrected residual variance and is
    present only for OLS; ``r2_or_pseudo`` is the classical R² for OLS and
    McFadden's pseudo-R² (against the intercept-only null) otherwise.
    """

    model_tag: str
    names: tuple
    coefficients: np.ndarray
    vcov: np.ndarray
    loglik: float
    r2_or_pseudo: float
    n_obs: int
    converged: bool
    iterations: int
    sigma2: float = None

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.vcov))

    def coefficient(self, name: str) -> float:
        if name not in self.names:
            raise ValidationError(f"no coefficient named {name!r}")
        return float(self.coefficients[self.names.index(name)])

    def as_dict(self) -> dict:
        table = [
            {"name": n, "estimate": float(b), "std_error": float(s)}
            for n, b, s in zip(self.names, self.coefficients, self.std_errors)
        ]
        diagnostics = {
            "n_obs": self.n_obs,
            "loglik": self.loglik,
            "r2_or_pseudo": self.r2_or_pseudo,
            "converged": self.converged,
            "iterations": self.iterations,
        }
        if self.sigma2 is not None:
            diagnostics["sigma2"] = self.sigma2
        return {
            "model": self.model_tag,
            "coefficients": table,
            "diagnostics": diagnostics,
            "vcov": self.vcov.tolist(),
        }


@dataclass(frozen=True)
class ZipFitResult:
    """Zero-inflated Poisson fit: a logit zero stage and a Poisson stage.

    Both parts are reported as FitResults sharing the regressor names; their
    vcov blocks are the respective diagonal blocks of the joint
    observed-information inverse.  ``vuong_vs_poisson`` is filled by
    :func:`vuong_test` when the comparison is requested.
    """

    logit_part: FitResult
    poisson_part: FitResult
    loglik: float
    vuong_vs_poisson: float = None

    @property
    def n_obs(self) -> int:
        return self.poisson_part.n_obs

    @property
    def converged(self) -> bool:
        return self.poisson_part.converged

    @property
    def iterations(self) -> int:
        return self.poisson_part.iterations

    def as_dict(self) -> dict:
        out = {
            "model": "ZIP",
            "logit_part": self.logit_part.as_dict(),
            "poisson_part": self.poisson_part.as_dict(),
            "loglik": self.loglik,
        }
        if self.vuong_vs_poisson is not None:
            out["vuong_vs_poisson"] = self.vuong_vs_poisson
        return out


def fit_from_dict(payload: dict) -> FitResult | ZipFitResult:
    """The fit whose ``as_dict()`` is ``payload``; keys it does not write are ignored."""
    if payload["model"] == "ZIP":
        return ZipFitResult(
            logit_part=fit_from_dict(payload["logit_part"]),
            poisson_part=fit_from_dict(payload["poisson_part"]),
            loglik=payload["loglik"],
            vuong_vs_poisson=payload.get("vuong_vs_poisson"),
        )
    diagnostics = payload["diagnostics"]
    return FitResult(
        model_tag=payload["model"],
        names=tuple(row["name"] for row in payload["coefficients"]),
        coefficients=np.array([row["estimate"] for row in payload["coefficients"]]),
        vcov=np.array(payload["vcov"]),
        loglik=diagnostics["loglik"],
        r2_or_pseudo=diagnostics["r2_or_pseudo"],
        n_obs=diagnostics["n_obs"],
        converged=diagnostics["converged"],
        iterations=diagnostics["iterations"],
        sigma2=diagnostics.get("sigma2"),
    )


@dataclass(frozen=True)
class VuongResult:
    statistic: float
    p_value: float
    n_obs: int


def _check_design(X: np.ndarray, names, min_rows: int = None) -> None:
    from scipy.linalg import qr

    n, p = X.shape
    if len(names) != p:
        raise ValidationError(f"{len(names)} names for {p} columns")
    required = p if min_rows is None else min_rows
    if n < required:
        raise ValidationError(f"{n} rows are too few for {p} regressors")
    if not np.isfinite(X).all():
        raise ValidationError("design matrix contains non-finite entries")
    _, r, pivot = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size and diag[0] > 0.0:
        rank = int((diag > diag[0] * max(X.shape) * np.finfo(float).eps).sum())
    else:
        rank = 0
    if rank < p:
        collinear = sorted(names[i] for i in pivot[rank:])
        raise SingularDesignError(
            f"design matrix is rank deficient; collinear column(s): {collinear}",
            columns=collinear,
        )


def _solve_weighted(X, w, wz):
    """Solve (X' diag(w) X) b = X' wz. Callers pass wz = w*z pre-multiplied
    so rows with zero weight never produce 0 * inf."""
    xtw = X.T * w
    return np.linalg.solve(xtw @ X, X.T @ wz)


def _symmetrized_inverse(information):
    vcov = np.linalg.inv(information)
    return (vcov + vcov.T) / 2.0


def _fitted(tag, dm, coefficients, vcov, loglik, r2_or_pseudo, iterations, sigma2=None):
    """The converged FitResult of one model fitted on ``dm``."""
    return FitResult(
        model_tag=tag,
        names=tuple(dm.columns),
        coefficients=coefficients,
        vcov=vcov,
        loglik=loglik,
        r2_or_pseudo=r2_or_pseudo,
        n_obs=dm.X.shape[0],
        converged=True,
        iterations=iterations,
        sigma2=sigma2,
    )


def fit_ols(dm) -> FitResult:
    """Least squares of ln(flow) on the design columns.

    Requires a positive-flow design matrix (the log response must exist)
    and at least one more row than there are columns.
    """
    X = dm.X
    _check_design(X, dm.columns, min_rows=X.shape[1] + 1)
    y = dm.log_flows()
    n, p = X.shape

    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    residuals = y - X @ beta
    ssr = float(residuals @ residuals)
    sigma2 = ssr / (n - p)
    vcov = _symmetrized_inverse(xtx / sigma2) if sigma2 > 0 else np.zeros((p, p))

    centered = y - y.mean()
    tss = float(centered @ centered)
    r2 = 1.0 - ssr / tss if tss > 0 else 1.0

    sigma2_mle = ssr / n
    if sigma2_mle > 0:
        loglik = -0.5 * n * (np.log(2.0 * np.pi * sigma2_mle) + 1.0)
    else:
        loglik = np.inf  # exact interpolation: unbounded Gaussian density

    return _fitted("OLS", dm, beta, vcov, float(loglik), r2, 0, sigma2=sigma2)


def _poisson_moments(eta):
    mu = np.exp(eta)
    return mu, mu


def _poisson_rows(y, eta, mu):
    from scipy.special import gammaln

    # per-row Poisson log likelihood, lgamma normalizer included
    return y * eta - mu - gammaln(y + 1.0)


def _poisson_q(y, eta, mu, omega):
    return float(np.sum(omega * _poisson_rows(y, eta, mu)))


def _logit_moments(eta):
    from scipy.special import expit

    prob = expit(eta)
    return prob, prob * (1.0 - prob)


def _bernoulli_q(r, eta, prob, omega):
    from scipy.special import log_expit

    # log_expit keeps the tails finite where log(prob) would underflow
    return float(np.sum(omega * (r * log_expit(eta) + (1.0 - r) * log_expit(-eta))))


def _irls(X, y, omega, start, moments, loglik):
    """Weighted IRLS for a canonical-link GLM (Poisson or logit).

    ``moments(eta)`` returns the (mean, variance) at the linear predictor
    and ``loglik(y, eta, mean, omega)`` the omega-weighted log likelihood.
    Responses may be fractional.  Returns (beta, trace, converged, diverged).
    """
    beta = np.asarray(start, dtype=float)
    eta = X @ beta
    mean, var = moments(eta)
    ll = loglik(y, eta, mean, omega)
    trace = [ll]
    if not np.isfinite(ll):
        return beta, trace, False, True
    for _ in range(MAX_IRLS_ITERATIONS):
        w = omega * var
        wz = omega * (var * eta + y - mean)
        try:
            target = _solve_weighted(X, w, wz)
        except np.linalg.LinAlgError:
            # weights collapsed; the current iterate is the diagnosis
            return beta, trace, False, True
        # step-halve on overshoot: a cold start far below the response
        # scale would otherwise send exp(eta) to overflow in one step
        direction = target - beta
        fraction = 1.0
        accepted = False
        for _half in range(MAX_STEP_HALVINGS):
            candidate = beta + fraction * direction
            eta_new = X @ candidate
            mean_new, var_new = moments(eta_new)
            ll_new = loglik(y, eta_new, mean_new, omega)
            if np.isfinite(ll_new) and ll_new >= ll - 1e-12 * (1.0 + abs(ll)):
                accepted = True
                break
            fraction *= 0.5
        if not accepted:
            return beta, trace, False, True
        step = np.linalg.norm(candidate - beta)
        beta = candidate
        eta = eta_new
        mean, var = mean_new, var_new
        trace.append(ll_new)
        if np.abs(eta).max() > MAX_LINEAR_PREDICTOR:
            return beta, trace, False, True
        if abs(ll_new - ll) <= IRLS_TOL * (1.0 + abs(ll)) and step <= STEP_TOL * (
            1.0 + np.linalg.norm(beta)
        ):
            return beta, trace, True, False
        ll = ll_new
    return beta, trace, False, False


def _glm_fit(tag, family, dm, y, outcome, moments, null_loglik):
    """The FitResult of a converged ``_irls`` outcome, else ConvergenceError.
    ``null_loglik(y)`` runs only after that check: it may be log(0)."""
    beta, trace, converged, diverged = outcome
    if diverged or not converged:
        raise ConvergenceError(
            f"{family} IRLS did not converge" + (" (diverging iterates)" if diverged else ""),
            last_coefficients=beta,
            trace=trace,
        )
    X = dm.X
    vcov = _symmetrized_inverse((X.T * moments(X @ beta)[1]) @ X)
    loglik = trace[-1]
    return _fitted(tag, dm, beta, vcov, loglik, 1.0 - loglik / null_loglik(y), len(trace) - 1)


def _ols_log1p_start(X, y):
    return np.linalg.solve(X.T @ X, X.T @ np.log1p(y))


def _poisson_null_loglik(y):
    ybar = y.mean()
    return _poisson_q(y, np.full_like(y, np.log(ybar)), np.full_like(y, ybar), 1.0)


def fit_poisson_pml(dm) -> FitResult:
    """Poisson pseudo-ML on flow levels over the full dyad sample.

    Zero flows stay in the sample; the response may be any non-negative
    real.  Starts from OLS on ln(1+flow).
    """
    X = dm.X
    _check_design(X, dm.columns)
    y = np.asarray(dm.y, dtype=float)
    if np.any(y < 0):
        raise ValidationError("Poisson response must be non-negative")

    outcome = _irls(X, y, 1.0, _ols_log1p_start(X, y), _poisson_moments, _poisson_q)
    return _glm_fit("PPML", "Poisson", dm, y, outcome, _poisson_moments, _poisson_null_loglik)


def _bernoulli_null_loglik(a):
    share = a.mean()
    eta = np.full_like(a, np.log(share / (1.0 - share)))
    return _bernoulli_q(a, eta, np.full_like(a, share), 1.0)


def _perfectly_separated(eta, a):
    margins = np.where(a == 1, eta, -eta)
    return bool(np.all(margins > 0.0))


def fit_logit(dm) -> FitResult:
    """Logit fit of the zero-flow indicator ``flow == 0`` on the design columns.

    The logit models the zero flows, as the zero stage of the ZIP model
    does, so a link probability is the complement of its fitted
    probability (see ``prediction.link_probabilities``).  Flows must be
    non-negative and include both zeros and positives.
    """
    X = dm.X
    _check_design(X, dm.columns)
    y = np.asarray(dm.y, dtype=float)
    if np.any(y < 0):
        raise ValidationError("logit flows must be non-negative")
    a = (y == 0.0).astype(float)
    if a.min() == a.max():
        raise ValidationError("logit requires both zero and positive flows present")

    outcome = _irls(X, a, 1.0, np.zeros(X.shape[1]), _logit_moments, _bernoulli_q)
    beta, trace = outcome[:2]
    # A finite logit MLE exists only when no coefficient vector classifies
    # every row correctly, so a perfectly-separating iterate is proof of
    # separation even if the likelihood change already went quiet.
    if _perfectly_separated(X @ beta, a):
        raise SeparationError(
            "complete separation: the classes are perfectly divided",
            last_coefficients=beta,
            trace=trace,
        )
    return _glm_fit("LOGIT", "logit", dm, a, outcome, _logit_moments, _bernoulli_null_loglik)


def _zip_log_p0(u, mu):
    """ln P(0) = ln(psi + (1-psi) e^{-mu}) with psi = expit(u), in log space."""
    from scipy.special import log_expit

    return np.logaddexp(log_expit(u), log_expit(-u) - mu)


def _zip_row_loglik(y, u, v):
    """Per-row ZIP log likelihood; u is the logit stage linear predictor
    (zero probability side), v the Poisson stage predictor."""
    from scipy.special import log_expit

    mu = np.exp(v)
    zero = y == 0.0
    out = np.empty_like(y)
    out[zero] = _zip_log_p0(u[zero], mu[zero])
    pos = ~zero
    out[pos] = log_expit(-u[pos]) + _poisson_rows(y[pos], v[pos], mu[pos])
    return out


def _zip_loglik(y, u, v) -> float:
    return float(_zip_row_loglik(y, u, v).sum())


def _zip_em(X, y, theta, gamma):
    """EM for the ZIP likelihood. Returns (theta, gamma, trace, converged)."""
    from scipy.special import log_expit

    zero = y == 0.0
    u, v = X @ theta, X @ gamma
    ll = _zip_loglik(y, u, v)
    trace = [ll]
    if not np.isfinite(ll):
        raise ConvergenceError("ZIP starting values give non-finite likelihood",
                               trace=trace)
    for _ in range(MAX_EM_ITERATIONS):
        # E-step: posterior probability that a zero is structural
        z_hat = np.zeros_like(y)
        log_p0 = _zip_log_p0(u[zero], np.exp(v[zero]))
        z_hat[zero] = np.exp(log_expit(u[zero]) - log_p0)

        # M-steps: fractional-response logit and case-weighted Poisson
        theta, _, th_ok, th_div = _irls(X, z_hat, 1.0, theta, _logit_moments, _bernoulli_q)
        gamma, _, ga_ok, ga_div = _irls(
            X, y, 1.0 - z_hat, gamma, _poisson_moments, _poisson_q
        )
        if th_div or ga_div or not (th_ok and ga_ok):
            raise ConvergenceError(
                "ZIP M-step failed to converge",
                last_coefficients=np.concatenate([theta, gamma]),
                trace=trace,
            )

        u, v = X @ theta, X @ gamma
        ll_new = _zip_loglik(y, u, v)
        trace.append(ll_new)
        if ll_new < ll - 1e-8 * (1.0 + abs(ll)):
            raise ConvergenceError(
                f"EM log-likelihood decreased ({ll} -> {ll_new})", trace=trace
            )
        if max(np.abs(u).max(), np.abs(v).max()) > MAX_LINEAR_PREDICTOR:
            raise ConvergenceError(
                "ZIP iterates diverged",
                last_coefficients=np.concatenate([theta, gamma]),
                trace=trace,
            )
        if abs(ll_new - ll) <= EM_TOL * (1.0 + abs(ll)):
            return theta, gamma, trace, True
        ll = ll_new
    return theta, gamma, trace, False


def _zip_information(X, y, theta, gamma):
    """Observed information of the ZIP likelihood at (theta, gamma),
    assembled from per-row second derivatives in (u, v) = (x'theta, x'gamma)."""
    from scipy.special import expit

    u = X @ theta
    v = X @ gamma
    mu = np.exp(v)
    psi = expit(u)
    s = psi * (1.0 - psi)
    zero = y == 0.0

    h_uu = np.where(zero, 0.0, -s)
    h_uv = np.zeros_like(y)
    h_vv = np.where(zero, 0.0, -mu)

    uz = u[zero]
    muz = mu[zero]
    psz = psi[zero]
    sz = s[zero]
    ez = np.exp(-muz)
    p0 = np.exp(_zip_log_p0(uz, muz))
    one_e = 1.0 - ez
    h_uu[zero] = sz * one_e * ((1.0 - 2.0 * psz) * p0 - sz * one_e) / p0**2
    h_uv[zero] = sz * muz * ez * (p0 + (1.0 - psz) * one_e) / p0**2
    h_vv[zero] = (
        -(1.0 - psz) * muz * ez * ((1.0 - muz) * p0 + (1.0 - psz) * muz * ez) / p0**2
    )

    h_tt = (X.T * h_uu) @ X
    h_tg = (X.T * h_uv) @ X
    h_gg = (X.T * h_vv) @ X
    top = np.hstack([h_tt, h_tg])
    bottom = np.hstack([h_tg.T, h_gg])
    return -np.vstack([top, bottom])


def _fit_zip_core(X, y):
    theta0 = np.zeros(X.shape[1])
    gamma0 = _ols_log1p_start(X, y)
    theta, gamma, trace, converged = _zip_em(X, y, theta0, gamma0)
    if not converged:
        raise ConvergenceError(
            "ZIP EM did not converge",
            last_coefficients=np.concatenate([theta, gamma]),
            trace=trace,
        )
    return theta, gamma, trace


def fit_zip(dm) -> ZipFitResult:
    """Zero-inflated Poisson via EM: logit zero stage, Poisson count stage,
    the same regressor set in both.

    The covariance of each stage is the corresponding diagonal block of the
    inverse observed information of the full mixture likelihood.
    """
    X = dm.X
    _check_design(X, dm.columns)
    y = np.asarray(dm.y, dtype=float)
    if np.any(y < 0):
        raise ValidationError("ZIP response must be non-negative")
    zero = y == 0.0
    if not zero.any() or zero.all():
        raise ValidationError(
            "ZIP requires both zero and positive responses present"
        )

    theta, gamma, trace = _fit_zip_core(X, y)
    loglik = trace[-1]
    iterations = len(trace) - 1

    p = X.shape[1]
    try:
        vcov = _symmetrized_inverse(_zip_information(X, y, theta, gamma))
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            "ZIP information matrix is singular at the optimum",
            last_coefficients=np.concatenate([theta, gamma]),
            trace=trace,
        ) from None

    # Pseudo-R2 against the intercept-only ZIP null, fitted by the same EM
    ones = np.ones((len(y), 1))
    null_trace = _fit_zip_core(ones, y)[2]
    pseudo = 1.0 - loglik / null_trace[-1]

    return ZipFitResult(
        logit_part=_fitted("ZIP_LOGIT", dm, theta, vcov[:p, :p], loglik, pseudo, iterations),
        poisson_part=_fitted("ZIP_POISSON", dm, gamma, vcov[p:, p:], loglik, pseudo, iterations),
        loglik=loglik,
    )


def vuong_test(zip_result: ZipFitResult, poisson_result: FitResult, dm) -> VuongResult:
    """Vuong non-nested comparison of the ZIP fit against plain Poisson.

    Positive values favor the zero-inflated model.  Both fits must come
    from the same design matrix rows.
    """
    from scipy.special import ndtr

    X = dm.X
    y = np.asarray(dm.y, dtype=float)
    names = tuple(dm.columns)
    for part in (zip_result.logit_part, zip_result.poisson_part, poisson_result):
        if part.names != names:
            raise ValidationError("fits were not produced from this design matrix")
        if part.n_obs != X.shape[0]:
            raise ValidationError("fits cover a different number of rows")

    ll_zip = _zip_row_loglik(
        y, X @ zip_result.logit_part.coefficients,
        X @ zip_result.poisson_part.coefficients,
    )
    eta = X @ poisson_result.coefficients
    ll_pois = _poisson_rows(y, eta, np.exp(eta))

    m = ll_zip - ll_pois
    sd = float(m.std())
    if sd == 0.0:
        raise DegenerateComparisonError(
            "per-row likelihoods are identical; the Vuong statistic is undefined"
        )
    statistic = float(np.sqrt(len(m)) * m.mean() / sd)
    p_value = float(2.0 * ndtr(-abs(statistic)))
    return VuongResult(statistic=statistic, p_value=p_value, n_obs=len(m))


def attach_vuong(zip_result: ZipFitResult, poisson_result: FitResult, dm) -> ZipFitResult:
    """Return a copy of the ZIP result with the Vuong statistic filled in."""
    test = vuong_test(zip_result, poisson_result, dm)
    return replace(zip_result, vuong_vs_poisson=test.statistic)

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

Fitting loads no scipy.  The rank check of each design, a QR pivoted on
exact column norms, made scipy's rank decisions on every design tested,
and the log of the logistic has scipy's bits.  The logistic
(numpy's ``exp``) and log(y!) (the C library's ``lgamma``) lie within a
few ulp of scipy's, and the two-sided normal p-value of the significance
stars and of the Vuong test (the C library's ``erfc``) within about 1e-13.

Each quantity is computed once.  Per design (``_Design``, kept on the
design from its first fit on): the pivoted QR of the rank check, log(y!)
and the OLS-on-log1p start; every fit still decides the rank, and raises,
from that QR.  Per linear predictor (``_Linear``): exp, the logistic and
its two logs, which an IRLS iterate's likelihood, moments and covariance
share, and which the EM's likelihood, E-step and next M-step read off the
predictor that each M-step ended on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateComparisonError,
    SeparationError,
    SingularDesignError,
    ValidationError,
)
from .netstats import _built_once

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


def _pivoted_r_diagonal(X: np.ndarray):
    """|diag(R)| of the column-pivoted QR of ``X``, and its column order,
    by Businger and Golub's rule (Numer. Math. 7:269, 1965): each step
    reflects onto the diagonal the first column of largest norm over the
    rows left, its square computed in full, one dot per column."""
    a = np.array(X, dtype=float, order="F")
    n, p = a.shape
    order = np.arange(p)
    diag = np.zeros(min(n, p))
    for i in range(min(n, p)):
        pivot = i + int(np.argmax([c @ c for c in a[i:, i:].T]))
        if pivot != i:
            a[:, [i, pivot]] = a[:, [pivot, i]]
            order[[i, pivot]] = order[[pivot, i]]
        alpha = a[i, i]
        below = a[i + 1:, i]
        below_norm = float(np.linalg.norm(below))
        if below_norm == 0.0:  # the reflection is the identity
            diag[i] = abs(alpha)
            continue
        beta = -math.copysign(math.hypot(alpha, below_norm), alpha)
        diag[i] = abs(beta)
        v = np.concatenate(([1.0], below * (1.0 / (alpha - beta))))
        # xLARF: w = C' v, then C -= tau v w', tau = (beta - alpha) / beta
        update = ((alpha - beta) / beta * (v @ a[i:, i + 1:])).tolist()
        for j, coefficient in enumerate(update, start=i + 1):
            if coefficient:
                a[i:, j] += coefficient * v
    return diag, order


class _Design:
    """What every fit on one design reads off its ``X`` and ``y`` alone:
    the float response, and, each built on first use, the pivoted diag(R)
    and column order of the rank check, log(y!) and the OLS-on-log1p start."""

    def __init__(self, X, y):
        self.X, self.y = X, np.asarray(y, dtype=float)

    @_built_once
    def r_diagonal(self) -> tuple:
        return _pivoted_r_diagonal(self.X)

    @_built_once
    def log_y_factorial(self) -> np.ndarray:
        return _log_factorial(self.y)

    @_built_once
    def log1p_start(self) -> np.ndarray:
        return _ols_log1p_start(self.X, self.y)


def _design(dm) -> _Design:
    """``dm``'s ``_Design``, made by its first fit and kept in its instance
    dict, so it lives as long as ``dm``, whose ``X`` and ``y`` are read-only."""
    memo = vars(dm).get("_design")
    if memo is None:
        memo = vars(dm)["_design"] = _Design(dm.X, dm.y)
    return memo


def _check_design(dm, min_rows: int = None) -> None:
    X, names = dm.X, dm.columns
    n, p = X.shape
    if len(names) != p:
        raise ValidationError(f"{len(names)} names for {p} columns")
    required = p if min_rows is None else min_rows
    if n < required:
        raise ValidationError(f"{n} rows are too few for {p} regressors")
    if not np.isfinite(X).all():
        raise ValidationError("design matrix contains non-finite entries")
    diag, pivot = _design(dm).r_diagonal
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
    _check_design(dm, min_rows=X.shape[1] + 1)
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


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic ``1 / (1 + exp(-x))`` with numpy's vectorised ``exp``.

    Where ``exp(-x)`` overflows (x below about -709.78) it is inf and the
    logistic 0, with no warning; a NaN stays NaN.  The last bits follow
    numpy's SIMD dispatch: it measured within 4 ulp of scipy's ``expit``.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def _log_expit(x: np.ndarray) -> np.ndarray:
    """``scipy.special.log_expit(x)`` bit for bit, without importing scipy.

    scipy computes ``x - log1p(exp(x))`` for ``x < 0`` and
    ``-log1p(exp(-x))`` otherwise with the C library's ``exp`` and
    ``log1p``; numpy's float64 ``logaddexp(0, -x)`` calls the same two,
    element by element, in the same branch order.  A NaN compares as
    invalid inside it, and comes out as NaN.
    """
    with np.errstate(invalid="ignore"):
        return -np.logaddexp(0.0, -np.asarray(x, dtype=float))


def _lgamma(x: float) -> float:
    """The C library's ``lgamma(x)``; ``inf`` where it overflows (finite x
    above about 2.56e305), for which ``math.lgamma`` raises."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _log_factorial(y: np.ndarray) -> np.ndarray:
    """log(y!) of the 1-D float array ``y >= 0``: the C library's
    ``lgamma(y + 1)``, element by element; inf stays inf and NaN stays NaN."""
    return np.fromiter(map(_lgamma, (y + 1.0).tolist()), dtype=float, count=y.size)


class _Linear:
    """A linear predictor ``eta`` and the terms the fits read off it, each
    built on first use: ``exp``, ``expit``, and ``log_expit`` and
    ``log_expit_neg``, the logs of expit(eta) and of expit(-eta)."""

    def __init__(self, eta):
        self.eta = eta

    @_built_once
    def exp(self) -> np.ndarray:
        return np.exp(self.eta)

    @_built_once
    def expit(self) -> np.ndarray:
        return _expit(self.eta)

    @_built_once
    def log_expit(self) -> np.ndarray:
        return _log_expit(self.eta)

    @_built_once
    def log_expit_neg(self) -> np.ndarray:
        return _log_expit(-self.eta)


def _poisson_moments(lp):
    return lp.exp, lp.exp


def _poisson_rows(y, eta, mu, log_y_factorial):
    # per-row Poisson log likelihood, lgamma normalizer included
    return y * eta - mu - log_y_factorial


def _poisson_q(y, lp, omega, log_y_factorial):
    return float(np.sum(omega * _poisson_rows(y, lp.eta, lp.exp, log_y_factorial)))


def _logit_moments(lp):
    prob = lp.expit
    return prob, prob * (1.0 - prob)


def _bernoulli_q(r, lp, omega):
    # log_expit keeps the tails finite where log(prob) would underflow
    return float(np.sum(omega * (r * lp.log_expit + (1.0 - r) * lp.log_expit_neg)))


def _irls(X, y, omega, beta, lp, moments, loglik):
    """Weighted IRLS for a canonical-link GLM (Poisson or logit), from
    ``beta`` and its linear predictor ``lp``, a ``_Linear`` of ``X @ beta``.

    ``moments(lp)`` returns the (mean, variance) at a linear predictor
    and ``loglik(y, lp, omega)`` the omega-weighted log likelihood.
    Responses may be fractional.  Returns (beta, lp, trace, converged,
    diverged), with the last accepted iterate and its linear predictor.
    """
    beta = np.asarray(beta, dtype=float)
    # an exp that overflows makes the likelihood non-finite (an inf, or a
    # NaN where a zero weight meets it), and a non-finite likelihood is
    # refused: the start fails, a candidate halves
    with np.errstate(over="ignore", invalid="ignore"):
        ll = loglik(y, lp, omega)
    trace = [ll]
    if not np.isfinite(ll):
        return beta, lp, trace, False, True
    for _ in range(MAX_IRLS_ITERATIONS):
        mean, var = moments(lp)
        w = omega * var
        wz = omega * (var * lp.eta + y - mean)
        try:
            target = _solve_weighted(X, w, wz)
        except np.linalg.LinAlgError:
            # weights collapsed; the current iterate is the diagnosis
            return beta, lp, trace, False, True
        # step-halve on overshoot: a cold start far below the response
        # scale would otherwise send exp(eta) to overflow in one step
        direction = target - beta
        fraction = 1.0
        accepted = False
        for _half in range(MAX_STEP_HALVINGS):
            candidate = beta + fraction * direction
            lp_new = _Linear(X @ candidate)
            with np.errstate(over="ignore", invalid="ignore"):
                ll_new = loglik(y, lp_new, omega)
            if np.isfinite(ll_new) and ll_new >= ll - 1e-12 * (1.0 + abs(ll)):
                accepted = True
                break
            fraction *= 0.5
        if not accepted:
            return beta, lp, trace, False, True
        step = np.linalg.norm(candidate - beta)
        # no step returns to the iterate it leaves: drop its terms now, as
        # the EM still holds its stage's start until this call returns
        vars(lp).clear()
        beta, lp = candidate, lp_new
        trace.append(ll_new)
        if np.abs(lp.eta).max() > MAX_LINEAR_PREDICTOR:
            return beta, lp, trace, False, True
        if abs(ll_new - ll) <= IRLS_TOL * (1.0 + abs(ll)) and step <= STEP_TOL * (
            1.0 + np.linalg.norm(beta)
        ):
            return beta, lp, trace, True, False
        ll = ll_new
    return beta, lp, trace, False, False


def _glm_fit(tag, family, dm, y, outcome, moments, null_loglik):
    """The FitResult of a converged ``_irls`` outcome, else ConvergenceError.
    ``null_loglik(y)`` runs only after that check: it may be log(0)."""
    beta, lp, trace, converged, diverged = outcome
    if diverged or not converged:
        raise ConvergenceError(
            f"{family} IRLS did not converge" + (" (diverging iterates)" if diverged else ""),
            last_coefficients=beta,
            trace=trace,
        )
    X = dm.X
    vcov = _symmetrized_inverse((X.T * moments(lp)[1]) @ X)
    loglik = trace[-1]
    return _fitted(tag, dm, beta, vcov, loglik, 1.0 - loglik / null_loglik(y), len(trace) - 1)


def _nonnegative_flows(dm) -> _Design:
    """``dm``'s ``_Design``, refused unless every flow is non-negative."""
    design = _design(dm)
    if np.any(design.y < 0):
        raise ValidationError("flows must be non-negative")
    return design


def _count_response(dm, both_zero_and_positive: bool = False) -> _Design:
    """``dm``'s ``_Design`` for a count model (PPML, logit, ZIP), once the
    design and the response are checked: the flows must be non-negative,
    and include zeros and positives when asked."""
    _check_design(dm)
    design = _nonnegative_flows(dm)
    zero = design.y == 0.0
    if both_zero_and_positive and (zero.all() or not zero.any()):
        raise ValidationError("flows must include both zeros and positives")
    return design


def _ols_log1p_start(X, y):
    return np.linalg.solve(X.T @ X, X.T @ np.log1p(y))


def _poisson_null_loglik(y, log_y_factorial):
    # the null's mean is ybar itself, not exp(log(ybar))
    ybar = y.mean()
    return float(np.sum(_poisson_rows(y, np.full_like(y, np.log(ybar)), np.full_like(y, ybar),
                                      log_y_factorial)))


def fit_poisson_pml(dm) -> FitResult:
    """Poisson pseudo-ML on flow levels over the full dyad sample.

    Zero flows stay in the sample; the response may be any non-negative
    real.  Starts from OLS on ln(1+flow).
    """
    design = _count_response(dm)
    X, y, start = design.X, design.y, design.log1p_start
    log_y_factorial = design.log_y_factorial
    outcome = _irls(X, y, 1.0, start, _Linear(X @ start), _poisson_moments,
                    partial(_poisson_q, log_y_factorial=log_y_factorial))
    return _glm_fit("PPML", "Poisson", dm, y, outcome, _poisson_moments,
                    partial(_poisson_null_loglik, log_y_factorial=log_y_factorial))


def _bernoulli_null_loglik(a):
    share = a.mean()
    return _bernoulli_q(a, _Linear(np.full_like(a, np.log(share / (1.0 - share)))), 1.0)


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
    design = _count_response(dm, both_zero_and_positive=True)
    X = design.X
    a = (design.y == 0.0).astype(float)
    start = np.zeros(X.shape[1])
    outcome = _irls(X, a, 1.0, start, _Linear(X @ start), _logit_moments, _bernoulli_q)
    beta, lp, trace = outcome[:3]
    # A finite logit MLE exists only when no coefficient vector classifies
    # every row correctly, so a perfectly-separating iterate is proof of
    # separation even if the likelihood change already went quiet.
    if _perfectly_separated(lp.eta, a):
        raise SeparationError(
            "complete separation: the classes are perfectly divided",
            last_coefficients=beta,
            trace=trace,
        )
    return _glm_fit("LOGIT", "logit", dm, a, outcome, _logit_moments, _bernoulli_null_loglik)


def _zip_log_p0(log_psi, log_one_minus_psi, mu):
    """ln P(0) = ln(psi + (1-psi) e^{-mu}) in log space, from ln psi and
    ln(1 - psi) of psi = expit(u), i.e. log_expit(u) and log_expit(-u)."""
    return np.logaddexp(log_psi, log_one_minus_psi - mu)


def _zip_row_loglik(y, u, v, log_y_factorial):
    """Per-row ZIP log likelihood; u is the logit stage's ``_Linear``
    (zero probability side), v the Poisson stage's."""
    mu = v.exp
    zero = y == 0.0
    out = np.empty_like(y)
    out[zero] = _zip_log_p0(u.log_expit[zero], u.log_expit_neg[zero], mu[zero])
    pos = ~zero
    out[pos] = u.log_expit_neg[pos] + _poisson_rows(
        y[pos], v.eta[pos], mu[pos], log_y_factorial[pos]
    )
    return out


def _zip_loglik(y, u, v, log_y_factorial) -> float:
    return float(_zip_row_loglik(y, u, v, log_y_factorial).sum())


def _zip_failure(message, theta, gamma, trace) -> ConvergenceError:
    """A failed ZIP fit: its last (theta, gamma), stacked, and its trace."""
    return ConvergenceError(
        message, last_coefficients=np.concatenate([theta, gamma]), trace=trace
    )


def _zip_em(X, y, log_y_factorial, theta, gamma):
    """EM for the ZIP likelihood.  Returns ((theta, u), (gamma, v), trace,
    converged): each stage's coefficients with the linear predictor, a
    ``_Linear``, that its last M-step ended on.

    So the logistic terms of u are computed once: in the logit M-step, and
    read again by the likelihood, the next E-step, the next M-step's start
    and, after the last, the information matrix.
    """
    zero = y == 0.0
    poisson_q = partial(_poisson_q, log_y_factorial=log_y_factorial)
    u, v = _Linear(X @ theta), _Linear(X @ gamma)
    # an overflow is a non-finite start, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        ll = _zip_loglik(y, u, v, log_y_factorial)
    trace = [ll]
    if not np.isfinite(ll):
        raise _zip_failure("ZIP starting values give non-finite likelihood", theta, gamma, trace)
    for _ in range(MAX_EM_ITERATIONS):
        # E-step: posterior probability that a zero is structural
        z_hat = np.zeros_like(y)
        log_psi = u.log_expit[zero]
        log_p0 = _zip_log_p0(log_psi, u.log_expit_neg[zero], v.exp[zero])
        z_hat[zero] = np.exp(log_psi - log_p0)

        # M-steps: fractional-response logit and case-weighted Poisson
        theta, u, _, th_ok, th_div = _irls(X, z_hat, 1.0, theta, u, _logit_moments,
                                           _bernoulli_q)
        gamma, v, _, ga_ok, ga_div = _irls(X, y, 1.0 - z_hat, gamma, v, _poisson_moments,
                                           poisson_q)
        if th_div or ga_div or not (th_ok and ga_ok):
            raise _zip_failure("ZIP M-step failed to converge", theta, gamma, trace)

        ll_new = _zip_loglik(y, u, v, log_y_factorial)
        trace.append(ll_new)
        if ll_new < ll - 1e-8 * (1.0 + abs(ll)):
            raise _zip_failure(f"EM log-likelihood decreased ({ll} -> {ll_new})",
                               theta, gamma, trace)
        if max(np.abs(u.eta).max(), np.abs(v.eta).max()) > MAX_LINEAR_PREDICTOR:
            raise _zip_failure("ZIP iterates diverged", theta, gamma, trace)
        if abs(ll_new - ll) <= EM_TOL * (1.0 + abs(ll)):
            return (theta, u), (gamma, v), trace, True
        ll = ll_new
    return (theta, u), (gamma, v), trace, False


def _zip_information(X, y, u, v):
    """Observed information of the ZIP likelihood at the linear predictors
    ``u`` = x'theta and ``v`` = x'gamma, ``_Linear``s whose terms the EM's
    last M-steps hold, assembled from per-row second derivatives in (u, v)."""
    mu = v.exp
    psi = u.expit
    s = psi * (1.0 - psi)
    zero = y == 0.0

    h_uu = np.where(zero, 0.0, -s)
    h_uv = np.zeros_like(y)
    h_vv = np.where(zero, 0.0, -mu)

    muz = mu[zero]
    psz = psi[zero]
    sz = s[zero]
    ez = np.exp(-muz)
    p0 = np.exp(_zip_log_p0(u.log_expit[zero], u.log_expit_neg[zero], muz))
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


def _fit_zip_core(X, y, log_y_factorial, gamma0):
    theta0 = np.zeros(X.shape[1])
    (theta, u), (gamma, v), trace, converged = _zip_em(X, y, log_y_factorial, theta0, gamma0)
    if not converged:
        raise _zip_failure("ZIP EM did not converge", theta, gamma, trace)
    return (theta, u), (gamma, v), trace


def fit_zip(dm) -> ZipFitResult:
    """Zero-inflated Poisson via EM: logit zero stage, Poisson count stage,
    the same regressor set in both.

    The covariance of each stage is the corresponding diagonal block of the
    inverse observed information of the full mixture likelihood.
    """
    design = _count_response(dm, both_zero_and_positive=True)
    X, y, log_y_factorial = design.X, design.y, design.log_y_factorial
    (theta, u), (gamma, v), trace = _fit_zip_core(X, y, log_y_factorial, design.log1p_start)
    loglik = trace[-1]
    iterations = len(trace) - 1

    p = X.shape[1]
    try:
        vcov = _symmetrized_inverse(_zip_information(X, y, u, v))
    except np.linalg.LinAlgError:
        raise _zip_failure(
            "ZIP information matrix is singular at the optimum", theta, gamma, trace
        ) from None
    del u, v  # the null fit below reads neither predictor nor its terms

    # Pseudo-R2 against the intercept-only ZIP null, fitted by the same EM
    ones = np.ones((len(y), 1))
    null_trace = _fit_zip_core(ones, y, log_y_factorial, _ols_log1p_start(ones, y))[2]
    pseudo = 1.0 - loglik / null_trace[-1]

    return ZipFitResult(
        logit_part=_fitted("ZIP_LOGIT", dm, theta, vcov[:p, :p], loglik, pseudo, iterations),
        poisson_part=_fitted("ZIP_POISSON", dm, gamma, vcov[p:, p:], loglik, pseudo, iterations),
        loglik=loglik,
    )


def _two_sided_p(z: float) -> float:
    """The two-sided standard normal p-value of ``z``, 2 * Phi(-|z|), from
    the C library's ``erfc``: NaN for NaN, 0 for +-inf, and within 1e-13
    (relative) of scipy's wherever scipy's is a normal float."""
    return math.erfc(abs(z) * math.sqrt(0.5))


def vuong_test(zip_result: ZipFitResult, poisson_result: FitResult, dm) -> VuongResult:
    """Vuong non-nested comparison of the ZIP fit against plain Poisson.

    Positive values favor the zero-inflated model.  Both fits must come
    from the same design matrix rows.
    """
    design = _nonnegative_flows(dm)
    X, y = design.X, design.y
    names = tuple(dm.columns)
    for part in (zip_result.logit_part, zip_result.poisson_part, poisson_result):
        if part.names != names:
            raise ValidationError("fits were not produced from this design matrix")
        if part.n_obs != X.shape[0]:
            raise ValidationError("fits cover a different number of rows")

    log_y_factorial = design.log_y_factorial
    ll_zip = _zip_row_loglik(
        y, _Linear(X @ zip_result.logit_part.coefficients),
        _Linear(X @ zip_result.poisson_part.coefficients), log_y_factorial,
    )
    eta = X @ poisson_result.coefficients
    ll_pois = _poisson_rows(y, eta, np.exp(eta), log_y_factorial)

    m = ll_zip - ll_pois
    sd = float(m.std())
    if sd == 0.0:
        raise DegenerateComparisonError(
            "per-row likelihoods are identical; the Vuong statistic is undefined"
        )
    statistic = float(np.sqrt(len(m)) * m.mean() / sd)
    p_value = _two_sided_p(statistic)
    return VuongResult(statistic=statistic, p_value=p_value, n_obs=len(m))


def attach_vuong(zip_result: ZipFitResult, poisson_result: FitResult, dm) -> ZipFitResult:
    """Return a copy of the ZIP result with the Vuong statistic filled in."""
    test = vuong_test(zip_result, poisson_result, dm)
    return replace(zip_result, vuong_vs_poisson=test.statistic)

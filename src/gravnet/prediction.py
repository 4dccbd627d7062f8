"""Predicted trade matrices, link probabilities, and sampled network ensembles.

Fitted coefficients are turned back into matrix-shaped objects here.  Each
design-matrix row is evaluated and placed at the cell its ``exporter`` and
``importer`` positions name, on the n-by-n grid of the design's
``country_ids``.  Three prediction flavours exist, one per estimator family:

* OLS predicts conditional log flows and is only defined on the dyads the
  regression saw, so its mask is the observed positive-flow adjacency.
* Poisson PML predicts expected levels ``exp(x'g)`` for every ordered pair.
* The zero-inflated model predicts ``(1 - psi) * mu``, the unconditional
  mean that mixes the extra-zero stage with the count stage.

Link probabilities come from a logit stage fitted on the zero-flow
indicator, so the probability that a directed link exists is one minus the
fitted zero probability.  Binary predictions derive from those
probabilities either through a fixed threshold, by matching the observed
density, or by minimising the Manhattan distance to an observed adjacency.

Ensembles are sampled with counter-based RNG substreams: replication ``r``
of an ensemble seeded with ``seed`` always uses
``Generator(Philox(key=[seed, r]))``, so any single replication can be
reproduced without generating its predecessors and results are identical
under any parallel execution order.  An :class:`EnsembleStream` draws the
replications one at a time as it is iterated, so a consumer that summarises
each draw holds one n-by-n matrix, not the ``(m, n, n)`` stack; the eager
samplers fill a :class:`NetworkEnsemble` from the same stream.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import PredictionOverflowError, SchemaError, ValidationError
from .estimation import MAX_LINEAR_PREDICTOR, FitResult, ZipFitResult, _zip_log_p0
from .panel import DesignMatrix

DEFAULT_REPLICATIONS = 10_000


@dataclass(frozen=True)
class PredictedWeights:
    """Matrix of point predictions with per-entry variances.

    ``value`` holds predicted log flows for OLS and predicted levels for
    the count models; ``variance`` is the matching per-entry variance.
    Entries outside ``mask`` are zero and carry no meaning.
    """

    model_tag: str
    country_ids: tuple[str, ...]
    value: np.ndarray
    variance: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        for name in ("value", "variance", "mask"):
            arr = getattr(self, name)
            object.__setattr__(self, name, np.asarray(arr))
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.country_ids)

    def as_dict(self) -> dict:
        return {
            "model": self.model_tag,
            "country_ids": list(self.country_ids),
            "value": self.value.tolist(),
            "variance": self.variance.tolist(),
            "mask": self.mask.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> PredictedWeights:
        """The prediction whose ``as_dict()`` is ``payload``; other keys are ignored."""
        return cls(
            payload["model"],
            tuple(payload["country_ids"]),
            np.array(payload["value"], dtype=float),
            np.array(payload["variance"], dtype=float),
            np.array(payload["mask"], dtype=np.int8),
        )


@dataclass(frozen=True)
class LinkProbabilityMatrix:
    """Directed link probabilities, zero on the diagonal."""

    country_ids: tuple[str, ...]
    xi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        self.xi.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.country_ids)

    def as_dict(self) -> dict:
        return {"country_ids": list(self.country_ids), "xi": self.xi.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> LinkProbabilityMatrix:
        """The matrix whose ``as_dict()`` is ``payload``; other keys are ignored."""
        return cls(tuple(payload["country_ids"]), np.array(payload["xi"], dtype=float))


@dataclass(frozen=True)
class BinaryPrediction:
    """A thresholded adjacency matrix plus how it was obtained."""

    adjacency: np.ndarray
    threshold: float
    manhattan_distance: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "adjacency", np.asarray(self.adjacency, dtype=np.int8))
        self.adjacency.setflags(write=False)

    @property
    def realized_density(self) -> float:
        """Share of the n(n-1) ordered pairs that are linked."""
        n = self.adjacency.shape[0]
        return float(self.adjacency.sum() / (n * (n - 1)))

    def as_dict(self) -> dict:
        """How the adjacency was obtained; the adjacency itself is left out."""
        out = {"threshold": self.threshold, "realized_density": self.realized_density}
        if self.manhattan_distance is not None:
            out["distance"] = self.manhattan_distance
        return out


@dataclass(frozen=True)
class NetworkEnsemble:
    """Stack of sampled network matrices.

    ``replications`` has shape (m, n, n).  Binary ensembles store 0/1
    entries; weighted ensembles store levels, except for the OLS model
    whose draws live on the log scale and may be negative, in which case
    ``mask`` records where draws are defined.
    """

    model_tag: str
    country_ids: tuple[str, ...]
    replications: np.ndarray
    seed: int
    mask: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "replications", np.asarray(self.replications))
        self.replications.setflags(write=False)
        if self.mask is not None:
            object.__setattr__(self, "mask", np.asarray(self.mask))
            self.mask.setflags(write=False)

    @property
    def m(self) -> int:
        return int(self.replications.shape[0])

    @property
    def n(self) -> int:
        return len(self.country_ids)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.replications)


@dataclass(frozen=True)
class EnsembleStream:
    """Replications drawn on demand, one n-by-n matrix at a time.

    Iterating yields ``draw(Generator(Philox(key=[seed, r])))`` for ``r`` in
    ``range(m)``, so every pass draws the same replications, in order, as
    the eager :class:`NetworkEnsemble` of the same sampler and seed holds.
    ``mask`` has the meaning it has there.
    """

    model_tag: str
    country_ids: tuple[str, ...]
    m: int
    seed: int
    draw: Callable[[np.random.Generator], np.ndarray]
    mask: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValidationError(f"ensemble size must be at least 1, got {self.m}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.mask is not None:
            object.__setattr__(self, "mask", np.asarray(self.mask))
            self.mask.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.country_ids)

    def __iter__(self) -> Iterator[np.ndarray]:
        for r in range(self.m):
            yield self.draw(_substream(self.seed, r))


def _grid(dm: DesignMatrix, full: bool = True):
    """Scatter onto the n-by-n grid of the design's countries.

    ``scatter(values, dtype)`` is an n-by-n array holding the per-row
    ``values`` at their dyads and zero elsewhere.  With ``full`` the rows
    must cover every ordered pair.
    """
    n = len(dm.country_ids)
    if full and dm.n_obs != n * (n - 1):
        raise ValidationError(
            f"expected one design row per ordered pair ({n * (n - 1)}), got {dm.n_obs}"
        )

    def scatter(values, dtype=float) -> np.ndarray:
        out = np.zeros((n, n), dtype=dtype)
        out[dm.exporter, dm.importer] = values
        return out

    return scatter


def _check_fit_against(dm: DesignMatrix, fit: FitResult, *want_tags: str) -> None:
    if fit.model_tag not in want_tags:
        raise ValidationError(
            f"expected a {' or '.join(want_tags)} fit, got {fit.model_tag}"
        )
    if tuple(fit.names) != tuple(dm.columns):
        raise SchemaError(
            "fit and design matrix disagree on covariates: "
            f"{list(fit.names)} vs {list(dm.columns)}"
        )


def _guard_overflow(eta: np.ndarray, dm: DesignMatrix, stage: str) -> None:
    # beyond the exp() limit is a modelling failure reported with the
    # offending dyad, not an inf silently propagating into ensembles
    too_big = eta > MAX_LINEAR_PREDICTOR
    if np.any(too_big):
        k = int(np.argmax(too_big))
        exporter, importer = dm.dyad(k)
        raise PredictionOverflowError(
            f"{stage} linear predictor {eta[k]:.1f} for dyad "
            f"({exporter}, {importer}) overflows exp()"
        )


def _zip_stages(zip_fit: ZipFitResult, dm: DesignMatrix):
    """Checked scatter plus each row's zero-stage predictor u, zero
    probability psi = expit(u) and count mean mu."""
    from scipy.special import expit

    _check_fit_against(dm, zip_fit.logit_part, "ZIP_LOGIT")
    _check_fit_against(dm, zip_fit.poisson_part, "ZIP_POISSON")
    scatter = _grid(dm)
    u = dm.X @ zip_fit.logit_part.coefficients
    v = dm.X @ zip_fit.poisson_part.coefficients
    _guard_overflow(v, dm, "count")
    return scatter, u, expit(u), np.exp(v)


def predict_ols(fit: FitResult, dm: DesignMatrix) -> PredictedWeights:
    """Predict log flows on the observed positive dyads.

    The log-linear model is silent about zero flows, so the prediction
    mask is exactly the set of dyads the regression was fitted on and
    ``value`` holds predicted logs, not levels.  The grid covers every
    country of ``dm.country_ids``, trading or not.  The variance is the
    estimated residual variance, identical for every masked entry.

    Parameters
    ----------
    fit : FitResult
        An OLS fit whose covariate names match ``dm.columns``.
    dm : DesignMatrix
        The positive-flow design matrix the model was fitted on.

    Returns
    -------
    PredictedWeights
    """
    _check_fit_against(dm, fit, "OLS")
    if fit.sigma2 is None:
        raise ValidationError("OLS fit carries no residual variance")
    if not np.all(dm.y > 0):
        raise ValidationError("OLS predictions require a positive-flow design matrix")
    scatter = _grid(dm, full=False)
    value = scatter(dm.X @ fit.coefficients)
    return PredictedWeights(
        "OLS", dm.country_ids, value, scatter(fit.sigma2), scatter(1, dtype=np.int8)
    )


def predict_ppml(fit: FitResult, dm: DesignMatrix) -> PredictedWeights:
    """Predict expected flow levels ``exp(x'g)`` for every ordered pair.

    Under the Poisson specification the conditional variance equals the
    conditional mean, so ``variance`` is a copy of ``value``.

    Raises
    ------
    PredictionOverflowError
        If any linear predictor exceeds the exponentiation limit; the
        message names the first offending dyad.
    """
    _check_fit_against(dm, fit, "PPML")
    scatter = _grid(dm)
    eta = dm.X @ fit.coefficients
    _guard_overflow(eta, dm, "count")
    value = scatter(np.exp(eta))
    return PredictedWeights(
        "PPML", dm.country_ids, value, value.copy(), scatter(1, dtype=np.int8)
    )


def predict_zip(zip_fit: ZipFitResult, dm: DesignMatrix) -> PredictedWeights:
    """Predict unconditional means ``(1 - psi) * mu`` under zero inflation.

    ``psi`` is the fitted probability of a structural zero and ``mu`` the
    count-stage mean.  The per-entry variance is
    ``mu * (1 - psi) * (1 + mu * psi)``, the variance of the zero-inflated
    Poisson mixture.
    """
    scatter, _, psi, mu = _zip_stages(zip_fit, dm)
    value = scatter((1.0 - psi) * mu)
    variance = scatter(mu * (1.0 - psi) * (1.0 + mu * psi))
    return PredictedWeights(
        "ZIP", dm.country_ids, value, variance, scatter(1, dtype=np.int8)
    )


def link_probabilities(fit: FitResult | ZipFitResult, dm: DesignMatrix) -> LinkProbabilityMatrix:
    """Probability that each directed link exists.

    The logit stage models the probability of a zero flow, so the link
    probability is its complement.  Accepts either a standalone logit fit
    on the zero-flow indicator or a zero-inflated result, whose logit part
    follows the same convention.

    All off-diagonal probabilities are strictly inside (0, 1); the
    diagonal is zero by convention.
    """
    from scipy.special import expit

    logit = fit.logit_part if isinstance(fit, ZipFitResult) else fit
    _check_fit_against(dm, logit, "LOGIT", "ZIP_LOGIT")
    scatter = _grid(dm)
    # expit is strictly inside (0, 1) for finite arguments, so xi is too.
    xi = scatter(1.0 - expit(dm.X @ logit.coefficients))
    return LinkProbabilityMatrix(dm.country_ids, xi)


def zero_flow_probability(
    zip_fit: ZipFitResult, dm: DesignMatrix, form: str = "consistent"
) -> np.ndarray:
    """Per-dyad probability of observing a zero flow.

    ``form="consistent"`` gives the zero mass of the mixture, evaluated in
    log space by ``estimation._zip_log_p0``.  ``form="printed"`` instead
    evaluates ``psi + (1 - psi) * mu``, a variant that circulates in
    applied work but is not a probability (it exceeds one for large
    ``mu``); it is provided for replication only.
    """
    if form not in ("consistent", "printed"):
        raise ValidationError(f"unknown zero-probability form {form!r}")
    scatter, u, psi, mu = _zip_stages(zip_fit, dm)
    if form == "consistent":
        return scatter(np.exp(_zip_log_p0(u, mu)))
    return scatter(psi + (1.0 - psi) * mu)


def _binary_from_threshold(xi: np.ndarray, s: float) -> np.ndarray:
    a = (xi > s).astype(np.int8)
    np.fill_diagonal(a, 0)
    return a


def density_induced_binary(link_probs: LinkProbabilityMatrix, rho: float) -> BinaryPrediction:
    """Threshold link probabilities at a fixed cutoff.

    A directed link is placed wherever the link probability strictly
    exceeds ``rho``.  The realized density of the thresholded matrix is
    reported alongside; it generally differs from ``rho`` itself.
    """
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"threshold must lie strictly in (0, 1), got {rho}")
    n = link_probs.n
    if n < 2:
        raise ValidationError("need at least two countries to threshold")
    return BinaryPrediction(_binary_from_threshold(link_probs.xi, rho), float(rho))


def threshold_matching_density(
    link_probs: LinkProbabilityMatrix, rho: float
) -> BinaryPrediction:
    """Place links on the highest-probability dyads to match a density.

    The target link count is ``round(rho * n * (n - 1))``.  Dyads are
    ranked by link probability; ties at the cutoff are broken by row-major
    dyad order, so the result is deterministic.  The reported threshold is
    the probability of the weakest placed link (zero when no link is
    placed).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValidationError(f"target density must lie in [0, 1], got {rho}")
    n = link_probs.n
    if n < 2:
        raise ValidationError("need at least two countries to threshold")
    pairs = n * (n - 1)
    target = int(round(rho * pairs))
    off = ~np.eye(n, dtype=bool)
    flat_idx = np.flatnonzero(off.ravel())
    probs = link_probs.xi.ravel()[flat_idx]
    # stable sort on negated values: equal probabilities keep row-major order
    order = np.argsort(-probs, kind="stable")
    chosen = flat_idx[order[:target]]
    a = np.zeros(n * n, dtype=np.int8)
    a[chosen] = 1
    threshold = float(probs[order[target - 1]]) if target > 0 else 0.0
    return BinaryPrediction(a.reshape(n, n), threshold)


def threshold_by_manhattan(
    link_probs: LinkProbabilityMatrix, observed: np.ndarray
) -> BinaryPrediction:
    """Choose the cutoff minimising Manhattan distance to an observed adjacency.

    Every distinct link probability is a candidate cutoff, plus zero so
    that the all-links configuration is reachable.  At cutoff ``s`` the
    distance ``sum |a_hat(s) - a|`` over ordered pairs is the number of
    observed links with probability at most ``s`` plus the number of
    non-links above ``s``: counts over sorted probabilities, taken for all
    candidates at once.  Ties go to the smallest cutoff.
    """
    n = link_probs.n
    if n < 2:
        raise ValidationError("need at least two countries to threshold")
    observed = np.asarray(observed)
    if observed.shape != (n, n):
        raise ValidationError(
            f"observed adjacency has shape {observed.shape}, expected {(n, n)}"
        )
    off = ~np.eye(n, dtype=bool)
    xi = link_probs.xi[off]
    linked = np.asarray(observed, dtype=float)[off] != 0
    candidates = np.unique(np.concatenate(([0.0], xi)))
    links, non_links = np.sort(xi[linked]), np.sort(xi[~linked])
    dist = np.searchsorted(links, candidates, side="right") + (
        non_links.size - np.searchsorted(non_links, candidates, side="right")
    )
    best = int(np.argmin(dist))
    best_s = float(candidates[best])
    best_dist = int(dist[best])
    a = _binary_from_threshold(link_probs.xi, best_s)
    return BinaryPrediction(a, best_s, manhattan_distance=best_dist)


def _substream(seed: int, replication: int) -> np.random.Generator:
    # counter-based keying: replication r is reproducible in isolation
    return np.random.Generator(np.random.Philox(key=[seed, replication]))


def _collect(stream: EnsembleStream, dtype) -> NetworkEnsemble:
    """The eager ensemble: every replication of ``stream`` in one stack."""
    reps = np.empty((stream.m, stream.n, stream.n), dtype=dtype)
    for r, w in enumerate(stream):
        reps[r] = w
    return NetworkEnsemble(stream.model_tag, stream.country_ids, reps, stream.seed, stream.mask)


def stream_bernoulli_ensemble(
    link_probs: LinkProbabilityMatrix,
    m: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
) -> EnsembleStream:
    """Binary networks with independent directed links, drawn on demand.

    Each replication draws one uniform per matrix entry and places a link
    where it falls below the link probability.  Diagonals stay empty.
    """
    n = link_probs.n
    xi = link_probs.xi
    off = ~np.eye(n, dtype=bool)
    return EnsembleStream(
        "BERNOULLI", link_probs.country_ids, m, seed, lambda g: (g.random((n, n)) < xi) & off
    )


def sample_bernoulli_ensemble(
    link_probs: LinkProbabilityMatrix,
    m: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
) -> NetworkEnsemble:
    """Every replication of :func:`stream_bernoulli_ensemble`, as 0/1 int8."""
    return _collect(stream_bernoulli_ensemble(link_probs, m, seed), np.int8)


def stream_weighted_ensemble(
    pred: PredictedWeights,
    m: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    link_probs: LinkProbabilityMatrix | None = None,
) -> EnsembleStream:
    """Weighted networks under the fitted model, drawn on demand.

    OLS replications add Gaussian noise with the fitted residual standard
    deviation to the predicted logs, only on the prediction mask; the
    draws live on the log scale.  Poisson replications draw counts at the
    predicted means on every ordered pair.  Zero-inflated replications
    first draw the binary structure from ``link_probs`` and then
    superimpose counts at the count-stage means ``mu = value / xi``;
    both random grids are drawn unconditionally so replication ``r`` is
    identical no matter which entries end up linked.
    """
    n = pred.n
    off = ~np.eye(n, dtype=bool)
    mask = None
    if pred.model_tag == "OLS":
        sd = np.sqrt(pred.variance)
        maskf = pred.mask.astype(float)
        mask = pred.mask

        def draw(g):
            return (pred.value + sd * g.standard_normal((n, n))) * maskf

    elif pred.model_tag == "PPML":

        def draw(g):
            return np.where(off, g.poisson(pred.value), 0.0)

    elif pred.model_tag == "ZIP":
        if link_probs is None:
            raise ValidationError("zero-inflated sampling needs link probabilities")
        if link_probs.country_ids != pred.country_ids:
            raise ValidationError("link probabilities cover different countries")
        xi = link_probs.xi
        mu = np.zeros((n, n))
        mu[off] = pred.value[off] / xi[off]

        def draw(g):
            # uniforms before counts: the order is part of the seeded format
            links = (g.random((n, n)) < xi) & off
            return np.where(links, g.poisson(mu), 0.0)

    else:
        raise ValidationError(f"cannot sample weighted networks for {pred.model_tag}")
    return EnsembleStream(pred.model_tag, pred.country_ids, m, seed, draw, mask)


def sample_weighted_ensemble(
    pred: PredictedWeights,
    m: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    link_probs: LinkProbabilityMatrix | None = None,
) -> NetworkEnsemble:
    """Every replication of :func:`stream_weighted_ensemble`, as float."""
    return _collect(stream_weighted_ensemble(pred, m, seed, link_probs), float)

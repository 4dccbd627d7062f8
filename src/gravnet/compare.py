"""Observed-versus-predicted comparison: K-S tests, ensemble summaries, reports.

Point predictions answer "what does the model say this network looks like";
the functions here answer "how far is that from the network we saw".  Node
statistics are compared with two-sample Kolmogorov-Smirnov tests, ensemble
spread turns into 95% confidence intervals, and closed-form variances of
average node strength are available for the three estimator families as an
independent check on the Monte Carlo machinery.  An ensemble is walked once:
each replication is validated into one network, every reported statistic is
taken from that network, and only the per-replication averages are kept.
Given an :class:`~gravnet.prediction.EnsembleStream`, each replication is
drawn, summarised and dropped, so memory does not grow with the ensemble size
beyond one scalar per replication and statistic.  An ensemble with a mask
(log-linear draws) has the mask as every replication's adjacency, so its
binary kinds and density are taken once and only its weighted kinds are
computed per replication.

Everything is pure computation over immutable inputs; replication order is
fixed, so reports are deterministic given the inputs and the ensemble seed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .netstats import (
    STAT_KINDS,
    WEIGHT_TRANSFORMS,
    WEIGHTED_KINDS,
    TradeNetwork,
    all_statistics,
    density,
    population_average,
    stat_correlation,
)
from .prediction import EnsembleStream, NetworkEnsemble, PredictedWeights

REPORT_VERSION = "1"

# default report grid: the total-direction variants of the six
# statistic families shown in the comparison tables
REPORT_KINDS = ("ND_tot", "ANND_tot", "BCC_tot", "NS_tot", "ANNS_tot", "WCC_tot")

# degree/strength against partner averages and clustering; the four
# economically interesting pairings tracked in the figures
CORRELATION_PAIRS = (
    ("NS_tot", "ANNS_tot"),
    ("NS_tot", "WCC_tot"),
    ("ND_tot", "ANND_tot"),
    ("ND_tot", "BCC_tot"),
)

# float(scipy.special.ndtri(0.975)) bit for bit, as a literal so that
# importing this module does not load scipy
_Z975 = 1.959963984540054


@dataclass(frozen=True)
class KsResult:
    """Two-sample Kolmogorov-Smirnov outcome."""

    d_statistic: float
    p_value: float
    n1: int
    n2: int


@dataclass(frozen=True)
class EnsembleSummary:
    """Across-replication location and spread of one network statistic.

    ``ci_low``/``ci_high`` are empirical 2.5/97.5 percentiles; the normal
    bounds ``mean +- 1.96 sd`` are emitted alongside since both appear in
    reporting.  ``m`` counts the replications actually summarised after
    dropping those where the statistic was undefined for every node.
    """

    kind: str
    mean: float
    sd: float
    ci_low: float
    ci_high: float
    normal_low: float
    normal_high: float
    m: int
    n_dropped: int = 0


@dataclass(frozen=True)
class StatComparison:
    """One (model, statistic) cell of the report grid."""

    model_tag: str
    kind: str
    observed_avg: float
    predicted_avg: float
    summary: EnsembleSummary | None
    ks: KsResult


@dataclass(frozen=True)
class CorrelationComparison:
    """Observed and predicted correlation between two node statistics."""

    model_tag: str
    kind_x: str
    kind_y: str
    observed_r: float
    predicted_r: float


@dataclass(frozen=True)
class ModelPrediction:
    """One model's predictions, packaged for report assembly.

    ``network`` is the point-prediction network (predicted weights, or an
    observed-mask network for the log-linear model).  ``transform`` is the
    weight transform under which this model's weighted statistics are
    computed; log-linear predictions already live on the log scale and use
    the identity.  Its model's tag is its key in the ``predictions`` of
    :func:`build_comparison_report`.
    """

    network: TradeNetwork
    ensemble: NetworkEnsemble | EnsembleStream | None = None
    transform: str = "identity"


@dataclass(frozen=True)
class ComparisonReport:
    year: int | None
    n_countries: int
    statistics: tuple[StatComparison, ...]
    correlations: tuple[CorrelationComparison, ...]
    report_version: str = REPORT_VERSION


def ks_two_sample(x, y) -> KsResult:
    """Exact two-sample K-S statistic with asymptotic p-value.

    The statistic is the supremum of the ECDF difference, attained at one
    of the pooled sample points, so evaluating there is exact.  The
    p-value uses the asymptotic Kolmogorov distribution at effective
    sample size ``n1 n2 / (n1 + n2)``.

    Parameters
    ----------
    x, y : array_like
        One-dimensional samples, at least one point each.

    Returns
    -------
    KsResult
    """
    from scipy.special import kolmogorov

    x = np.sort(np.asarray(x, dtype=float).ravel())
    y = np.sort(np.asarray(y, dtype=float).ravel())
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        raise ValidationError("K-S test requires non-empty samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("K-S test requires finite sample values")
    pooled = np.concatenate([x, y])
    cdf1 = np.searchsorted(x, pooled, side="right") / n1
    cdf2 = np.searchsorted(y, pooled, side="right") / n2
    d = float(np.abs(cdf1 - cdf2).max())
    ne = n1 * n2 / (n1 + n2)
    p = float(kolmogorov(np.sqrt(ne) * d))
    return KsResult(d, min(max(p, 0.0), 1.0), n1, n2)


def ensemble_summary(
    ens: NetworkEnsemble | EnsembleStream,
    kinds: tuple[str, ...],
    transform: str = "identity",
) -> tuple[EnsembleSummary, ...]:
    """Summarise statistics' population averages across replications.

    One pass over the ensemble, eager or streamed: each replication becomes
    one validated network, every requested kind is taken from it, and the
    replication is dropped before the next is drawn.  Kinds that cannot
    change between replications (the binary kinds and density of a masked
    ensemble) are taken from the first and counted for all ``m``.  For node
    statistics the per-replication value is the average over nodes where
    the statistic is defined; replications where it is defined nowhere are
    dropped (and counted).  The kind ``"density"`` summarises the scalar
    density instead.  Returns one summary per entry of ``kinds``, in order.

    Raises
    ------
    ValidationError
        If fewer than two replications exist, a kind or the transform is
        unknown, or a statistic is undefined in every replication.
    """
    if ens.m < 2:
        raise ValidationError(f"need at least 2 replications, got {ens.m}")
    if isinstance(kinds, str):
        raise ValidationError(f"kinds must be a sequence of kinds, not the string {kinds!r}")
    for kind in kinds:
        if kind not in STAT_KINDS and kind != "density":
            raise ValidationError(f"unknown statistic kind {kind!r}")
    if transform not in WEIGHT_TRANSFORMS:
        raise ValidationError(
            f"unknown weight transform {transform!r}; expected one of {WEIGHT_TRANSFORMS}"
        )
    # 8 bytes per kept value, against 32 for a list of Python floats
    values = {kind: array("d") for kind in kinds}
    # log-scale draws carry their support as the ensemble mask, since their
    # weights may be negative; level-scale draws have no mask.  With a mask
    # every replication's adjacency is the mask, so the binary kinds and the
    # density take one value, read from the first replication's network
    once = [] if ens.mask is None else [k for k in values if k not in WEIGHTED_KINDS]
    each = [kind for kind in values if kind not in once]
    for r, w in enumerate(ens):
        net = TradeNetwork(w, adjacency=ens.mask)
        if r == 0 and once:
            _append_values(values, net, once, transform, ens.m)
        _append_values(values, net, each, transform, 1)
    return tuple(_summarise(kind, values[kind], ens.m - len(values[kind])) for kind in kinds)


def _append_values(values: dict, net: TradeNetwork, kinds, transform: str, times: int) -> None:
    """Append each kind's value on ``net`` to ``values[kind]``, ``times`` times.

    A node statistic's value is its population average; one undefined at
    every node appends nothing, and ``ensemble_summary`` counts it dropped.
    """
    node_kinds = [kind for kind in kinds if kind != "density"]
    found = {}
    for kind, stat in all_statistics(net, node_kinds, transform).items():
        try:
            found[kind] = population_average(stat)[0]
        except ValidationError:
            pass  # undefined at every node
    if "density" in kinds:
        found["density"] = density(net)
    for kind, value in found.items():
        values[kind].extend(array("d", [value]) * times)


def _summarise(kind: str, values: array, dropped: int) -> EnsembleSummary:
    if not values:
        raise ValidationError(f"{kind}: undefined in every replication")
    arr = np.asarray(values)
    if arr.min() == arr.max():
        # degenerate ensemble: report the exact value, not summation noise
        v = float(arr[0])
        return EnsembleSummary(kind, v, 0.0, v, v, v, v, arr.size, dropped)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    lo, hi = (float(q) for q in np.percentile(arr, [2.5, 97.5]))
    return EnsembleSummary(
        kind, mean, sd, lo, hi, mean - _Z975 * sd, mean + _Z975 * sd, arr.size, dropped
    )


def analytical_var_avg_ns(pred: PredictedWeights) -> float:
    """Closed-form variance of the average node strength.

    The average out-strength is the total predicted weight over the node
    count, so its variance is the sum of per-dyad variances over the
    squared node count.  Each estimator family admits a closed form:

    * Poisson: variance equals the mean, giving ``avg NS / N``.
    * Zero-inflated: ``sum of mu (1 - psi) (1 + mu psi) / N^2``.
    * Log-linear: a constant residual variance on ``L`` observed dyads,
      giving ``rho sigma^2 (N - 1) / N`` at density ``rho``.

    In- and out-strengths share a grand total, so both directions have
    the same variance.
    """
    n = pred.n
    if n < 2:
        raise ValidationError("need at least two countries")
    if pred.model_tag == "PPML":
        avg_ns = float(pred.value.sum()) / n
        return avg_ns / n
    if pred.model_tag == "ZIP":
        return float(pred.variance.sum()) / (n * n)
    if pred.model_tag == "OLS":
        links = int(pred.mask.sum())
        rho = links / (n * (n - 1))
        if links == 0:
            return 0.0
        sigma2 = float(pred.variance[np.asarray(pred.mask) == 1][0])
        return rho * sigma2 * (n - 1) / n
    raise ValidationError(f"no closed-form variance for model {pred.model_tag}")


def _aligned_ids(observed_ids, tag: str, mp: ModelPrediction) -> None:
    ids = set(observed_ids)
    if mp.ensemble is not None:
        other = set(mp.ensemble.country_ids)
        if other != ids:
            missing = sorted(ids - other)
            extra = sorted(other - ids)
            raise ValidationError(
                f"{tag}: ensemble countries differ from observed "
                f"(missing {missing}, unexpected {extra})"
            )
    if mp.network.n != len(observed_ids):
        raise ValidationError(
            f"{tag}: predicted network has {mp.network.n} countries, "
            f"observed has {len(observed_ids)}"
        )


def _correlation_or_nan(stats: dict, kx: str, ky: str) -> float:
    try:
        return stat_correlation(stats[kx], stats[ky])
    except ValidationError:
        return float("nan")


def build_comparison_report(
    observed: TradeNetwork,
    observed_ids: tuple[str, ...],
    predictions: dict[str, ModelPrediction],
    year: int | None = None,
    kinds: tuple[str, ...] = REPORT_KINDS,
    observed_transform: str = "log_positive",
) -> ComparisonReport:
    """Assemble the statistic-by-model comparison grid.

    For every model and statistic kind: the observed population average,
    the same average on the model's point-prediction network, a K-S test
    between the observed and predicted node sequences (restricted to
    nodes where each is defined), and the ensemble confidence interval
    when an ensemble is supplied.  Correlations between paired statistics
    are reported for the observed network and each predicted network.

    ``observed_transform`` applies to the observed network's weighted
    statistics; each model brings its own transform.
    """
    if observed.n != len(observed_ids):
        raise ValidationError(
            f"observed network has {observed.n} nodes but {len(observed_ids)} ids"
        )
    if not predictions:
        raise ValidationError("no model predictions supplied")
    for tag, mp in predictions.items():
        _aligned_ids(observed_ids, tag, mp)

    pair_kinds = sorted({k for p in CORRELATION_PAIRS for k in p} | set(kinds))

    obs_stats = all_statistics(observed, pair_kinds, observed_transform)

    stat_rows = []
    corr_rows = []
    for tag in sorted(predictions):
        mp = predictions[tag]
        pred_stats = all_statistics(mp.network, pair_kinds, mp.transform)
        summaries = (
            (None,) * len(kinds)
            if mp.ensemble is None
            else ensemble_summary(mp.ensemble, kinds, mp.transform)
        )
        for kind, summary in zip(kinds, summaries):
            obs_vec = obs_stats[kind]
            pred_vec = pred_stats[kind]
            obs_avg, _ = population_average(obs_vec)
            pred_avg, _ = population_average(pred_vec)
            ks = ks_two_sample(
                obs_vec.values[obs_vec.defined], pred_vec.values[pred_vec.defined]
            )
            stat_rows.append(
                StatComparison(tag, kind, obs_avg, pred_avg, summary, ks)
            )
        for kx, ky in CORRELATION_PAIRS:
            corr_rows.append(
                CorrelationComparison(
                    tag,
                    kx,
                    ky,
                    _correlation_or_nan(obs_stats, kx, ky),
                    _correlation_or_nan(pred_stats, kx, ky),
                )
            )
    return ComparisonReport(
        year=year,
        n_countries=len(observed_ids),
        statistics=tuple(stat_rows),
        correlations=tuple(corr_rows),
    )


# a module-level function, not a method: callers name it through this
# module, so a rebinding of ``compare.report_as_dict`` reaches them all
def report_as_dict(report: ComparisonReport) -> dict:
    """JSON-ready view of a report; :func:`report_from_dict` reads it back."""
    return {
        "report_version": report.report_version,
        "year": report.year,
        "n_countries": report.n_countries,
        "statistics": [
            {
                "model": s.model_tag,
                "kind": s.kind,
                "observed_avg": s.observed_avg,
                "predicted_avg": s.predicted_avg,
                "ks_d": s.ks.d_statistic,
                "ks_p": s.ks.p_value,
                "ks_n_observed": s.ks.n1,
                "ks_n_predicted": s.ks.n2,
                "ensemble": None
                if s.summary is None
                else {
                    "mean": s.summary.mean,
                    "sd": s.summary.sd,
                    "ci_low": s.summary.ci_low,
                    "ci_high": s.summary.ci_high,
                    "normal_low": s.summary.normal_low,
                    "normal_high": s.summary.normal_high,
                    "m": s.summary.m,
                    "n_dropped": s.summary.n_dropped,
                },
            }
            for s in report.statistics
        ],
        "correlations": [
            {
                "model": c.model_tag,
                "x": c.kind_x,
                "y": c.kind_y,
                "observed_r": c.observed_r,
                "predicted_r": c.predicted_r,
            }
            for c in report.correlations
        ],
    }


def report_from_dict(payload: dict) -> ComparisonReport:
    """The report whose :func:`report_as_dict` is ``payload``."""
    statistics = []
    for s in payload["statistics"]:
        e = s["ensemble"]
        summary = None if e is None else EnsembleSummary(
            s["kind"], e["mean"], e["sd"], e["ci_low"], e["ci_high"],
            e["normal_low"], e["normal_high"], e["m"], e["n_dropped"],
        )
        ks = KsResult(s["ks_d"], s["ks_p"], s["ks_n_observed"], s["ks_n_predicted"])
        statistics.append(
            StatComparison(
                s["model"], s["kind"], s["observed_avg"], s["predicted_avg"], summary, ks
            )
        )
    correlations = tuple(
        CorrelationComparison(c["model"], c["x"], c["y"], c["observed_r"], c["predicted_r"])
        for c in payload["correlations"]
    )
    return ComparisonReport(
        payload["year"], payload["n_countries"], tuple(statistics), correlations,
        payload["report_version"],
    )

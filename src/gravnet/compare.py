"""Observed-versus-predicted comparison: K-S tests, ensemble summaries, reports.

Point predictions answer "what does the model say this network looks like";
the functions here answer "how far is that from the network we saw".  Node
statistics are compared with two-sample Kolmogorov-Smirnov tests, and
ensemble spread turns into 95% confidence intervals.  An ensemble is walked
once: each replication becomes one network, every reported statistic is
taken from that network, and only the per-replication averages are kept.
Every replication's weights are checked; a masked ensemble's adjacency only
once, at the first replication.
Given an :class:`~gravnet.prediction.EnsembleStream`, each replication is
drawn, summarised and dropped, so memory does not grow with the ensemble size
beyond one scalar per replication and statistic.  An ensemble with a mask
(log-linear draws) has the mask as every replication's adjacency, and each
replication is handed the first one's support, so its binary kinds, which
``netstats`` keeps on the support, are computed once, at the first.

Everything is pure computation over immutable inputs; replication order is
fixed, so reports are deterministic given the inputs and the ensemble seed.
A report holds one (year, model) cell's comparison and names neither: the
cell labels it.  ``gravnet compare`` builds one report per cell, stamped
with the cell's model and year, and runs its cells on every CPU the
process may use; a report's bytes do not depend on
the process that built it or on how many CPUs there are, and
``taskset -c 0 gravnet compare ...`` builds them serially.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .netstats import (
    TradeNetwork,
    all_statistics,
    check_statistics,
    population_average,
    stat_correlation,
)
from .prediction import EnsembleStream, NetworkEnsemble

REPORT_VERSION = "2"

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

# every kind a report reads from a network: the report grid and the
# correlation pairs
_NETWORK_KINDS = tuple(sorted({k for p in CORRELATION_PAIRS for k in p} | set(REPORT_KINDS)))

# scipy's standard normal 0.975 quantile bit for bit, as a literal so that
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
    """One statistic's row of a report."""

    kind: str
    observed_avg: float
    predicted_avg: float
    summary: EnsembleSummary
    ks: KsResult


@dataclass(frozen=True)
class CorrelationComparison:
    """Observed and predicted correlation between two node statistics."""

    kind_x: str
    kind_y: str
    observed_r: float
    predicted_r: float


@dataclass(frozen=True)
class ComparisonReport:
    """One (year, model) cell's comparison; the cell states which."""

    n_countries: int
    statistics: tuple[StatComparison, ...]
    correlations: tuple[CorrelationComparison, ...]
    report_version: str = REPORT_VERSION


def ks_two_sample(x, y) -> KsResult:
    """Exact two-sample K-S statistic with asymptotic p-value.

    The statistic is the supremum of the ECDF difference, attained at one
    of the pooled sample points, so evaluating there is exact.  The
    p-value uses the asymptotic Kolmogorov distribution at effective
    sample size ``n1 n2 / (n1 + n2)``, from :func:`_kolmogorov_sf`, which
    equals ``scipy.special.kolmogorov`` bit for bit without loading scipy.

    Parameters
    ----------
    x, y : array_like
        One-dimensional samples, at least one point each.

    Returns
    -------
    KsResult
    """
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
    return KsResult(d, _kolmogorov_sf(math.sqrt(ne) * d), n1, n2)


# the smallest argument scipy evaluates: below it the series' leading
# term exp(-pi^2 / (8 x^2)) underflows past log(DBL_MIN) = -708.396...
_KOLMOGOROV_CUTOVER_MIN = math.pi / math.sqrt(8 * 708.3964185322641)


def _kolmogorov_sf(x: float) -> float:
    """``scipy.special.kolmogorov(x)`` bit for bit, without importing scipy.

    The survival function of the Kolmogorov distribution, computed as
    scipy computes it: with the Jacobi-theta form of the series, three
    terms of it, up to 0.82, and with the alternating series, four terms
    of it, beyond, in the same order of operations and with the C
    library's ``exp``, ``log`` and ``pow`` that ``math`` also calls.
    """
    if math.isnan(x):
        return math.nan
    if x <= _KOLMOGOROV_CUTOVER_MIN:
        return 1.0
    if x <= 0.82:
        # cdf = w u (1 + u^8 + u^24 + u^48), u = exp(-pi^2 / (8 x^2))
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0:
            sf = 1 - math.exp(logu8 / 8 + math.log(w))
        else:
            u8 = math.exp(logu8)
            p = 1 + math.pow(u8, 3)
            p = 1 + u8 * u8 * p
            p = 1 + u8 * p
            sf = 1 - w * u * p
    else:
        # sf = 2 (v - v^4 + v^9 - v^16), v = exp(-2 x^2)
        v = math.exp(-2 * x * x)
        v3 = math.pow(v, 3)
        p = 1 - v3 * v3 * v
        p = 1 - v3 * (v * v) * p
        p = 1 - v3 * p
        sf = 2 * v * p
    return min(max(sf, 0.0), 1.0)


def ensemble_summary(
    ens: NetworkEnsemble | EnsembleStream, kinds: tuple[str, ...]
) -> tuple[EnsembleSummary, ...]:
    """Summarise statistics' population averages across replications.

    One pass over the ensemble, eager or streamed: each replication becomes
    one network, every requested kind is taken from it, and the
    replication is dropped before the next is drawn.  A masked ensemble's
    adjacency is validated once, at the first replication, and handed to
    every later one with the intermediates and binary statistics kept on
    it, so a later replication checks only its weights and computes no
    binary kind again.  A replication's value is the kind's average over
    the nodes where it is defined; one where it is defined nowhere is
    dropped (and counted).  Returns one summary per entry of ``kinds``, in
    order.

    Raises
    ------
    ValidationError
        If fewer than two replications exist, ``kinds`` is a string or
        names an unknown kind, a replication is not ``n`` by ``n`` (named
        by its index), or a statistic is undefined in every replication.
    """
    if ens.m < 2:
        raise ValidationError(f"need at least 2 replications, got {ens.m}")
    # refused before the first draw, not at the first replication
    check_statistics(kinds)
    # 8 bytes per kept value, against 32 for a list of Python floats
    values = {kind: array("d") for kind in kinds}
    shape = (ens.n, ens.n)
    adjacency = ens.mask
    for r, w in enumerate(ens):
        if np.shape(w) != shape:
            raise ValidationError(
                f"replication {r} has shape {np.shape(w)}, expected {shape}"
            )
        net = TradeNetwork(w, adjacency=adjacency)
        # log-scale draws carry their support as the ensemble mask, since
        # their weights may be negative: every later draw is on this one's
        if adjacency is not None:
            adjacency = net._support
        for kind, stat in all_statistics(net, kinds).items():
            try:
                values[kind].append(population_average(stat)[0])
            except ValidationError:
                continue  # undefined at every node: dropped
    return tuple(_summarise(kind, values[kind], ens.m - len(values[kind])) for kind in kinds)


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
    lo, hi = _percentiles(arr, (2.5, 97.5))
    return EnsembleSummary(
        kind, mean, sd, lo, hi, mean - _Z975 * sd, mean + _Z975 * sd, arr.size, dropped
    )


def _percentiles(arr: np.ndarray, percents) -> tuple:
    """``np.percentile(arr, percents)``, its default linear method, bit for
    bit, as floats, for percents strictly between 0 and 100 of two or more
    values.  These are numpy's steps: one partition of a copy at the order
    statistics either side of each percentile and at both ends, NaN
    everywhere when a NaN sorts last, and the interpolation from whichever
    side is nearer.  numpy takes the partition's positions with
    ``np.unique``, whose NaN check imports ``numpy.ma``; here a set does.
    """
    n = arr.size
    virtual = [(n - 1) * (percent / 100) for percent in percents]
    below = [math.floor(v) for v in virtual]
    ordered = np.partition(arr, sorted({0, -1, *below, *(k + 1 for k in below)}))
    if math.isnan(ordered[-1]):
        return (float(ordered[-1]),) * len(percents)
    values = []
    for v, k in zip(virtual, below):
        a, b = float(ordered[k]), float(ordered[k + 1])
        t = v - k
        diff = b - a
        values.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return tuple(values)


def check_countries(observed_ids, ids, what: str) -> None:
    """Refuse ``ids`` that are not the observed countries, naming the missing and unexpected."""
    missing = sorted(set(observed_ids) - set(ids))
    extra = sorted(set(ids) - set(observed_ids))
    if missing or extra:
        raise ValidationError(
            f"{what} countries differ from observed (missing {missing}, unexpected {extra})"
        )


def _correlation_or_nan(stats: dict, kx: str, ky: str) -> float:
    try:
        return stat_correlation(stats[kx], stats[ky])
    except ValidationError:
        return float("nan")


def build_comparison_report(
    observed: TradeNetwork,
    observed_ids: tuple[str, ...],
    network: TradeNetwork,
    ensemble: NetworkEnsemble | EnsembleStream,
) -> ComparisonReport:
    """Compare one model's predictions with the observed network.

    For every kind of :data:`REPORT_KINDS`: the observed population
    average, the same average on the point-prediction ``network``, a K-S
    test between the observed and predicted node sequences (restricted to
    nodes where each is defined), and the confidence band across
    ``ensemble``.  Correlations between paired statistics are reported for
    the observed and the predicted network.  The report is one (year,
    model) cell's and names neither: the cell labels it.

    Every network is taken as given: the caller hands ``observed`` on the
    scale the model predicts, as ``network`` and ``ensemble`` are, e.g. the
    observed log flows for a model that predicts logs (``netstats.SCALES``
    holds each scale).  An ensemble's mask is its draws' support only.
    """
    if observed.n != len(observed_ids):
        raise ValidationError(
            f"observed network has {observed.n} nodes but {len(observed_ids)} ids"
        )
    check_countries(observed_ids, ensemble.country_ids, "ensemble")
    if network.n != len(observed_ids):
        raise ValidationError(
            f"predicted network has {network.n} countries, observed has {len(observed_ids)}"
        )

    obs_stats = all_statistics(observed, _NETWORK_KINDS)
    pred_stats = all_statistics(network, _NETWORK_KINDS)
    summaries = ensemble_summary(ensemble, REPORT_KINDS)
    stat_rows = []
    for kind, summary in zip(REPORT_KINDS, summaries):
        obs_vec = obs_stats[kind]
        pred_vec = pred_stats[kind]
        obs_avg, _ = population_average(obs_vec)
        pred_avg, _ = population_average(pred_vec)
        ks = ks_two_sample(obs_vec.values[obs_vec.defined], pred_vec.values[pred_vec.defined])
        stat_rows.append(StatComparison(kind, obs_avg, pred_avg, summary, ks))
    corr_rows = tuple(
        CorrelationComparison(
            kx, ky, _correlation_or_nan(obs_stats, kx, ky), _correlation_or_nan(pred_stats, kx, ky)
        )
        for kx, ky in CORRELATION_PAIRS
    )
    return ComparisonReport(len(observed_ids), tuple(stat_rows), corr_rows)


# a module-level function, not a method: callers name it through this
# module, so a rebinding of ``compare.report_as_dict`` reaches them all
def report_as_dict(report: ComparisonReport) -> dict:
    """JSON-ready view of a report; :func:`report_from_dict` reads it back."""
    return {
        "report_version": report.report_version,
        "n_countries": report.n_countries,
        "statistics": [
            {
                "kind": s.kind,
                "observed_avg": s.observed_avg,
                "predicted_avg": s.predicted_avg,
                "ks_d": s.ks.d_statistic,
                "ks_p": s.ks.p_value,
                "ks_n_observed": s.ks.n1,
                "ks_n_predicted": s.ks.n2,
                "ensemble": {
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
        summary = EnsembleSummary(s["kind"], **s["ensemble"])
        ks = KsResult(s["ks_d"], s["ks_p"], s["ks_n_observed"], s["ks_n_predicted"])
        statistics.append(
            StatComparison(s["kind"], s["observed_avg"], s["predicted_avg"], summary, ks)
        )
    correlations = tuple(
        CorrelationComparison(c["x"], c["y"], c["observed_r"], c["predicted_r"])
        for c in payload["correlations"]
    )
    return ComparisonReport(
        payload["n_countries"], tuple(statistics), correlations, payload["report_version"]
    )

"""Directed-network statistics for weighted trade networks.

Conventions
-----------
``weights[i, j]`` is the flow from node ``i`` to node ``j``; diagonals are
zero.  In-quantities are column sums, out-quantities are row sums.  Every
statistic comes in the directed variants used for trade-network analysis:
degrees/strengths (in/out/tot), average nearest-neighbor degree/strength
(in_in/in_out/out_in/out_out/tot), and clustering coefficients over the four
directed triangular motifs (cyc/mid/in/out) plus an undirected total.

Nodes whose statistic has a non-positive denominator (e.g. clustering of a
node with a single bilateral partner) are flagged undefined rather than
zero-filled, and are excluded from averages and correlations.

The vectorized matrix-product forms used here are pinned against a naive
triple-loop implementation in the test suite; the loop form is normative.

Each statistic is one catalogue kind ``<FAMILY>_<variant>`` (``STAT_KINDS``),
computed by :func:`compute_statistic`, or by :func:`all_statistics` for
several at once.  ``ND``/``NS`` are degrees/strengths (in: partners
exporting to the node, out: partners it exports to, tot: both),
``ANND``/``ANNS`` neighbor averages (:func:`_neighbor_average`) and
``BCC``/``WCC`` binary/weighted clustering (:func:`_clustering`).  The
weighted families read the weights after a ``WEIGHT_TRANSFORMS`` transform.

Every statistic is read from one profile of the network: the float
adjacency, degrees, ``A + A^T``, transformed weights, strengths and cube-rooted
weights are each built on first use and kept, so a set of kinds computed
together by :func:`all_statistics` builds each of them at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

#: Weight transforms accepted by every weighted statistic. ``log_positive``
#: replaces each positive weight by its natural log (zeros stay zero), used
#: when comparing level-scale observations against log-scale predictions.
WEIGHT_TRANSFORMS = ("identity", "log_positive")

BINARY_KINDS = (
    "ND_in", "ND_out", "ND_tot",
    "ANND_in_in", "ANND_in_out", "ANND_out_in", "ANND_out_out", "ANND_tot",
    "BCC_cyc", "BCC_mid", "BCC_in", "BCC_out", "BCC_tot",
)

WEIGHTED_KINDS = (
    "NS_in", "NS_out", "NS_tot",
    "ANNS_in_in", "ANNS_in_out", "ANNS_out_in", "ANNS_out_out", "ANNS_tot",
    "WCC_cyc", "WCC_mid", "WCC_in", "WCC_out", "WCC_tot",
)

#: Full catalogue of node-statistic kinds.
STAT_KINDS = BINARY_KINDS + WEIGHTED_KINDS


@dataclass(frozen=True)
class TradeNetwork:
    """One directed network: an N x N weight matrix plus its adjacency.

    When ``adjacency`` is omitted it is derived as ``weights > 0``, which
    requires non-negative weights (level scale).  An explicit adjacency
    permits real-valued weights (e.g. log-scale predictions, where negative
    entries are meaningful); in that case weights must vanish off the
    adjacency support.
    """

    weights: np.ndarray
    adjacency: np.ndarray = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weights must be square, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValidationError("weights must be finite")
        if np.any(np.diag(w) != 0.0):
            raise ValidationError("weight matrix must have a zero diagonal")
        if self.adjacency is None:
            if np.any(w < 0.0):
                raise ValidationError(
                    "negative weights require an explicit adjacency matrix"
                )
            a = (w > 0.0).astype(np.int8)
        else:
            raw = np.asarray(self.adjacency)
            if raw.shape != w.shape:
                raise ValidationError(
                    f"adjacency shape {raw.shape} != weights shape {w.shape}"
                )
            if not np.isin(raw, (0, 1)).all():
                raise ValidationError("adjacency entries must be 0 or 1")
            a = raw.astype(np.int8)
            if np.any(np.diag(a) != 0):
                raise ValidationError("adjacency must have a zero diagonal")
            if np.any(w[a == 0] != 0.0):
                raise ValidationError("weights must be zero where adjacency is zero")
        w.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class NodeStatVector:
    """Per-node values of one statistic, with an explicit defined flag.

    ``values`` holds NaN at undefined entries; ``defined`` marks the nodes
    where the statistic exists.
    """

    kind: str
    values: np.ndarray
    defined: np.ndarray


def _transformed_weights(net: TradeNetwork, transform: str) -> np.ndarray:
    if transform == "identity":
        return net.weights
    if transform == "log_positive":
        out = np.zeros_like(net.weights)
        pos = net.weights > 0.0
        out[pos] = np.log(net.weights[pos])
        return out
    raise ValidationError(
        f"unknown weight transform {transform!r}; expected one of {WEIGHT_TRANSFORMS}"
    )


def _ratio_stat(kind: str, numer: np.ndarray, denom: np.ndarray) -> NodeStatVector:
    defined = denom > 0
    values = np.full(numer.shape, np.nan)
    values[defined] = numer[defined] / denom[defined]
    return NodeStatVector(kind=kind, values=values, defined=defined)


def _defined_everywhere(kind: str, values: np.ndarray) -> NodeStatVector:
    return NodeStatVector(kind=kind, values=values, defined=np.ones(values.size, dtype=bool))


class _Profile:
    """Intermediates one network's statistics share under one weight transform.

    Each is built on first use and at most once, so a subset of kinds pays
    only for the intermediates it reads.  ``a`` is the float adjacency,
    ``w`` the transformed weights and ``w_hat`` their element-wise cube
    roots; ``degree`` and ``strength`` map ``in``/``out``/``tot`` to the
    column sums, row sums and their total of ``a`` and ``w``.
    """

    def __init__(self, net: TradeNetwork, transform: str = "identity"):
        self.net = net
        self.transform = transform

    @cached_property
    def a(self) -> np.ndarray:
        return self.net.adjacency.astype(float)

    @cached_property
    def a_sym(self) -> np.ndarray:
        return self.a + self.a.T

    @cached_property
    def degree(self) -> dict:
        return _by_direction(self.a)

    @cached_property
    def k_recip(self) -> np.ndarray:
        return (self.a * self.a.T).sum(axis=1)

    @cached_property
    def w(self) -> np.ndarray:
        return _transformed_weights(self.net, self.transform)

    @cached_property
    def strength(self) -> dict:
        return _by_direction(self.w)

    @cached_property
    def w_hat(self) -> np.ndarray:
        return np.cbrt(self.w)


def _by_direction(m: np.ndarray) -> dict:
    col, row = m.sum(axis=0), m.sum(axis=1)
    return {"in": col, "out": row, "tot": col + row}


def _directed(kind: str, values: dict, direction: str) -> NodeStatVector:
    if direction not in values:
        raise ValidationError(f"unknown direction {direction!r}")
    return _defined_everywhere(kind, values[direction])


def _neighbor_average(kind: str, p: _Profile, neighbor: dict, variant: str) -> NodeStatVector:
    """Partner average of ``neighbor``, the partners' per-node values by direction.

    ``in_in``: average in-value (degree for ANND, strength for ANNS) of the
    node's suppliers; ``in_out``: average out-value of its suppliers;
    ``out_in``/``out_out``: the same over its customers.  The denominator is
    always the node's binary degree.  The ``tot`` form sums
    (a_ij + a_ji) x_j^tot over k_i^tot, so a reciprocated neighbor counts
    twice in numerator and denominator alike; that double counting is
    intentional.  Undefined where the denominator degree is 0.
    """
    k = p.degree
    if variant == "in_in":
        numer, denom = p.a.T @ neighbor["in"], k["in"]
    elif variant == "in_out":
        numer, denom = p.a.T @ neighbor["out"], k["in"]
    elif variant == "out_in":
        numer, denom = p.a @ neighbor["in"], k["out"]
    elif variant == "out_out":
        numer, denom = p.a @ neighbor["out"], k["out"]
    elif variant == "tot":
        numer, denom = p.a_sym @ neighbor["tot"], k["tot"]
    else:
        raise ValidationError(f"unknown variant {variant!r}")
    return _ratio_stat(kind, numer, denom)


def _clustering(kind: str, p: _Profile, variant: str, weighted: bool) -> NodeStatVector:
    """Shared motif machinery: triple products of m count motifs, where m is
    the adjacency for the binary case and the element-wise cube roots of the
    weights otherwise; the binary degrees drive the denominators.

    Variants: ``cyc`` (i->j->k->i), ``mid`` (i imports from j and exports to
    k, j->k), ``in`` (two suppliers of i trading), ``out`` (two customers of
    i trading), ``tot`` (all motifs, undirected total).  Weights are
    deliberately not rescaled into [0, 1], so a weighted value may exceed 1.
    """
    m = p.w_hat if weighted else p.a
    mt = m.T
    k_in, k_out, k_tot = p.degree["in"], p.degree["out"], p.degree["tot"]
    if variant == "cyc":
        numer = np.diag(m @ m @ m)
        denom = k_in * k_out - p.k_recip
    elif variant == "mid":
        numer = np.diag(m @ mt @ m)
        denom = k_in * k_out - p.k_recip
    elif variant == "in":
        numer = np.diag(mt @ m @ m)
        denom = k_in * (k_in - 1.0)
    elif variant == "out":
        numer = np.diag(m @ m @ mt)
        denom = k_out * (k_out - 1.0)
    elif variant == "tot":
        s = m + mt if weighted else p.a_sym
        numer = np.diag(s @ s @ s)
        denom = 2.0 * (k_tot * (k_tot - 1.0) - 2.0 * p.k_recip)
    else:
        raise ValidationError(f"unknown variant {variant!r}")
    return _ratio_stat(kind, numer, denom)


def _statistic(p: _Profile, kind: str) -> NodeStatVector:
    """One catalogue statistic, read from the network's profile."""
    family, _, rest = kind.partition("_")
    if family == "ND":
        return _directed(kind, p.degree, rest)
    if family == "NS":
        return _directed(kind, p.strength, rest)
    if family == "ANND":
        return _neighbor_average(kind, p, p.degree, rest)
    if family == "ANNS":
        return _neighbor_average(kind, p, p.strength, rest)
    if family == "BCC":
        return _clustering(kind, p, rest, weighted=False)
    if family == "WCC":
        return _clustering(kind, p, rest, weighted=True)
    raise ValidationError(f"unknown statistic kind {kind!r}")


def reciprocal_degree(net: TradeNetwork) -> NodeStatVector:
    """Number of bilateral partners: sum_j a_ij * a_ji."""
    return _defined_everywhere("ND_recip", _Profile(net).k_recip)


def density(net: TradeNetwork) -> float:
    """Fraction of possible directed links present: L / (N(N-1))."""
    if net.n < 2:
        raise ValidationError("density requires at least 2 nodes")
    return float(net.adjacency.sum()) / (net.n * (net.n - 1))


def compute_statistic(
    net: TradeNetwork, kind: str, transform: str = "identity"
) -> NodeStatVector:
    """Dispatch a statistic by catalogue kind (see ``STAT_KINDS``)."""
    return _statistic(_Profile(net, transform), kind)


def all_statistics(
    net: TradeNetwork, kinds=STAT_KINDS, transform: str = "identity"
) -> dict:
    """Compute a set of catalogue statistics, keyed by kind.

    The kinds share one profile of the network, so each intermediate
    (degrees, strengths, transformed weights, ...) is built once.
    """
    profile = _Profile(net, transform)
    return {kind: _statistic(profile, kind) for kind in kinds}


def population_average(stat: NodeStatVector) -> tuple:
    """Mean over defined nodes.

    Returns ``(average, n_excluded)`` where ``n_excluded`` counts the
    undefined nodes left out.  Raises if no node is defined.
    """
    n_defined = int(stat.defined.sum())
    if n_defined == 0:
        raise ValidationError(f"{stat.kind}: statistic undefined for every node")
    avg = float(stat.values[stat.defined].mean())
    return avg, stat.defined.size - n_defined


def stat_correlation(x: NodeStatVector, y: NodeStatVector) -> float:
    """Pearson correlation between two statistics over jointly-defined nodes."""
    joint = x.defined & y.defined
    if int(joint.sum()) < 3:
        raise ValidationError(
            f"correlation({x.kind}, {y.kind}): fewer than 3 jointly-defined nodes"
        )
    xv = x.values[joint]
    yv = y.values[joint]
    sx = xv.std()
    sy = yv.std()
    if sx == 0.0 or sy == 0.0:
        raise ValidationError(
            f"correlation({x.kind}, {y.kind}): zero variance, correlation undefined"
        )
    return float(((xv - xv.mean()) * (yv - yv.mean())).mean() / (sx * sy))

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
weighted families read the network's weights as given; a scale is a
network of its own, such as :func:`log_positive`, the log scale, or
:func:`binary`, the adjacency as weights (``SCALES`` names each).

Each statistic is kept on what it reads.  A binary kind reads only the
network's validated adjacency (its ``_support``) and is kept there, beside
the float adjacency, degrees, ``A + A^T``, reciprocated-partner counts and
ratio denominators, so the networks on one support (a network's scales, the
replications of a masked ensemble) compute it once between them.  A weighted
kind is kept on the network, beside its strengths and cube-rooted weights.
Each is built on first use and at most once, and weights that are the
adjacency bit for bit (0/1 weights) answer ``NS``/``ANNS``/``WCC`` with the
``ND``/``ANND``/``BCC`` values: the cube root of 1 is 1, so they are equal.

Clustering takes each motif sum with one matrix product and a row-wise
dot (:func:`_diag_of_product`), not the triple product's diagonal, which
computes a whole second product to keep its diagonal.  Binary clustering
multiplies its 0/1 (0/1/2 for ``tot``) factors in float32 up to
``_FLOAT32_COUNTS_MAX_N`` nodes, where every partial sum is an integer that
float32 holds exactly, so each count, and each BCC value, has the bits of
the float64 triple product.  Weighted clustering multiplies float64 cube
roots, whose sums round differently in the one-product form: WCC values sit
within a few ulps of the triple product's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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

#: The most nodes whose binary motif counts are exact in float32.  Every
#: partial sum of a count on 0/1/2 factors is an integer of at most 8n**2,
#: and 8 * 1448**2 < 2**24 < 8 * 1449**2.
_FLOAT32_COUNTS_MAX_N = 1448


class _built_once:
    """A lazily built attribute: ``functools.cached_property`` without the
    lock that one takes on every first access under Python 3.10 and 3.11.
    The value goes into the instance's ``__dict__``, which shadows this
    non-data descriptor from then on."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class _Support:
    """A validated adjacency and the intermediates that read it alone.

    Each network validates its adjacency into one of these; a network
    handed another's support as its adjacency checks only its weights
    against it, and shares everything built here.  ``a`` is the float
    adjacency, ``a_sym`` is ``A + A^T``, ``a_counts`` and ``a_sym_counts``
    are the two as binary clustering counts motifs on them, ``degree`` maps
    ``in``/``out``/``tot`` to the column sums, row sums and their total of
    ``a``, and ``k_recip`` counts each node's bilateral partners.  Each is
    built on first use and at most once, as is each ratio denominator
    (:func:`_denominator`) and each binary statistic (``stats``), which
    reads nothing else.
    """

    def __init__(self, adjacency: np.ndarray):
        adjacency.setflags(write=False)
        self.adjacency = adjacency
        self.denominators = {}
        self.stats = {}

    @_built_once
    def a(self) -> np.ndarray:
        return self.adjacency.astype(float)

    @_built_once
    def a_sym(self) -> np.ndarray:
        return self.a + self.a.T

    @_built_once
    def a_counts(self) -> np.ndarray:
        """``a`` in float32 up to ``_FLOAT32_COUNTS_MAX_N`` nodes, where
        every motif count is exact in it, and ``a`` itself above."""
        if self.adjacency.shape[0] > _FLOAT32_COUNTS_MAX_N:
            return self.a
        return self.adjacency.astype(np.float32)

    @_built_once
    def a_sym_counts(self) -> np.ndarray:
        """``A + A^T`` in the dtype of ``a_counts``."""
        return self.a_counts + self.a_counts.T

    @_built_once
    def degree(self) -> dict:
        return _by_direction(self.a)

    @_built_once
    def k_recip(self) -> np.ndarray:
        return (self.a * self.a.T).sum(axis=1)

    @_built_once
    def off(self) -> np.ndarray:
        """Flat positions of the adjacency's zeros."""
        return np.flatnonzero(self.adjacency == 0)

    @_built_once
    def everywhere(self) -> np.ndarray:
        """The ``defined`` flags of a statistic defined at every node."""
        defined = np.ones(self.adjacency.shape[0], dtype=bool)
        defined.setflags(write=False)
        return defined


def _validated_support(raw, shape) -> _Support:
    """``raw`` as a support for weights of ``shape``, or the refusal."""
    raw = np.asarray(raw)
    if raw.shape != shape:
        raise ValidationError(f"adjacency shape {raw.shape} != weights shape {shape}")
    if not ((raw == 0) | (raw == 1)).all():
        raise ValidationError("adjacency entries must be 0 or 1")
    a = raw.astype(np.int8)
    if a.diagonal().any():
        raise ValidationError("adjacency must have a zero diagonal")
    return _Support(a)


@dataclass(frozen=True)
class TradeNetwork:
    """One directed network: an N x N weight matrix plus its adjacency.

    When ``adjacency`` is omitted it is derived as ``weights > 0``, which
    requires non-negative weights (level scale).  An explicit adjacency
    permits real-valued weights (e.g. log-scale predictions, where negative
    entries are meaningful); in that case weights must vanish off the
    adjacency support.  Inside the package, ``adjacency`` may also be
    another network's ``_support``: the adjacency is then taken as already
    validated, only the weights are checked against it, and the
    intermediates and binary statistics built from it are shared.  What
    reads the weights too is built on first use and kept on the network.
    """

    weights: np.ndarray
    adjacency: np.ndarray = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weights must be square, got shape {w.shape}")
        # a NaN propagates through both reductions and an infinity is one of
        # them; ``initial`` keeps the 0 x 0 network, which has no entry
        lo, hi = w.min(initial=0.0), w.max(initial=0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("weights must be finite")
        if w.diagonal().any():
            raise ValidationError("weight matrix must have a zero diagonal")
        support = self.adjacency
        if support is None:
            if lo < 0.0:
                raise ValidationError(
                    "negative weights require an explicit adjacency matrix"
                )
            support = _Support((w > 0.0).view(np.int8))
        else:
            if not isinstance(support, _Support):
                support = _validated_support(support, w.shape)
            elif support.adjacency.shape != w.shape:
                raise ValidationError(
                    f"adjacency shape {support.adjacency.shape} != weights shape {w.shape}"
                )
            # w is finite here, so a nonzero is a number, and -0.0 is zero
            if w.take(support.off).any():
                raise ValidationError("weights must be zero where adjacency is zero")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "adjacency", support.adjacency)
        object.__setattr__(self, "_support", support)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @_built_once
    def _strength(self) -> dict:
        """``in``/``out``/``tot`` to the weights' column sums, row sums and sum."""
        return _by_direction(self.weights)

    @_built_once
    def _w_hat(self) -> np.ndarray:
        """The element-wise cube roots of the weights."""
        return np.cbrt(self.weights)

    @_built_once
    def _w_is_a(self) -> bool:
        """Whether the weights are ``a`` bit for bit, as 0/1 weights are: each
        weighted statistic then equals its binary twin, the cube root of 1
        being 1.  Bits, not values, so a -0.0 weight counts as a difference."""
        return bool((self.weights.view(np.uint64) == self._support.a.view(np.uint64)).all())

    @_built_once
    def _stats(self) -> dict:
        """The weighted statistics computed on this network, by kind."""
        return {}


@dataclass(frozen=True)
class NodeStatVector:
    """Per-node values of one statistic, with an explicit defined flag.

    ``values`` holds NaN at undefined entries; ``defined`` marks the nodes
    where the statistic exists.  Both are read-only: a weighted statistic
    read from its binary twin (on 0/1 weights) shares its arrays, and
    statistics with one denominator share their ``defined`` flags.
    """

    kind: str
    values: np.ndarray
    defined: np.ndarray

    def __post_init__(self):
        for name in ("values", "defined"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
            getattr(self, name).setflags(write=False)


def _node_stat(kind: str, values: np.ndarray, defined: np.ndarray) -> NodeStatVector:
    """``NodeStatVector(kind, values, defined)`` of arrays built here, which
    its ``__post_init__`` would keep as they are: ``values`` is set
    read-only, and ``defined`` is a read-only flag array already."""
    values.setflags(write=False)
    stat = object.__new__(NodeStatVector)
    stat.__dict__.update(kind=kind, values=values, defined=defined)
    return stat


def log_positive(net: TradeNetwork) -> TradeNetwork:
    """``net`` on the log scale: each positive weight replaced by its
    natural log, zeros kept, on ``net``'s adjacency, so a weight of 1
    (log 0) stays a link.  The scale on which level observations meet
    log-scale predictions."""
    w = net.weights
    return TradeNetwork(np.log(w, out=np.zeros_like(w), where=w > 0.0), net._support)


def binary(net: TradeNetwork) -> TradeNetwork:
    """``net`` on the binary scale: each link a weight of 1, on ``net``'s
    adjacency, so each weighted statistic equals its binary twin.  The
    scale on which observations meet a predicted adjacency."""
    return TradeNetwork(net._support.a, net._support)


#: Each comparison scale by label: a function from a network to the same
#: network on that scale.
SCALES = {"identity": lambda net: net, "log_positive": log_positive, "binary": binary}


def check_statistics(kinds) -> None:
    """Refuse a string of kinds, or a kind outside ``STAT_KINDS``.

    The one check of a statistics request: :func:`compute_statistic` and
    :func:`all_statistics` run it on entry, so everything below them may
    take the kinds as valid.
    """
    if isinstance(kinds, str):
        raise ValidationError(f"kinds must be a sequence of kinds, not the string {kinds!r}")
    for kind in kinds:
        if kind not in STAT_KINDS:
            raise ValidationError(f"unknown statistic kind {kind!r}")


#: Each ratio denominator, by name, from a support's intermediates: the
#: binary degrees (the partner averages) and the clustering denominators.
_DENOMINATORS = {
    "in": lambda s: s.degree["in"],
    "out": lambda s: s.degree["out"],
    "tot": lambda s: s.degree["tot"],
    "cyc_mid": lambda s: s.degree["in"] * s.degree["out"] - s.k_recip,
    "in_pairs": lambda s: s.degree["in"] * (s.degree["in"] - 1.0),
    "out_pairs": lambda s: s.degree["out"] * (s.degree["out"] - 1.0),
    "tot_pairs": lambda s: 2.0 * (s.degree["tot"] * (s.degree["tot"] - 1.0) - 2.0 * s.k_recip),
}


def _denominator(s: _Support, name: str) -> tuple:
    """``(divisor, defined)`` of the denominator ``name`` on ``s``, built once.

    ``defined`` is where the denominator is positive; ``divisor`` is the
    denominator there and NaN elsewhere, so one division gives a ratio
    statistic's values, NaN where undefined, with no division by zero.
    """
    pair = s.denominators.get(name)
    if pair is None:
        denom = _DENOMINATORS[name](s)
        defined = denom > 0
        defined.setflags(write=False)
        pair = s.denominators[name] = (np.where(defined, denom, np.nan), defined)
    return pair


def _ratio_stat(kind: str, numer: np.ndarray, s: _Support, denominator: str) -> NodeStatVector:
    divisor, defined = _denominator(s, denominator)
    return _node_stat(kind, numer / divisor, defined)


def _defined_everywhere(kind: str, s: _Support, values: np.ndarray) -> NodeStatVector:
    return _node_stat(kind, values, s.everywhere)


def _by_direction(m: np.ndarray) -> dict:
    col, row = m.sum(axis=0), m.sum(axis=1)
    return {"in": col, "out": row, "tot": col + row}


def _neighbor_average(kind: str, s: _Support, neighbor: dict, variant: str) -> NodeStatVector:
    """Partner average of ``neighbor``, the partners' per-node values by direction.

    ``in_in``: average in-value (degree for ANND, strength for ANNS) of the
    node's suppliers; ``in_out``: average out-value of its suppliers;
    ``out_in``/``out_out``: the same over its customers.  The denominator is
    always the node's binary degree.  The ``tot`` form sums
    (a_ij + a_ji) x_j^tot over k_i^tot, so a reciprocated neighbor counts
    twice in numerator and denominator alike; that double counting is
    intentional.  Undefined where the denominator degree is 0.
    """
    if variant == "in_in":
        numer, denom = s.a.T @ neighbor["in"], "in"
    elif variant == "in_out":
        numer, denom = s.a.T @ neighbor["out"], "in"
    elif variant == "out_in":
        numer, denom = s.a @ neighbor["in"], "out"
    elif variant == "out_out":
        numer, denom = s.a @ neighbor["out"], "out"
    else:  # tot
        numer, denom = s.a_sym @ neighbor["tot"], "tot"
    return _ratio_stat(kind, numer, s, denom)


def _clustering(kind: str, net: TradeNetwork, variant: str, weighted: bool) -> NodeStatVector:
    """Shared motif machinery: triple products of m count motifs, where m is
    the adjacency for the binary case (``a_counts``, float32 wherever that is
    exact) and the element-wise cube roots of the weights otherwise; the
    binary degrees drive the denominators, which the binary and weighted
    kinds of a variant share.

    Variants: ``cyc`` (i->j->k->i), ``mid`` (i imports from j and exports to
    k, j->k), ``in`` (two suppliers of i trading), ``out`` (two customers of
    i trading), ``tot`` (all motifs, undirected total).  Weights are
    deliberately not rescaled into [0, 1], so a weighted value may exceed 1.
    """
    s = net._support
    m = net._w_hat if weighted else s.a_counts
    mt = m.T
    if variant == "cyc":
        factors, denom = (m, m, m), "cyc_mid"
    elif variant == "mid":
        factors, denom = (m, mt, m), "cyc_mid"
    elif variant == "in":
        factors, denom = (mt, m, m), "in_pairs"
    elif variant == "out":
        factors, denom = (m, m, mt), "out_pairs"
    else:  # tot
        sym = m + mt if weighted else s.a_sym_counts
        factors, denom = (sym, sym, sym), "tot_pairs"
    # a float32 count divides as the float64 integer it is
    return _ratio_stat(kind, _diag_of_product(*factors), s, denom)


def _diag_of_product(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``diag(x @ y @ z)``, as one product and a row-wise dot.

    Row i is the dot of row i of ``x @ y`` with column i of ``z``, so the
    second product, of which the diagonal keeps n of n**2 entries, is never
    formed.  On 0/1/2 factors every partial sum is an integer, exact in
    the factors' dtype below its bound (``_FLOAT32_COUNTS_MAX_N`` for
    float32), and the result equals the triple product's diagonal bit for
    bit; on other factors it is within rounding of it.
    """
    return np.vecdot(x @ y, z.T)


#: The binary statistic each weighted one equals when the weights are the
#: adjacency (``NS_in`` -> ``ND_in``, ...).
_BINARY_TWIN = dict(zip(WEIGHTED_KINDS, BINARY_KINDS))


def _statistic(net: TradeNetwork, kind: str) -> NodeStatVector:
    """One catalogue statistic on ``net``, kept on what it reads: a binary
    kind on the network's support, a weighted kind on the network."""
    twin = _BINARY_TWIN.get(kind)
    stats = net._support.stats if twin is None else net._stats
    stat = stats.get(kind)
    if stat is None:
        if twin is not None and net._w_is_a:
            same = _statistic(net, twin)
            stat = _node_stat(kind, same.values, same.defined)
        else:
            stat = _compute(net, kind)
        stats[kind] = stat
    return stat


def _compute(net: TradeNetwork, kind: str) -> NodeStatVector:
    """One catalogue statistic, computed from the network's intermediates."""
    s = net._support
    family, _, rest = kind.partition("_")
    if family == "ND":
        return _defined_everywhere(kind, s, s.degree[rest])
    if family == "NS":
        return _defined_everywhere(kind, s, net._strength[rest])
    if family == "ANND":
        return _neighbor_average(kind, s, s.degree, rest)
    if family == "ANNS":
        return _neighbor_average(kind, s, net._strength, rest)
    return _clustering(kind, net, rest, weighted=family == "WCC")


def link_density(links, n: int) -> float:
    """Share of the n(n-1) ordered pairs of n nodes that ``links`` links
    fill: an integer count over an integer, correctly rounded."""
    return float(links) / (n * (n - 1))


def density(net: TradeNetwork) -> float:
    """Fraction of possible directed links present: L / (N(N-1))."""
    if net.n < 2:
        raise ValidationError("density requires at least 2 nodes")
    return link_density(net.adjacency.sum(), net.n)


def compute_statistic(net: TradeNetwork, kind: str) -> NodeStatVector:
    """Dispatch a statistic by catalogue kind (see ``STAT_KINDS``)."""
    check_statistics((kind,))
    return _statistic(net, kind)


def all_statistics(net: TradeNetwork, kinds=STAT_KINDS) -> dict:
    """Compute a set of catalogue statistics, keyed by kind.

    Each statistic, and each intermediate it reads (degrees, strengths,
    cube-rooted weights, ...), is built once and kept: a kind already
    taken on ``net``, or a binary kind already taken on its support, is
    not computed again.
    """
    check_statistics(kinds)
    return {kind: _statistic(net, kind) for kind in kinds}


def population_average(stat: NodeStatVector) -> tuple:
    """Mean over defined nodes.

    Returns ``(average, n_excluded)`` where ``n_excluded`` counts the
    undefined nodes left out.  Raises if no node is defined.
    """
    n_defined = np.count_nonzero(stat.defined)
    if n_defined == 0:
        raise ValidationError(f"{stat.kind}: statistic undefined for every node")
    n_excluded = stat.defined.size - n_defined
    # what ndarray.mean computes (one add.reduce, one division by the
    # count), bit for bit, without its Python-level dispatch; with every
    # node defined the selection would copy the same values in order
    kept = stat.values[stat.defined] if n_excluded else stat.values
    return float(kept.sum() / n_defined), n_excluded


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

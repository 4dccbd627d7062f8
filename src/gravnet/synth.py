"""Synthetic trade panels with known generating parameters.

Self-verification needs data where the right answer is known.  The
generator draws country attributes and bilateral covariates, builds the
same log-linear index the estimators target, and produces flows under one
of three noise regimes:

* ``zip``: a structural-zero stage followed by Poisson counts, the full
  two-part generative process.
* ``poisson``: Poisson counts only (no structural zeros).
* ``lognormal``: strictly positive flows with Gaussian noise on the log
  scale, the regime the log-linear estimator assumes.

Intercepts are centered automatically: after drawing covariates, the
count-stage intercept is set so the mean log intensity equals
``mean_log_flow`` exactly on that year's grid, and the zero-stage
intercept likewise targets ``mean_zero_score``.  The realized intercepts
are part of the recorded truth.

Each year draws from ``Generator(Philox(key=[seed, year]))``, so a year's
data depends only on (seed, year) and files are byte-identical across
runs.  The draw order within a year is fixed and documented in
``generate_year``.

The byte format of every artifact, the panel's and each stage's, is stated
here too: a CSV file is ``_csv_text``, a JSON file ``_json_dump``, and an
array inside a JSON file ``_encode_array``, the base64 of its C-order
little-endian bytes with its dtype and shape, which ``_decode_array`` reads
back bit for bit.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError
from .estimation import _expit, _log_expit, _zip_log_p0
from .panel import COUNTRY_COLUMNS, DYAD_COLUMNS

NOISE_KINDS = ("zip", "poisson", "lognormal")

#: Covariates the generator's indices are built on (a compact subset of
#: the full design catalogue; recovery tests fit exactly these).
GENERATOR_COVARIATES = ("const", "ln_gdp_i", "ln_gdp_j", "ln_dist", "contig", "rta")

GAMMA_SLOPES = (1.0, 0.9, -1.0, 0.4, 0.3)
THETA_SLOPES = (-0.8, -0.7, 0.9, -0.5, -0.4)


@dataclass(frozen=True)
class SynthSpec:
    """Complete description of a synthetic panel."""

    n_countries: int = 50
    years: tuple[int, ...] = (2000,)
    noise: str = "zip"
    seed: int = 0
    mean_log_flow: float = 7.0
    mean_zero_score: float = 0.0
    sigma_log: float = 0.7
    gamma_slopes: tuple[float, ...] = GAMMA_SLOPES
    theta_slopes: tuple[float, ...] = THETA_SLOPES

    def __post_init__(self) -> None:
        if self.n_countries < 5:
            raise ValidationError(
                f"need at least 5 countries, got {self.n_countries}"
            )
        if not self.years:
            raise ValidationError("years must be non-empty")
        if len(set(self.years)) != len(self.years):
            raise ValidationError("years must be unique")
        # (seed, year) keys a year's Philox generator as two int64s; beyond
        # them numpy overflows or casts the key through a float
        outside = [year for year in self.years if not -(2**63) <= year < 2**63]
        if outside:
            raise ValidationError(f"years must lie in [-2**63, 2**63), got {outside[0]}")
        if not 0 <= self.seed < 2**63:
            raise ValidationError(f"seed must lie in [0, 2**63), got {self.seed}")
        if self.noise not in NOISE_KINDS:
            raise ValidationError(
                f"unknown noise kind {self.noise!r}; expected one of {NOISE_KINDS}"
            )
        for name in ("mean_log_flow", "mean_zero_score", "sigma_log"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma_log <= 0.0:
            raise ValidationError(f"sigma_log must be positive, got {self.sigma_log!r}")
        want = len(GENERATOR_COVARIATES) - 1
        if len(self.gamma_slopes) != want or len(self.theta_slopes) != want:
            raise ValidationError(f"slope vectors must have length {want}")
        for name in ("gamma_slopes", "theta_slopes"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValidationError(
                    f"{name} must be finite, got {list(getattr(self, name))}"
                )


@dataclass(frozen=True)
class YearDraw:
    """One synthetic cross section plus the parameters that produced it."""

    year: int
    country_ids: tuple[str, ...]
    countries: dict[str, np.ndarray]
    dyads: dict[str, np.ndarray]
    weights: np.ndarray
    gamma: tuple[float, ...]
    theta: tuple[float, ...] | None
    expected_zero_share: float


def _symmetric_bernoulli(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    draw = rng.random((n, n)) < p
    upper = np.triu(draw, k=1)
    return (upper | upper.T).astype(np.int8)


def _symmetric_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    draw = rng.random((n, n))
    upper = np.triu(draw, k=1)
    return upper + upper.T


def _poisson_counts(rng: np.random.Generator, mu: np.ndarray, spec: SynthSpec, year: int):
    """Poisson draws of means ``mu``, as floats; a mean numpy refuses (NaN,
    or above its ``lam`` limit of about 9.2e18) is a ``ValidationError``."""
    try:
        return rng.poisson(mu).astype(float)
    except ValueError as exc:
        raise ValidationError(
            f"mean_log_flow {spec.mean_log_flow!r} with gamma_slopes "
            f"{list(spec.gamma_slopes)} gives year {year} Poisson means "
            f"numpy cannot draw ({exc})"
        ) from None


def generate_year(spec: SynthSpec, year: int) -> YearDraw:
    """Draw one year.

    The call sequence on the year's generator is fixed: country
    attributes (log GDP, log area, log population, landlockedness,
    continent), then bilateral covariates (log distance, contiguity,
    language, colonial ties, religion, currency, GSP, RTA), then the
    noise draws the regime needs.  Changing this order changes every
    seeded artifact, so treat it as part of the format.

    A spec that gives an index, a Poisson mean or a lognormal flow numpy
    cannot draw or the floats cannot hold raises ``ValidationError``
    naming its fields.
    """
    if year not in spec.years:
        raise ValidationError(f"year {year} not in spec years {spec.years}")
    n = spec.n_countries
    rng = np.random.Generator(np.random.Philox(key=[spec.seed, year]))

    ln_gdp = rng.normal(9.0, 1.2, n)
    ln_area = rng.normal(11.0, 1.5, n)
    ln_pop = rng.normal(15.0, 1.3, n)
    landlocked = (rng.random(n) < 0.2).astype(np.int8)
    continent = rng.integers(1, 6, n).astype(np.int64)

    ln_dist = np.zeros((n, n))
    upper = np.triu_indices(n, k=1)
    half = rng.normal(8.0, 0.9, len(upper[0]))
    ln_dist[upper] = half
    ln_dist = ln_dist + ln_dist.T

    dyads = {
        "contig": _symmetric_bernoulli(rng, n, 0.05),
        "comlang_off": _symmetric_bernoulli(rng, n, 0.15),
        "comcol": _symmetric_bernoulli(rng, n, 0.10),
        "colony": (rng.random((n, n)) < 0.03).astype(np.int8),
        "curcol": (rng.random((n, n)) < 0.01).astype(np.int8),
        "comrelig": _symmetric_uniform(rng, n),
        "comcur": _symmetric_bernoulli(rng, n, 0.02),
        "gsp": (rng.random((n, n)) < 0.20).astype(np.int8),
        "rta": _symmetric_bernoulli(rng, n, 0.10),
    }
    dyads["distance"] = np.exp(ln_dist)

    off = ~np.eye(n, dtype=bool)

    def index(slopes):
        # the generator's regressors, in GENERATOR_COVARIATES order after const
        s1, s2, s3, s4, s5 = slopes
        return (
            s1 * ln_gdp[:, None]
            + s2 * ln_gdp[None, :]
            + s3 * ln_dist
            + s4 * dyads["contig"]
            + s5 * dyads["rta"]
        )

    # a value beyond the float range is refused below, naming the spec field
    with np.errstate(over="ignore", invalid="ignore"):
        flow_index = index(spec.gamma_slopes)
        const_gamma = spec.mean_log_flow - float(flow_index[off].mean())
        log_mu = const_gamma + flow_index
        mu = np.exp(log_mu)
    gamma = (const_gamma, *spec.gamma_slopes)

    theta = None
    # p0: each dyad's probability of a zero flow
    if spec.noise == "lognormal":
        noise = rng.standard_normal((n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.exp(log_mu + spec.sigma_log * noise)
        drawn = weights[off]
        if not 0.0 < drawn.min() <= drawn.max() < np.inf:
            raise ValidationError(
                f"mean_log_flow {spec.mean_log_flow!r} with sigma_log {spec.sigma_log!r} "
                f"gives year {year} lognormal flows outside the positive floats"
            )
        p0 = np.zeros((n, n))
    elif spec.noise == "poisson":
        weights = _poisson_counts(rng, mu, spec, year)
        p0 = np.exp(-mu)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            score = index(spec.theta_slopes)
            const_theta = spec.mean_zero_score - float(score[off].mean())
            u = const_theta + score
        if not np.isfinite(u).all():
            raise ValidationError(
                f"mean_zero_score {spec.mean_zero_score!r} with theta_slopes "
                f"{list(spec.theta_slopes)} gives year {year} a non-finite zero-stage score"
            )
        theta = (const_theta, *spec.theta_slopes)
        structural = rng.random((n, n)) < _expit(u)
        counts = _poisson_counts(rng, mu, spec, year)
        weights = np.where(structural, 0.0, counts)
        p0 = np.exp(_zip_log_p0(_log_expit(u), _log_expit(-u), mu))
    weights = np.where(off, weights, 0.0)
    expected_zero_share = float(p0[off].mean())

    countries = {
        "gdp": np.exp(ln_gdp),
        "area": np.exp(ln_area),
        "population": np.exp(ln_pop),
        "landlocked": landlocked,
        "continent": continent,
    }
    ids = tuple(f"C{k:03d}" for k in range(n))
    return YearDraw(
        year=year,
        country_ids=ids,
        countries=countries,
        dyads=dyads,
        weights=weights,
        gamma=gamma,
        theta=theta,
        expected_zero_share=expected_zero_share,
    )


def _temp_write(directory: str, data) -> str:
    """Write ``data`` to a new temp file in ``directory`` and return its name;
    text is written as UTF-8 whatever the locale, bytes as they are."""
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _atomic_write(path: str, data) -> None:
    """Write ``data`` to ``path`` through ``_temp_write`` beside it and a rename."""
    tmp = _temp_write(os.path.dirname(path) or ".", data)
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    """One header line, then one line per row, each row straight to ``csv.writer``.

    A cell must be a ``str``, an ``int``, a ``float``, a ``numpy.int64``, a
    ``numpy.float64`` or ``None``. The writer spells a float by its
    shortest round-tripping ``repr``, so a value reads back with the same
    bits, an integer in decimal and ``None`` as an empty cell. A ``bool``
    is not a cell: the writer spells it ``True``, not ``1``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_csv(path: str, header, rows) -> None:
    _atomic_write(path, _csv_text(header, rows))


def _json_dump(payload) -> str:
    """The text of every JSON artifact: ``json.dumps`` with ``indent=2`` and
    sorted keys, and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_json(path: str, payload) -> None:
    _atomic_write(path, _json_dump(payload))


def _encode_array(a, dtype: str) -> dict:
    """``a`` as a JSON object: ``{"dtype": dtype, "shape": [...], "base64": ...}``.

    ``base64`` is the standard, padded base64 of the array's C-order bytes at
    ``dtype``, ``"<f8"`` or ``"|i1"``, so little-endian on any host.
    :func:`_decode_array` reads it back bit for bit.
    """
    a = np.ascontiguousarray(a, dtype=dtype)
    data = base64.b64encode(a.tobytes()).decode("ascii")
    return {"dtype": dtype, "shape": list(a.shape), "base64": data}


def _decode_array(encoded, key: str, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """The read-only array that :func:`_encode_array` wrote as ``encoded``,
    bit for bit: NaN keeps its sign and payload, and -0.0 stays -0.0.

    Raises
    ------
    SchemaError
        Naming ``key``, unless ``encoded`` is an encoded ``dtype`` array of
        ``shape`` whose text is base64 of exactly its bytes.
    """
    if not isinstance(encoded, dict):
        raise SchemaError(f"{key!r} is not an encoded array")
    if encoded.get("dtype") != dtype:
        raise SchemaError(f"{key!r} has dtype {encoded.get('dtype')!r}, expected {dtype!r}")
    if encoded.get("shape") != list(shape):
        raise SchemaError(f"{key!r} has shape {encoded.get('shape')!r}, expected {list(shape)}")
    try:
        data = base64.b64decode(encoded.get("base64"), validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise SchemaError(f"{key!r} is not base64 text") from None
    want = math.prod(shape) * np.dtype(dtype).itemsize
    if len(data) != want:
        raise SchemaError(f"{key!r} holds {len(data)} bytes, expected {want} for {list(shape)}")
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def _country_rows(draw: YearDraw):
    c = draw.countries
    years = [draw.year] * len(draw.country_ids)
    return zip(draw.country_ids, years, *(c[col].tolist() for col in COUNTRY_COLUMNS[2:]))


def _dyad_rows(draw: YearDraw):
    """Off-diagonal dyads in exporter-major order, the order panels load in."""
    i, j = np.nonzero(~np.eye(len(draw.country_ids), dtype=bool))
    ids = draw.country_ids
    values = [draw.weights[i, j]] + [draw.dyads[col][i, j] for col in DYAD_COLUMNS[4:]]
    return zip(
        [ids[k] for k in i.tolist()],
        [ids[k] for k in j.tolist()],
        [draw.year] * len(i),
        *(v.tolist() for v in values),
    )


def _truth_payload(spec: SynthSpec, draws: list[YearDraw]) -> dict:
    years = {}
    for draw in draws:
        years[str(draw.year)] = {
            "gamma": list(draw.gamma),
            "theta": None if draw.theta is None else list(draw.theta),
            "expected_zero_share": draw.expected_zero_share,
        }
    return {
        "noise": spec.noise,
        "seed": spec.seed,
        "n_countries": spec.n_countries,
        "covariates": list(GENERATOR_COVARIATES),
        "sigma_log": spec.sigma_log if spec.noise == "lognormal" else None,
        "mean_log_flow": spec.mean_log_flow,
        "mean_zero_score": spec.mean_zero_score,
        "years": years,
    }


def write_synth_panel(spec: SynthSpec, out_dir: str) -> dict[str, str]:
    """Write dyads.csv, countries.csv, and truth.json under ``out_dir``.

    Files land atomically (temp file plus rename) and their bytes are a
    pure function of the spec.  Returns the three paths.
    """
    draws = [generate_year(spec, year) for year in sorted(spec.years)]
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "dyads": os.path.join(out_dir, "dyads.csv"),
        "countries": os.path.join(out_dir, "countries.csv"),
        "truth": os.path.join(out_dir, "truth.json"),
    }
    _write_csv(paths["dyads"], DYAD_COLUMNS, (r for d in draws for r in _dyad_rows(d)))
    _write_csv(paths["countries"], COUNTRY_COLUMNS, (r for d in draws for r in _country_rows(d)))
    _write_json(paths["truth"], _truth_payload(spec, draws))
    return paths

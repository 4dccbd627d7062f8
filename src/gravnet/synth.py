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
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimation import _zip_log_p0
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
        if self.noise not in NOISE_KINDS:
            raise ValidationError(
                f"unknown noise kind {self.noise!r}; expected one of {NOISE_KINDS}"
            )
        if self.sigma_log <= 0.0:
            raise ValidationError("sigma_log must be positive")
        want = len(GENERATOR_COVARIATES) - 1
        if len(self.gamma_slopes) != want or len(self.theta_slopes) != want:
            raise ValidationError(f"slope vectors must have length {want}")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


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


def generate_year(spec: SynthSpec, year: int) -> YearDraw:
    """Draw one year.

    The call sequence on the year's generator is fixed: country
    attributes (log GDP, log area, log population, landlockedness,
    continent), then bilateral covariates (log distance, contiguity,
    language, colonial ties, religion, currency, GSP, RTA), then the
    noise draws the regime needs.  Changing this order changes every
    seeded artifact, so treat it as part of the format.
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

    flow_index = index(spec.gamma_slopes)
    const_gamma = spec.mean_log_flow - float(flow_index[off].mean())
    log_mu = const_gamma + flow_index
    mu = np.exp(log_mu)
    gamma = (const_gamma, *spec.gamma_slopes)

    theta = None
    # p0: each dyad's probability of a zero flow
    if spec.noise == "lognormal":
        noise = rng.standard_normal((n, n))
        weights = np.exp(log_mu + spec.sigma_log * noise)
        p0 = np.zeros((n, n))
    elif spec.noise == "poisson":
        weights = rng.poisson(mu).astype(float)
        p0 = np.exp(-mu)
    else:
        from scipy.special import expit

        score = index(spec.theta_slopes)
        const_theta = spec.mean_zero_score - float(score[off].mean())
        u = const_theta + score
        theta = (const_theta, *spec.theta_slopes)
        structural = rng.random((n, n)) < expit(u)
        counts = rng.poisson(mu).astype(float)
        weights = np.where(structural, 0.0, counts)
        p0 = np.exp(_zip_log_p0(u, mu))
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


def _render(value) -> str:
    """CSV cell text: repr for floats so values round-trip exactly."""
    kind = type(value)  # exact built-in types first: they fill most cells
    if kind is float:
        return repr(value)
    if kind is int or isinstance(value, str):
        return str(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 via a temp file and a rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header, rows) -> None:
    """One header line, then one line per row, every cell through ``_render``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_render, row) for row in rows)
    _atomic_write(path, buf.getvalue())


def _write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    os.makedirs(out_dir, exist_ok=True)
    draws = [generate_year(spec, year) for year in sorted(spec.years)]
    paths = {
        "dyads": os.path.join(out_dir, "dyads.csv"),
        "countries": os.path.join(out_dir, "countries.csv"),
        "truth": os.path.join(out_dir, "truth.json"),
    }
    _write_csv(paths["dyads"], DYAD_COLUMNS, (r for d in draws for r in _dyad_rows(d)))
    _write_csv(paths["countries"], COUNTRY_COLUMNS, (r for d in draws for r in _country_rows(d)))
    _write_json(paths["truth"], _truth_payload(spec, draws))
    return paths

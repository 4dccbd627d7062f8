"""Dyadic trade-panel ingestion.

Loads the two canonical CSV files (directed dyad flows with bilateral
covariates, and country-year size covariates), assembles per-year
cross-sections as weight/adjacency matrices, builds gravity design matrices
with logged size and distance regressors, and computes the concentration
summary table.

Dyads absent from the input file are treated as zero flows.  Bilateral
covariates, however, must be present for every dyad that enters a design
matrix; a zero flow is data, a missing covariate is not.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError
from .netstats import TradeNetwork

DYAD_COLUMNS = (
    "exporter", "importer", "year", "flow", "distance",
    "contig", "comlang_off", "comcol", "colony", "curcol",
    "comrelig", "comcur", "gsp", "rta",
)

COUNTRY_COLUMNS = (
    "country", "year", "gdp", "area", "population", "landlocked", "continent",
)

#: Bilateral 0/1 covariates carried on each dyad row.
DYAD_DUMMIES = (
    "contig", "comlang_off", "comcol", "colony", "curcol", "comcur", "gsp", "rta",
)

#: How each design column is filled: (source, field, logged). The source is
#: "const", the exporter country "i", the importer country "j" or the dyad
#: record "dyad"; a logged field must be strictly positive.
_DESIGN_SPEC = {
    "const": ("const", None, False),
    "ln_gdp_i": ("i", "gdp", True),
    "ln_gdp_j": ("j", "gdp", True),
    "ln_dist": ("dyad", "distance", True),
    "ln_area_i": ("i", "area", True),
    "ln_area_j": ("j", "area", True),
    "ln_pop_i": ("i", "population", True),
    "ln_pop_j": ("j", "population", True),
    "landl_i": ("i", "landlocked", False),
    "landl_j": ("j", "landlocked", False),
    "continent_i": ("i", "continent", False),
    "continent_j": ("j", "continent", False),
    "contig": ("dyad", "contig", False),
    "comlang_off": ("dyad", "comlang_off", False),
    "comcol": ("dyad", "comcol", False),
    "colony": ("dyad", "colony", False),
    "curcol": ("dyad", "curcol", False),
    "comrelig": ("dyad", "comrelig", False),
    "comcur": ("dyad", "comcur", False),
    "gsp": ("dyad", "gsp", False),
    "rta": ("dyad", "rta", False),
}

#: Canonical gravity regressors, in column order. ``_i`` marks the exporter,
#: ``_j`` the importer.
DESIGN_COLUMNS = tuple(_DESIGN_SPEC)


@dataclass(frozen=True)
class CountryRecord:
    country_id: str
    gdp: float
    area: float
    population: float
    landlocked: int
    continent: int


@dataclass(frozen=True)
class DyadRecord:
    exporter: str
    importer: str
    year: int
    flow: float
    distance: float
    contig: int
    comlang_off: int
    comcol: int
    colony: int
    curcol: int
    comrelig: float
    comcur: int
    gsp: int
    rta: int


@dataclass(frozen=True)
class DyadPanel:
    """Parsed panel: per-year dyad and country tables."""

    dyads: dict
    countries: dict
    n_rows: int

    @property
    def years(self) -> tuple:
        return tuple(sorted(set(self.dyads) | set(self.countries)))

    def countries_for(self, year: int) -> dict:
        return self.countries.get(year, {})

    def dyads_for(self, year: int) -> dict:
        return self.dyads.get(year, {})


@dataclass(frozen=True)
class CrossSection:
    """One year's observed network: countries plus weight/adjacency matrices."""

    year: int
    countries: tuple
    weights: np.ndarray
    adjacency: np.ndarray

    @property
    def n(self) -> int:
        return len(self.countries)

    @property
    def country_ids(self) -> tuple:
        return tuple(c.country_id for c in self.countries)

    def network(self) -> TradeNetwork:
        return TradeNetwork(self.weights)


@dataclass(frozen=True)
class DesignMatrix:
    """Stacked dyadic regression data: one row per ordered country pair."""

    year: int
    rows: tuple
    columns: tuple
    X: np.ndarray
    y: np.ndarray
    a: np.ndarray

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    def log_flows(self) -> np.ndarray:
        """ln(flow) response; valid only when every row has a positive flow."""
        if np.any(self.y <= 0.0):
            idx = int(np.argmax(self.y <= 0.0))
            raise ValidationError(
                f"log response undefined: dyad {self.rows[idx]} has flow "
                f"{self.y[idx]}"
            )
        return np.log(self.y)


@dataclass(frozen=True)
class SummaryStats:
    year: int
    n_countries: int
    n_flows: int
    density: float
    avg_trade: float
    countries_50: int
    countries_90: int
    flows_50: int
    flows_90: int
    pct_countries_50: float
    pct_countries_90: float
    pct_flows_50: float
    pct_flows_90: float


def _parse_float(raw, column, path, line):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{path}: line {line}: column {column!r} is not a number: {raw!r}"
        ) from None


def _parse_int(raw, column, path, line):
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{path}: line {line}: column {column!r} is not an integer: {raw!r}"
        ) from None


def _parse_bool(raw, column, path, line):
    value = _parse_int(raw, column, path, line)
    if value not in (0, 1):
        raise ValidationError(
            f"{path}: line {line}: column {column!r} must be 0 or 1, got {raw!r}"
        )
    return value


def _open_reader(path, required, mapping):
    mapping = dict(mapping or {})
    unknown = set(mapping) - set(required)
    if unknown:
        raise SchemaError(f"{path}: column mapping names unknown fields {sorted(unknown)}")
    handle = open(path, newline="", encoding="utf-8")
    reader = csv.DictReader(handle)
    header = reader.fieldnames or []
    missing = [
        canonical for canonical in required
        if mapping.get(canonical, canonical) not in header
    ]
    if missing:
        handle.close()
        raise SchemaError(f"{path}: missing required column(s) {missing}")
    return handle, reader, mapping


def load_panel(dyads_path, countries_path, dyad_columns=None, country_columns=None):
    """Read the dyad and country CSV files into a validated panel.

    ``dyad_columns`` / ``country_columns`` optionally map canonical column
    names to the names actually used in the files.

    Raises
    ------
    SchemaError
        A required column is absent.
    ValidationError
        A row fails a range or uniqueness check; the message carries the
        file path and physical line number.
    """
    countries = {}
    handle, reader, mapping = _open_reader(
        countries_path, COUNTRY_COLUMNS, country_columns
    )
    with handle:
        for row in reader:
            line = reader.line_num

            def cfield(name, row=row, line=line):
                return row.get(mapping.get(name, name)), name, countries_path, line

            raw, name, path, ln = cfield("country")
            if not raw:
                raise ValidationError(f"{path}: line {ln}: empty country id")
            country_id = raw.strip()
            year = _parse_int(*cfield("year"))
            gdp = _parse_float(*cfield("gdp"))
            area = _parse_float(*cfield("area"))
            population = _parse_float(*cfield("population"))
            landlocked = _parse_bool(*cfield("landlocked"))
            continent = _parse_int(*cfield("continent"))
            if not gdp > 0 or not area > 0 or not population > 0:
                raise ValidationError(
                    f"{countries_path}: line {line}: gdp, area and population "
                    f"must be strictly positive for {country_id!r}"
                )
            table = countries.setdefault(year, {})
            if country_id in table:
                raise ValidationError(
                    f"{countries_path}: line {line}: duplicate country "
                    f"{country_id!r} for year {year}"
                )
            table[country_id] = CountryRecord(
                country_id=country_id,
                gdp=gdp,
                area=area,
                population=population,
                landlocked=landlocked,
                continent=continent,
            )

    dyads = {}
    n_rows = 0
    handle, reader, mapping = _open_reader(dyads_path, DYAD_COLUMNS, dyad_columns)
    with handle:
        for row in reader:
            line = reader.line_num

            def dfield(name, row=row, line=line):
                return row.get(mapping.get(name, name)), name, dyads_path, line

            exporter = (dfield("exporter")[0] or "").strip()
            importer = (dfield("importer")[0] or "").strip()
            if not exporter or not importer:
                raise ValidationError(
                    f"{dyads_path}: line {line}: empty exporter or importer id"
                )
            if exporter == importer:
                raise ValidationError(
                    f"{dyads_path}: line {line}: exporter equals importer "
                    f"({exporter!r})"
                )
            year = _parse_int(*dfield("year"))
            flow = _parse_float(*dfield("flow"))
            if not flow >= 0:
                raise ValidationError(
                    f"{dyads_path}: line {line}: negative flow {flow}"
                )
            distance = _parse_float(*dfield("distance"))
            if not distance > 0:
                raise ValidationError(
                    f"{dyads_path}: line {line}: distance must be strictly "
                    f"positive, got {distance}"
                )
            comrelig = _parse_float(*dfield("comrelig"))
            if not 0.0 <= comrelig <= 1.0:
                raise ValidationError(
                    f"{dyads_path}: line {line}: comrelig must lie in [0, 1], "
                    f"got {comrelig}"
                )
            dummies = {
                name: _parse_bool(*dfield(name)) for name in DYAD_DUMMIES
            }
            table = dyads.setdefault(year, {})
            key = (exporter, importer)
            if key in table:
                raise ValidationError(
                    f"{dyads_path}: line {line}: duplicate dyad "
                    f"{exporter!r}->{importer!r} for year {year}"
                )
            table[key] = DyadRecord(
                exporter=exporter,
                importer=importer,
                year=year,
                flow=flow,
                distance=distance,
                comrelig=comrelig,
                **dummies,
            )
            n_rows += 1

    return DyadPanel(dyads=dyads, countries=countries, n_rows=n_rows)


def build_cross_section(panel: DyadPanel, year: int) -> CrossSection:
    """Assemble one year's weight and adjacency matrices.

    Countries are ordered by id; dyads missing from the file enter as zero
    flows.  A dyad row whose endpoint has no country record that year is an
    inconsistency and raises.
    """
    table = panel.countries_for(year)
    if not table:
        raise ValidationError(f"year {year} not present in the country table")
    countries = tuple(table[cid] for cid in sorted(table))
    index = {c.country_id: pos for pos, c in enumerate(countries)}
    n = len(countries)
    weights = np.zeros((n, n))
    for (exporter, importer), record in panel.dyads_for(year).items():
        if exporter not in index or importer not in index:
            raise ValidationError(
                f"dyad {exporter!r}->{importer!r} ({year}) references a country "
                f"with no record that year"
            )
        weights[index[exporter], index[importer]] = record.flow
    adjacency = (weights > 0.0).astype(np.int8)
    weights.setflags(write=False)
    adjacency.setflags(write=False)
    return CrossSection(
        year=year, countries=countries, weights=weights, adjacency=adjacency
    )


def build_design_matrix(
    cs: CrossSection,
    panel: DyadPanel,
    covariates=None,
    positive_only: bool = False,
) -> DesignMatrix:
    """Stack gravity regressors for every ordered dyad of a cross-section.

    With ``positive_only`` the rows are restricted to dyads with a positive
    observed flow (the log-linear estimation sample); otherwise all N(N-1)
    dyads enter.  Bilateral covariates are required for every included dyad
    unless none of the selected columns is bilateral.  Rows are in
    exporter-major order.
    """
    columns = tuple(covariates) if covariates is not None else DESIGN_COLUMNS
    unknown = [c for c in columns if c not in DESIGN_COLUMNS]
    if unknown:
        raise SchemaError(f"unknown design column(s) {unknown}")
    if len(set(columns)) != len(columns):
        raise SchemaError("duplicate design column requested")

    exp_idx, imp_idx = np.nonzero(~np.eye(cs.n, dtype=bool))
    y = cs.weights[exp_idx, imp_idx]
    if positive_only:
        keep = y > 0.0
        exp_idx, imp_idx, y = exp_idx[keep], imp_idx[keep], y[keep]
    ids = cs.country_ids
    rows = tuple(
        (ids[i], ids[j]) for i, j in zip(exp_idx.tolist(), imp_idx.tolist())
    )

    records = []
    if any(_DESIGN_SPEC[c][0] == "dyad" for c in columns):
        table = panel.dyads_for(cs.year)
        records = [table.get(row) for row in rows]
        missing = [row for row, record in zip(rows, records) if record is None]
        if missing:
            exporter, importer = missing[0]
            raise ValidationError(
                f"dyad {exporter!r}->{importer!r} ({cs.year}) "
                f"has no bilateral covariates"
            )
    gathers = {
        "i": (cs.countries, exp_idx),
        "j": (cs.countries, imp_idx),
        "dyad": (records, slice(None)),
    }

    X = np.empty((len(rows), len(columns)))
    for k, col in enumerate(columns):
        source, name, logged = _DESIGN_SPEC[col]
        if source == "const":
            X[:, k] = 1.0
            continue
        items, index = gathers[source]
        values = np.array([getattr(item, name) for item in items], dtype=float)[index]
        if logged:
            bad = np.flatnonzero(~(values > 0))
            if bad.size:
                exporter, importer = rows[bad[0]]
                raise ValidationError(
                    f"dyad {exporter!r}->{importer!r}: column {col!r} requires a "
                    f"strictly positive value, got {values[bad[0]]}"
                )
            values = np.log(values)
        X[:, k] = values

    a = (y > 0.0).astype(np.int8)
    X.setflags(write=False)
    y.setflags(write=False)
    a.setflags(write=False)
    return DesignMatrix(year=cs.year, rows=rows, columns=columns, X=X, y=y, a=a)


def _minimal_count(sorted_desc: np.ndarray, share: float) -> int:
    """Smallest k with top-k sum >= share of the full sum. Ties at the cutoff
    resolve by inclusion, which the >= comparison delivers on its own."""
    total = float(sorted_desc.sum())
    if total <= 0.0:
        return 0
    target = share * total
    cumulative = 0.0
    for k, value in enumerate(sorted_desc, start=1):
        cumulative += float(value)
        if cumulative >= target:
            return k
    return len(sorted_desc)


def summary_stats(cs: CrossSection) -> SummaryStats:
    """Concentration summary of one cross-section.

    Flow concentration sorts the positive directed flows; country
    concentration sorts total country trade (exports plus imports).  Each
    count is the minimal number of items whose running total reaches the
    stated share of its own grand total.
    """
    n = cs.n
    if n < 2:
        raise ValidationError("summary statistics require at least 2 countries")
    n_flows = int(cs.adjacency.sum())
    density = n_flows / (n * (n - 1))
    total = float(cs.weights.sum())
    avg_trade = total / n_flows if n_flows else 0.0

    flows_desc = np.sort(cs.weights[cs.weights > 0.0])[::-1]
    country_totals = cs.weights.sum(axis=0) + cs.weights.sum(axis=1)
    countries_desc = np.sort(country_totals)[::-1]

    countries_50 = _minimal_count(countries_desc, 0.5)
    countries_90 = _minimal_count(countries_desc, 0.9)
    flows_50 = _minimal_count(flows_desc, 0.5)
    flows_90 = _minimal_count(flows_desc, 0.9)

    return SummaryStats(
        year=cs.year,
        n_countries=n,
        n_flows=n_flows,
        density=density,
        avg_trade=avg_trade,
        countries_50=countries_50,
        countries_90=countries_90,
        flows_50=flows_50,
        flows_90=flows_90,
        pct_countries_50=100.0 * countries_50 / n,
        pct_countries_90=100.0 * countries_90 / n,
        pct_flows_50=100.0 * flows_50 / n_flows if n_flows else 0.0,
        pct_flows_90=100.0 * flows_90 / n_flows if n_flows else 0.0,
    )

"""Dyadic trade-panel ingestion.

Loads the two canonical CSV files (directed dyad flows with bilateral
covariates, and country-year size covariates) into a columnar panel,
assembles per-year cross-sections as weight/adjacency matrices, builds
gravity design matrices with logged size and distance regressors, and
computes the concentration summary table.

Columns are found by their header names; there is no column mapping, so a
file with other names must be renamed before loading.  Both files are read
with ``csv.reader`` in blocks of rows, and each block is converted column
by column with ``float()`` and ``int()``, so every value has the bits those
give.  Blank lines are skipped.  Integer fields must fit in int64.  Each row
check is one boolean mask plus its message; the fault reported is the first
failed check of the first failing row, and its message names the file and
the physical line on which that row ends (a quoted field may span lines).

``read_panel`` keeps a copy of the parsed panel, ``DyadPanel.as_bytes``,
keyed by the sha256 of both files, and reads it instead of parsing when
the files still have those bytes.

Dyads absent from the input file are treated as zero flows.  Bilateral
covariates, however, must be present for every dyad that enters a design
matrix; a zero flow is data, a missing covariate is not.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError
from .netstats import TradeNetwork, link_density

DYAD_COLUMNS = (
    "exporter", "importer", "year", "flow", "distance",
    "contig", "comlang_off", "comcol", "colony", "curcol",
    "comrelig", "comcur", "gsp", "rta",
)

COUNTRY_COLUMNS = (
    "country", "year", "gdp", "area", "population", "landlocked", "continent",
)

#: Per-country fields a cross-section carries, one array each.
COUNTRY_FIELDS = COUNTRY_COLUMNS[2:]

#: Bilateral 0/1 covariates carried on each dyad row.
DYAD_DUMMIES = (
    "contig", "comlang_off", "comcol", "colony", "curcol", "comcur", "gsp", "rta",
)

#: How each design column is filled: (source, field, logged). The source is
#: "const", the exporter country "i", the importer country "j" or the dyad
#: row "dyad"; a logged field must be strictly positive.
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
class DyadPanel:
    """Parsed panel as columns, one array per field in file row order.

    ``countries`` holds the country file's fields and ``dyads`` the dyad
    file's.  Country ids are indices into ``ids``, the sorted ids of both
    files: ``country`` in the country table, ``exporter`` and ``importer``
    in the dyad table.
    """

    ids: tuple
    countries: dict
    dyads: dict

    @property
    def n_rows(self) -> int:
        return len(self.dyads["year"])

    @property
    def years(self) -> tuple:
        years = np.concatenate((self.dyads["year"], self.countries["year"]))
        return tuple(_distinct(years).tolist())

    def as_bytes(self, sources: dict) -> bytes:
        """The stored copy of this panel, parsed from the files whose sha256s
        ``sources`` gives under ``"dyads"`` and ``"countries"``.

        Line one names the format version and line two holds the sha256 of
        everything after it: a header line, which is UTF-8 JSON of the two
        file digests, ``ids`` and each column's table, name, dtype and
        shape, and then every column's raw bytes in header order.  Spaces
        after the header and zero bytes after each column start every
        column at a multiple of 8 bytes, so a column read in place is
        aligned.  The bytes depend on nothing but the panel and the digests.
        """
        columns = [(table, name, array) for table in ("countries", "dyads")
                   for name, array in getattr(self, table).items()]
        header = {
            "countries": sources["countries"],
            "dyads": sources["dyads"],
            "ids": list(self.ids),
            "columns": [[table, name, a.dtype.str, list(a.shape)] for table, name, a in columns],
        }
        line = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
        # the payload follows the format line, the 64-digit sha256, this line
        # and a newline after each
        line += b" " * (-(len(_COPY_FORMAT) + 64 + len(line) + 3) % 8)
        body = b"\n".join(
            [line, b"".join(a.tobytes() + bytes(-a.nbytes % 8) for _, _, a in columns)]
        )
        return b"\n".join([_COPY_FORMAT, hashlib.sha256(body).hexdigest().encode(), body])

    @classmethod
    def from_bytes(cls, data, sources: dict):
        """The panel that ``as_bytes(sources)`` stored in ``data``, or None
        when ``data`` is no such copy: another format version, other file
        digests, or a truncated or altered byte.  Nothing is unpickled.

        ``data`` is ``bytes`` or a ``bytearray``.  Nothing but the header
        line is copied: each column is a view of ``data``, writable when
        ``data`` is, as a parse leaves it.
        """
        try:
            view = memoryview(data)
            digest_at = data.index(b"\n") + 1
            body_at = data.index(b"\n", digest_at) + 1
            payload_at = data.index(b"\n", body_at) + 1
            if view[:digest_at - 1] != _COPY_FORMAT or (
                view[digest_at:body_at - 1] != hashlib.sha256(view[body_at:]).hexdigest().encode()
            ):
                return None
            header = json.loads(bytes(view[body_at:payload_at - 1]))
            if any(header[name] != sources[name] for name in ("countries", "dyads")):
                return None
            tables, offset = {"countries": {}, "dyads": {}}, payload_at
            for table, name, dtype, shape in header["columns"]:
                dtype, count = np.dtype(dtype), math.prod(shape)
                tables[table][name] = np.frombuffer(data, dtype, count, offset).reshape(shape)
                nbytes = count * dtype.itemsize
                offset += nbytes + -nbytes % 8
            if offset != len(data):
                return None
            return cls(tuple(header["ids"]), tables["countries"], tables["dyads"])
        except (ValueError, KeyError, TypeError):
            return None


@dataclass(frozen=True)
class CrossSection:
    """One year's observed network: the country ids in order, one array per
    country field of ``COUNTRY_FIELDS`` in the same order, the
    weight/adjacency matrices, and ``dyad_rows``, the panel's dyad row of
    each ordered pair (-1 where the file has none)."""

    year: int
    country_ids: tuple
    countries: dict
    weights: np.ndarray
    adjacency: np.ndarray
    dyad_rows: np.ndarray

    @property
    def n(self) -> int:
        return len(self.country_ids)

    def network(self) -> TradeNetwork:
        return TradeNetwork(self.weights)


@dataclass(frozen=True)
class DesignMatrix:
    """Stacked dyadic regression data: one row per ordered country pair.

    ``country_ids`` is the cross-section's id ordering and ``exporter`` and
    ``importer`` hold each row's positions in it: row ``k`` is the dyad
    ``country_ids[exporter[k]] -> country_ids[importer[k]]``, so the same
    positions place a per-row prediction on the n-by-n grid.  The position
    arrays, ``X`` and ``y`` are read-only, so what a fit computes from a
    design once stays true of it.
    """

    country_ids: tuple
    exporter: np.ndarray
    importer: np.ndarray
    columns: tuple
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.country_ids)
        for name in ("exporter", "importer"):
            index = np.asarray(getattr(self, name))
            valid = index.shape == (self.n_obs,) and (
                index.size == 0
                or (index.dtype.kind in "iu" and index.min() >= 0 and index.max() < n)
            )
            if not valid:
                raise SchemaError(
                    f"{name} positions must be {self.n_obs} indices into "
                    f"{n} country ids"
                )
            index.setflags(write=False)
            object.__setattr__(self, name, index)
        for array in (self.X, self.y):
            array.setflags(write=False)

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    def dyad(self, k: int) -> tuple:
        """(exporter id, importer id) of row ``k``."""
        return self.country_ids[self.exporter[k]], self.country_ids[self.importer[k]]

    def log_flows(self) -> np.ndarray:
        """ln(flow) response; valid only when every row has a positive flow."""
        if np.any(self.y <= 0.0):
            idx = int(np.argmax(self.y <= 0.0))
            raise ValidationError(
                f"log response undefined: dyad {self.dyad(idx)} has flow "
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


#: First line of a stored panel copy; a copy of another version is ignored.
_COPY_FORMAT = b"gravnet-panel-copy 3"

#: Rows converted at a time; bounds the transient text a load holds.
_BLOCK_ROWS = 4096


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``values``, as ``np.unique`` gives
    them: one sort and an adjacent-difference mask, without ``np.unique``'s
    NaN check, which imports ``numpy.ma`` into every process that calls it."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _blocks(reader):
    """Non-blank rows in blocks of ``_BLOCK_ROWS``, each row with the
    physical line it ends on. The last block may be empty."""
    rows, lines = [], []
    for row in reader:
        if row:
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == _BLOCK_ROWS:
                yield rows, lines
                rows, lines = [], []
    yield rows, lines


class _Table:
    """Converts one CSV file into columns, a block of rows at a time.

    Every row check is recorded once per block, as a boolean mask over the
    block's rows and the message for an offending row, in the order a row
    is read: its fields left to right, each converted and then
    range-checked, and last whether its key repeats an earlier row's.
    ``raise_fault`` reports the first failed check of the first failing row.
    """

    def __init__(self, path, header, codes):
        self.path, self.width, self.codes = path, len(header), codes
        # a repeated header name reads its last column, as in csv.DictReader
        self.where = {name: k for k, name in enumerate(header)}
        self.seen = set()  # keys of the rows read so far

    def start(self, rows, lines):
        if any(len(row) < self.width for row in rows):
            # a short row's missing fields read as None, as in csv.DictReader
            rows = [row + [None] * (self.width - len(row)) for row in rows]
        self.columns = list(zip(*rows)) or [()] * self.width
        self.lines, self.size, self.checks = lines, len(rows), []

    def raw(self, name) -> tuple:
        return self.columns[self.where[name]]

    def check(self, mask, message) -> None:
        self.checks.append((mask, message))

    def flags(self, test, *columns) -> np.ndarray:
        return np.fromiter(map(test, *columns), bool, self.size)

    def text(self, name) -> list:
        """Stripped ids; a missing field reads as empty."""
        return [(raw or "").strip() for raw in self.raw(name)]

    def code(self, ids) -> np.ndarray:
        """Ids as codes in order of first appearance over the whole load."""
        codes = self.codes
        return np.fromiter((codes.setdefault(c, len(codes)) for c in ids), np.intp, self.size)

    def repeats(self, *columns) -> np.ndarray:
        """Flags each row whose key columns equal an earlier row's."""
        seen, flags = self.seen, []
        for key in zip(*(column.tolist() for column in columns)):
            flags.append(key in seen)
            seen.add(key)
        return np.array(flags, dtype=bool)

    def _parsed(self, name, kind, dtype, what) -> np.ndarray:
        raw = self.raw(name)
        bad = np.zeros(self.size, dtype=bool)
        try:
            values = np.fromiter(map(kind, raw), dtype, self.size)
        except (TypeError, ValueError, OverflowError):
            values = np.zeros(self.size, dtype)
            for k, text in enumerate(raw):
                try:
                    values[k] = kind(text)  # OverflowError outside int64
                except (TypeError, ValueError, OverflowError):
                    bad[k] = True
        self.check(bad, lambda k: f"column {name!r} is not {what}: {raw[k]!r}")
        return values

    def number(self, name) -> np.ndarray:
        return self._parsed(name, float, float, "a number")

    def integer(self, name) -> np.ndarray:
        return self._parsed(name, int, np.int64, "an integer")

    def dummy(self, name) -> np.ndarray:
        values = self.integer(name)
        raw = self.raw(name)
        self.check(
            (values != 0) & (values != 1),
            lambda k: f"column {name!r} must be 0 or 1, got {raw[k]!r}",
        )
        return values.astype(np.int8)

    def raise_fault(self) -> None:
        failed = np.array([mask for mask, _ in self.checks])
        rows = np.flatnonzero(failed.any(axis=0))
        if rows.size:
            k = rows[0]
            message = self.checks[int(failed[:, k].argmax())][1](k)
            raise ValidationError(f"{self.path}: line {self.lines[k]}: {message}")


def _country_block(t: _Table) -> dict:
    country = t.text("country")
    t.check(t.flags(operator.not_, country), lambda k: "empty country id")
    year = t.integer("year")
    gdp = t.number("gdp")
    area = t.number("area")
    population = t.number("population")
    landlocked = t.dummy("landlocked")
    continent = t.integer("continent")
    t.check(
        ~((gdp > 0) & (area > 0) & (population > 0)),
        lambda k: "gdp, area and population must be strictly positive for "
        f"{country[k]!r}",
    )
    code = t.code(country)
    t.check(
        t.repeats(code, year),
        lambda k: f"duplicate country {country[k]!r} for year {year[k]}",
    )
    return dict(zip(COUNTRY_COLUMNS, (code, year, gdp, area, population, landlocked, continent)))


def _dyad_block(t: _Table) -> dict:
    exporter = t.text("exporter")
    importer = t.text("importer")
    t.check(
        t.flags(lambda e, i: not (e and i), exporter, importer),
        lambda k: "empty exporter or importer id",
    )
    t.check(
        t.flags(operator.eq, exporter, importer),
        lambda k: f"exporter equals importer ({exporter[k]!r})",
    )
    year = t.integer("year")
    flow = t.number("flow")
    t.check(~(flow >= 0), lambda k: f"negative flow {float(flow[k])}")
    distance = t.number("distance")
    t.check(
        ~(distance > 0),
        lambda k: f"distance must be strictly positive, got {float(distance[k])}",
    )
    comrelig = t.number("comrelig")
    t.check(
        ~((0.0 <= comrelig) & (comrelig <= 1.0)),
        lambda k: f"comrelig must lie in [0, 1], got {float(comrelig[k])}",
    )
    dummies = {name: t.dummy(name) for name in DYAD_DUMMIES}
    codes = t.code(exporter), t.code(importer)
    t.check(
        t.repeats(*codes, year),
        lambda k: f"duplicate dyad {exporter[k]!r}->{importer[k]!r} for year {year[k]}",
    )
    return {
        "exporter": codes[0], "importer": codes[1], "year": year, "flow": flow,
        "distance": distance, "comrelig": comrelig, **dummies,
    }


def _read_table(path, required, convert, codes) -> dict:
    """One CSV file as named columns, converted and checked block by block."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            missing = [name for name in required if name not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {missing}")
            table, parts = _Table(path, header, codes), []
            for rows, lines in _blocks(reader):
                table.start(rows, lines)
                part = convert(table)
                table.raise_fault()
                parts.append(part)
        except UnicodeDecodeError as exc:
            # decoded a chunk at a time, not a row, so no line is named
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def load_panel(dyads_path, countries_path) -> DyadPanel:
    """Read the dyad and country CSV files into a validated panel.

    The country file is read and checked first, then the dyad file.

    Raises
    ------
    SchemaError
        A required column is absent.
    ValidationError
        A row fails a conversion, range or uniqueness check; the message
        carries the file path and physical line number.
    """
    codes = {}
    countries = _read_table(countries_path, COUNTRY_COLUMNS, _country_block, codes)
    dyads = _read_table(dyads_path, DYAD_COLUMNS, _dyad_block, codes)
    ids = sorted(codes)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[[codes[c] for c in ids]] = np.arange(len(ids))
    countries["country"] = rank[countries["country"]]
    dyads["exporter"] = rank[dyads["exporter"]]
    dyads["importer"] = rank[dyads["importer"]]
    return DyadPanel(ids=tuple(ids), countries=countries, dyads=dyads)


def _hash_file(path: str) -> str:
    """sha256 of a file's bytes, as hex."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_panel(dyads_path, countries_path, copy_path) -> tuple:
    """The panel of the two files, read from its stored copy when that
    copy was made from the same bytes.

    Returns ``(panel, source, copy)``.  ``source`` holds the sha256 of each
    file under ``"dyads"`` and ``"countries"`` and ``"cached"``, whether
    the panel came from ``copy_path``.  On a miss (no copy, a copy of other
    bytes, or an unreadable one) ``load_panel`` parses the files, and
    ``copy`` is the new copy's bytes for the caller to store at
    ``copy_path``; it is None after a hit, and when a file changed during
    the parse, since the digests must describe the bytes parsed.  Errors
    are ``load_panel``'s.
    """
    digests = {"dyads": _hash_file(dyads_path), "countries": _hash_file(countries_path)}
    try:
        with open(copy_path, "rb") as handle:
            # one buffer, which the panel's columns then view
            data = bytearray(os.fstat(handle.fileno()).st_size)
            read = handle.readinto(data)
        panel = DyadPanel.from_bytes(data, digests) if read == len(data) else None
    except OSError:
        panel = None
    if panel is not None:
        return panel, {**digests, "cached": True}, None
    # called by its global name, so a rebinding of the layer function is seen
    panel = load_panel(dyads_path, countries_path)
    after = {"dyads": _hash_file(dyads_path), "countries": _hash_file(countries_path)}
    copy = panel.as_bytes(digests) if after == digests else None
    return panel, {**digests, "cached": False}, copy


def build_cross_section(panel: DyadPanel, year: int) -> CrossSection:
    """Assemble one year's weight and adjacency matrices.

    Countries are ordered by id; dyads missing from the file enter as zero
    flows.  A dyad row whose endpoint has no country record that year is an
    inconsistency and raises.
    """
    rows = np.flatnonzero(panel.countries["year"] == year)
    if not rows.size:
        raise ValidationError(f"year {year} not present in the country table")
    # country indices follow the sorted ids, so sorting them sorts by id
    rows = rows[np.argsort(panel.countries["country"][rows])]
    n = len(rows)
    position = np.full(len(panel.ids), -1)  # of each panel country this year
    position[panel.countries["country"][rows]] = np.arange(n)
    dyads = np.flatnonzero(panel.dyads["year"] == year)
    exporter = position[panel.dyads["exporter"][dyads]]
    importer = position[panel.dyads["importer"][dyads]]
    absent = (exporter < 0) | (importer < 0)
    if absent.any():
        k = dyads[absent.argmax()]
        raise ValidationError(
            f"dyad {panel.ids[panel.dyads['exporter'][k]]!r}->"
            f"{panel.ids[panel.dyads['importer'][k]]!r} ({year}) references a "
            f"country with no record that year"
        )
    weights = np.zeros((n, n))
    weights[exporter, importer] = panel.dyads["flow"][dyads]
    dyad_rows = np.full((n, n), -1)
    dyad_rows[exporter, importer] = dyads
    adjacency = (weights > 0.0).astype(np.int8)
    for array in (weights, adjacency, dyad_rows):
        array.setflags(write=False)
    return CrossSection(
        year=year,
        country_ids=tuple(panel.ids[k] for k in panel.countries["country"][rows].tolist()),
        countries={name: panel.countries[name][rows] for name in COUNTRY_FIELDS},
        weights=weights,
        adjacency=adjacency,
        dyad_rows=dyad_rows,
    )


def design_columns(covariates) -> tuple:
    """``covariates`` as a tuple, once checked to name at least one design
    column, each of ``DESIGN_COLUMNS`` at most once."""
    columns = tuple(covariates)
    if not columns:
        raise SchemaError("no design column requested")
    unknown = [c for c in columns if c not in DESIGN_COLUMNS]
    if unknown:
        raise SchemaError(f"unknown design column(s) {unknown}")
    if len(set(columns)) != len(columns):
        raise SchemaError("duplicate design column requested")
    return columns


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
    columns = design_columns(DESIGN_COLUMNS if covariates is None else covariates)
    exp_idx, imp_idx = np.nonzero(~np.eye(cs.n, dtype=bool))
    y = cs.weights[exp_idx, imp_idx]
    if positive_only:
        keep = y > 0.0
        exp_idx, imp_idx, y = exp_idx[keep], imp_idx[keep], y[keep]
    X = np.empty((len(y), len(columns)))

    def dyad(k):
        return cs.country_ids[exp_idx[k]], cs.country_ids[imp_idx[k]]

    dyad_rows = cs.dyad_rows[exp_idx, imp_idx]
    if any(_DESIGN_SPEC[c][0] == "dyad" for c in columns):
        if (dyad_rows < 0).any():
            exporter, importer = dyad(int(np.argmax(dyad_rows < 0)))
            raise ValidationError(
                f"dyad {exporter!r}->{importer!r} ({cs.year}) "
                f"has no bilateral covariates"
            )
    gathers = {
        "i": (cs.countries, exp_idx),
        "j": (cs.countries, imp_idx),
        "dyad": (panel.dyads, dyad_rows),
    }

    for k, col in enumerate(columns):
        source, name, logged = _DESIGN_SPEC[col]
        if source == "const":
            X[:, k] = 1.0
            continue
        table, index = gathers[source]
        values = np.asarray(table[name][index], dtype=float)
        if logged:
            bad = np.flatnonzero(~(values > 0))
            if bad.size:
                exporter, importer = dyad(bad[0])
                raise ValidationError(
                    f"dyad {exporter!r}->{importer!r}: column {col!r} requires a "
                    f"strictly positive value, got {values[bad[0]]}"
                )
            values = np.log(values)
        X[:, k] = values

    return DesignMatrix(
        country_ids=cs.country_ids, exporter=exp_idx, importer=imp_idx,
        columns=columns, X=X, y=y,
    )


def _minimal_count(sorted_desc: np.ndarray, share: float) -> int:
    """Smallest k with top-k sum >= share of the full sum. Ties at the cutoff
    resolve by inclusion, which the >= comparison delivers on its own."""
    total = float(sorted_desc.sum())
    if total <= 0.0:
        return 0
    reached = np.cumsum(sorted_desc) >= share * total  # summed in order
    return int(reached.argmax()) + 1 if reached.any() else len(sorted_desc)


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
        density=link_density(n_flows, n),
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

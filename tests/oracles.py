"""Independent reference implementations used by the tests.

Everything here is deliberately naive: explicit Python loops transcribed term
by term from the defining sums, sharing no code with the package. The tests
assert agreement between the vectorized package code and these; keep them
dumb and readable rather than fast.

Several references are former package code rather than transcriptions.
``loop_ensemble_summary`` is the former per-kind ensemble summary, kept as
the reference for the one-pass version, and ``loop_replication_summary`` the
former one-pass loop, which validated a fresh network per draw, kept as the
reference for the loop that validates a masked ensemble's adjacency once.
Both reuse the package's network and statistic code, so they pin only the
restructured replication loop, and agreement with them is exact.
``loop_load_panel`` is the former row-by-row CSV loader, one frozen record
per row, kept as the reference for the columnar one: same values, same
first fault, same message. ``loop_countries_csv`` and
``loop_dyads_csv`` are the former synth writers, one hand-joined line per row
and one formatted numpy scalar per cell, kept as the reference for the
row writer: same text, byte for byte. ``_render`` is the former cell
renderer of the CSV writer, and ``rendered_csv_text`` the former
``synth._csv_text``, every cell through ``_render``, kept as the reference
for the writer that hands each row to ``csv.writer`` as it is.
``loop_report_rows`` is the former report aggregation of
``gravnet report``, which walked the raw ``report.json`` objects by dotted
keys, kept as the reference for the rows the decoded, typed report gives.

Three more are former package functions that no pipeline stage calls, kept
here for the tests that read them. ``analytical_var_avg_ns`` is the
closed-form variance of the average node strength, the check on the Monte
Carlo ensembles. ``zero_flow_probability`` is the fitted ZIP zero mass,
read through ``estimation._zip_log_p0``, the one zero mass the package
uses, from scipy's ``log_expit``. ``reciprocal_degree`` reads the package's
bilateral-partner count, the one its clustering denominators subtract.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, ndtri

from gravnet.compare import EnsembleSummary
from gravnet.errors import SchemaError, ValidationError
from gravnet.estimation import _zip_log_p0
from gravnet.netstats import (
    TradeNetwork,
    _defined_everywhere,
    all_statistics,
    compute_statistic,
    population_average,
)
from gravnet.panel import COUNTRY_COLUMNS, DYAD_COLUMNS, DYAD_DUMMIES

# math.cbrt appeared in 3.11; the fallback matches it to within an ulp,
# which is far inside every tolerance used by the tests.
_cbrt = getattr(math, "cbrt", lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x))


def transform_weight(value, transform):
    if transform == "identity":
        return float(value)
    if transform == "log_positive":
        return math.log(value) if value > 0 else 0.0
    raise ValueError(f"unknown transform {transform!r}")


def loop_statistics(weights, adjacency, transform="identity"):
    """All catalogue statistics of one network via explicit loops.

    Returns {kind: (values, defined)} with plain Python lists; undefined
    entries hold None. Also includes "ND_recip" and scalar "density".
    """
    n = len(weights)
    A = [[float(adjacency[i][j]) for j in range(n)] for i in range(n)]
    W = [
        [transform_weight(weights[i][j], transform) for j in range(n)]
        for i in range(n)
    ]
    H = [[_cbrt(W[i][j]) for j in range(n)] for i in range(n)]

    k_in = [sum(A[j][i] for j in range(n) if j != i) for i in range(n)]
    k_out = [sum(A[i][j] for j in range(n) if j != i) for i in range(n)]
    k_tot = [k_in[i] + k_out[i] for i in range(n)]
    k_recip = [sum(A[i][j] * A[j][i] for j in range(n) if j != i) for i in range(n)]

    s_in = [sum(W[j][i] for j in range(n) if j != i) for i in range(n)]
    s_out = [sum(W[i][j] for j in range(n) if j != i) for i in range(n)]
    s_tot = [s_in[i] + s_out[i] for i in range(n)]

    def always(values):
        return (list(values), [True] * n)

    def ratio(numers, denoms):
        values, defined = [], []
        for num, den in zip(numers, denoms):
            if den > 0:
                values.append(num / den)
                defined.append(True)
            else:
                values.append(None)
                defined.append(False)
        return values, defined

    def neighbor_avg(side, neighbor):
        numers = []
        for i in range(n):
            total = 0.0
            for j in range(n):
                if j == i:
                    continue
                if side == "in":
                    total += A[j][i] * neighbor[j]
                elif side == "out":
                    total += A[i][j] * neighbor[j]
                else:
                    total += (A[i][j] + A[j][i]) * neighbor[j]
            numers.append(total)
        denom = {"in": k_in, "out": k_out, "tot": k_tot}[side]
        return ratio(numers, denom)

    def triangles(m, motif):
        numers = []
        for i in range(n):
            total = 0.0
            for j in range(n):
                if j == i:
                    continue
                for k in range(n):
                    if k == i or k == j:
                        continue
                    if motif == "cyc":
                        total += m[i][j] * m[j][k] * m[k][i]
                    elif motif == "mid":
                        total += m[i][j] * m[k][j] * m[k][i]
                    elif motif == "in":
                        total += m[j][i] * m[j][k] * m[k][i]
                    elif motif == "out":
                        total += m[i][j] * m[j][k] * m[i][k]
                    else:
                        s_ij = m[i][j] + m[j][i]
                        s_jk = m[j][k] + m[k][j]
                        s_ki = m[k][i] + m[i][k]
                        total += s_ij * s_jk * s_ki
            numers.append(total)
        return numers

    def clustering(m, motif):
        numers = triangles(m, motif)
        if motif in ("cyc", "mid"):
            denoms = [k_in[i] * k_out[i] - k_recip[i] for i in range(n)]
        elif motif == "in":
            denoms = [k_in[i] * (k_in[i] - 1.0) for i in range(n)]
        elif motif == "out":
            denoms = [k_out[i] * (k_out[i] - 1.0) for i in range(n)]
        else:
            denoms = [
                2.0 * (k_tot[i] * (k_tot[i] - 1.0) - 2.0 * k_recip[i])
                for i in range(n)
            ]
        return ratio(numers, denoms)

    stats = {
        "ND_in": always(k_in),
        "ND_out": always(k_out),
        "ND_tot": always(k_tot),
        "ND_recip": always(k_recip),
        "NS_in": always(s_in),
        "NS_out": always(s_out),
        "NS_tot": always(s_tot),
    }
    for variant in ("in_in", "in_out", "out_in", "out_out", "tot"):
        side, _, which = variant.partition("_")
        if variant == "tot":
            side, which = "tot", "tot"
        deg_neighbor = {"in": k_in, "out": k_out, "tot": k_tot}[which]
        str_neighbor = {"in": s_in, "out": s_out, "tot": s_tot}[which]
        stats[f"ANND_{variant}"] = neighbor_avg(side, deg_neighbor)
        stats[f"ANNS_{variant}"] = neighbor_avg(side, str_neighbor)
    for motif in ("cyc", "mid", "in", "out", "tot"):
        stats[f"BCC_{motif}"] = clustering(A, motif)
        stats[f"WCC_{motif}"] = clustering(H, motif)

    links = sum(A[i][j] for i in range(n) for j in range(n) if j != i)
    stats["density"] = links / (n * (n - 1.0))
    return stats


def loop_diag_of_product(x, y, z):
    """diag(x @ y @ z) by the triple loop: each row's n**2 rounded products
    summed exactly (``math.fsum``), so only the products round."""
    n = len(x)
    return [
        math.fsum(x[i][j] * y[j][k] * z[k][i] for j in range(n) for k in range(n))
        for i in range(n)
    ]


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
class LoopPanel:
    """Per-year record tables: {year: {country_id: CountryRecord}} and
    {year: {(exporter, importer): DyadRecord}}."""

    dyads: dict
    countries: dict
    n_rows: int


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


def loop_load_panel(dyads_path, countries_path, dyad_columns=None, country_columns=None):
    """The row-by-row loader the columnar ``load_panel`` replaced.

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
            country_id = (raw or "").strip()
            if not country_id:
                raise ValidationError(f"{path}: line {ln}: empty country id")
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

    return LoopPanel(dyads=dyads, countries=countries, n_rows=n_rows)



_COUNTRY_FIELDS = {
    "gdp": "gdp", "area": "area", "pop": "population",
    "landl": "landlocked", "continent": "continent",
}


def loop_design_matrix(countries, weights, dyads, columns, positive_only):
    """Gravity design by one pass over ordered pairs, exporter-major.

    ``countries`` is the ordered country records, ``weights`` the flow
    grid and ``dyads`` the {(exporter, importer): record} table. Returns
    (rows, X, y) as plain lists.
    """
    rows, X, y = [], [], []
    for i, exp in enumerate(countries):
        for j, imp in enumerate(countries):
            flow = float(weights[i][j])
            if i == j or (positive_only and flow <= 0.0):
                continue
            record = dyads.get((exp.country_id, imp.country_id))
            values = []
            for column in columns:
                if column == "const":
                    values.append(1.0)
                    continue
                logged = column.startswith("ln_")
                base = column[3:] if logged else column
                if base == "dist":
                    value = record.distance
                elif base.endswith("_i"):
                    value = getattr(exp, _COUNTRY_FIELDS[base[:-2]])
                elif base.endswith("_j"):
                    value = getattr(imp, _COUNTRY_FIELDS[base[:-2]])
                else:
                    value = getattr(record, base)
                values.append(math.log(value) if logged else float(value))
            rows.append((exp.country_id, imp.country_id))
            X.append(values)
            y.append(flow)
    return rows, X, y


def loop_ks_statistic(sample1, sample2):
    """Two-sample Kolmogorov-Smirnov D by counting, at every pooled point."""
    x = list(sample1)
    y = list(sample2)
    d_max = 0.0
    for point in x + y:
        f1 = sum(1 for v in x if v <= point) / len(x)
        f2 = sum(1 for v in y if v <= point) / len(y)
        d_max = max(d_max, abs(f1 - f2))
    return d_max


def loop_ensemble_summary(ens, kind):
    """Summary of one kind, rebuilding every replication's network for it."""
    values = []
    dropped = 0
    for r in range(ens.m):
        w = np.asarray(ens.replications[r], dtype=float)
        if ens.mask is not None:
            net = TradeNetwork(w, adjacency=np.asarray(ens.mask))
        else:
            net = TradeNetwork(w)
        try:
            avg, _ = population_average(compute_statistic(net, kind))
        except ValidationError:
            dropped += 1
            continue
        values.append(avg)
    return _summary_of(kind, values, dropped)


def loop_replication_summary(ens, kinds):
    """Summaries of ``kinds`` by the former replication loop: each draw
    validated into a fresh network on the ensemble's mask, every kind taken
    from it by ``all_statistics`` and averaged by ``population_average``."""
    values = {kind: [] for kind in kinds}
    for w in ens:
        net = TradeNetwork(w, adjacency=ens.mask)
        for kind, stat in all_statistics(net, kinds).items():
            try:
                values[kind].append(population_average(stat)[0])
            except ValidationError:
                continue
    return tuple(_summary_of(kind, values[kind], ens.m - len(values[kind])) for kind in kinds)


def _summary_of(kind, values, dropped):
    if not values:
        raise ValidationError(f"{kind}: undefined in every replication")
    arr = np.asarray(values)
    if arr.min() == arr.max():
        v = float(arr[0])
        return EnsembleSummary(kind, v, 0.0, v, v, v, v, arr.size, dropped)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    lo, hi = (float(q) for q in np.percentile(arr, [2.5, 97.5]))
    z = float(ndtri(0.975))
    return EnsembleSummary(
        kind, mean, sd, lo, hi, mean - z * sd, mean + z * sd, arr.size, dropped
    )


def loop_poisson_loglik(y, mu):
    """Poisson log likelihood including the ln Gamma(y+1) normalizer."""
    total = 0.0
    for yi, mi in zip(y, mu):
        total += yi * math.log(mi) - mi - math.lgamma(yi + 1.0)
    return total


def loop_zip_loglik(y, psi, mu):
    """Zero-inflated Poisson log likelihood, mixing at each observation."""
    total = 0.0
    for yi, pi, mi in zip(y, psi, mu):
        if yi == 0:
            total += math.log(pi + (1.0 - pi) * math.exp(-mi))
        else:
            total += (
                math.log(1.0 - pi)
                + yi * math.log(mi)
                - mi
                - math.lgamma(yi + 1.0)
            )
    return total


def loop_logit_loglik(a, p):
    total = 0.0
    for ai, pi in zip(a, p):
        total += math.log(pi) if ai else math.log(1.0 - pi)
    return total


def numeric_gradient(fun, x0, step=1e-6):
    """Central-difference gradient of a scalar function."""
    grad = []
    for idx in range(len(x0)):
        hi = list(x0)
        lo = list(x0)
        hi[idx] += step
        lo[idx] -= step
        grad.append((fun(hi) - fun(lo)) / (2.0 * step))
    return grad


def numeric_hessian(fun, x0, step=1e-5):
    """Central-difference Hessian of a scalar function (symmetrized)."""
    p = len(x0)
    hess = [[0.0] * p for _ in range(p)]
    for r in range(p):
        for c in range(r, p):
            pp = list(x0)
            pm = list(x0)
            mp = list(x0)
            mm = list(x0)
            pp[r] += step
            pp[c] += step
            pm[r] += step
            pm[c] -= step
            mp[r] -= step
            mp[c] += step
            mm[r] -= step
            mm[c] -= step
            val = (fun(pp) - fun(pm) - fun(mp) + fun(mm)) / (4.0 * step * step)
            hess[r][c] = val
            hess[c][r] = val
    return hess


def _format(value) -> str:
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return repr(float(value))


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


def rendered_csv_text(header, rows) -> str:
    """One header line, then one line per row, every cell through ``_render``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_render, row) for row in rows)
    return buf.getvalue()


def loop_countries_csv(draws) -> str:
    lines = [",".join(COUNTRY_COLUMNS)]
    for draw in draws:
        c = draw.countries
        for k, cid in enumerate(draw.country_ids):
            lines.append(
                ",".join(
                    [
                        cid,
                        str(draw.year),
                        _format(c["gdp"][k]),
                        _format(c["area"][k]),
                        _format(c["population"][k]),
                        str(int(c["landlocked"][k])),
                        str(int(c["continent"][k])),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def loop_dyads_csv(draws) -> str:
    value_columns = DYAD_COLUMNS[3:]  # flow and the bilateral covariates
    lines = [",".join(DYAD_COLUMNS)]
    for draw in draws:
        n = len(draw.country_ids)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cells = [draw.country_ids[i], draw.country_ids[j], str(draw.year)]
                for col in value_columns:
                    if col == "flow":
                        cells.append(_format(draw.weights[i, j]))
                    else:
                        cells.append(_format(draw.dyads[col][i, j]))
                lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


#: csv column -> report.json key of each aggregated table, after "year" and
#: "model", which the cell gives; a dotted key reads a nested object, and
#: reads empty where that is null
_KS_COLUMNS = {
    "kind": "kind", "d_statistic": "ks_d", "p_value": "ks_p",
    "n_observed": "ks_n_observed", "n_predicted": "ks_n_predicted",
}
_AVG_COLUMNS = {
    "kind": "kind", "observed": "observed_avg",
    "predicted": "predicted_avg", "ci_low": "ensemble.ci_low",
    "ci_high": "ensemble.ci_high", "ensemble_mean": "ensemble.mean",
}
_CORR_COLUMNS = {
    "x": "x", "y": "y", "observed_r": "observed_r",
    "predicted_r": "predicted_r",
}


def _report_row(year: int, tag: str, entry: dict, columns: dict) -> dict:
    row = {"year": year, "model": tag}
    for column, key in columns.items():
        value = entry
        for part in key.split("."):
            value = None if value is None else value[part]
        row[column] = value
    return row


def loop_report_rows(year, tag, payload):
    """Headers and dict rows of (ks_tests, averages, correlations) for the
    parsed ``report.json`` of the (``year``, ``tag``) cell."""
    ks_rows, avg_rows, corr_rows = [], [], []
    for s in payload["statistics"]:
        ks_rows.append(_report_row(year, tag, s, _KS_COLUMNS))
        avg_rows.append(_report_row(year, tag, s, _AVG_COLUMNS))
    for c in payload["correlations"]:
        corr_rows.append(_report_row(year, tag, c, _CORR_COLUMNS))
    headers = [
        ("year", "model", *columns) for columns in (_KS_COLUMNS, _AVG_COLUMNS, _CORR_COLUMNS)
    ]
    return headers, (ks_rows, avg_rows, corr_rows)


def _placed(dm, values):
    """n-by-n grid with each design row's value at its (exporter, importer)
    cell and zero elsewhere."""
    n = len(dm.country_ids)
    out = np.zeros((n, n))
    for k in range(dm.n_obs):
        out[dm.exporter[k], dm.importer[k]] = values[k]
    return out


def _zip_stages(zip_fit, dm):
    """Each design row's zero-stage predictor u and count mean mu."""
    u = dm.X @ zip_fit.logit_part.coefficients
    return u, np.exp(dm.X @ zip_fit.poisson_part.coefficients)


def zip_mixture_variance(zip_fit, dm):
    """Per-dyad variance mu (1 - psi) (1 + mu psi) of the fitted
    zero-inflated Poisson mixture, psi = expit(u)."""
    u, mu = _zip_stages(zip_fit, dm)
    psi = expit(u)
    return _placed(dm, mu * (1.0 - psi) * (1.0 + mu * psi))


def zero_flow_probability(zip_fit, dm):
    """Per-dyad zero mass psi + (1 - psi) e^{-mu} of the fitted mixture."""
    u, mu = _zip_stages(zip_fit, dm)
    return _placed(dm, np.exp(_zip_log_p0(log_expit(u), log_expit(-u), mu)))


def analytical_var_avg_ns(pred, zip_fit=None, dm=None):
    """Closed-form variance of the average node strength.

    The average out-strength is the total predicted weight over the node
    count, so its variance is the sum of per-dyad variances over the
    squared node count.  Each estimator family admits a closed form:

    * Poisson: variance equals the mean, giving ``avg NS / N``.
    * Zero-inflated: ``sum of mu (1 - psi) (1 + mu psi) / N^2``, from the
      fit and design matrix the prediction was made from.
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
        return float(zip_mixture_variance(zip_fit, dm).sum()) / (n * n)
    if pred.model_tag == "OLS":
        links = int(pred.mask.sum())
        if links == 0:
            return 0.0
        rho = links / (n * (n - 1))
        return rho * pred.sigma2 * (n - 1) / n
    raise ValidationError(f"no closed-form variance for model {pred.model_tag}")


def reciprocal_degree(net):
    """``ND_recip``: the number of bilateral partners, sum_j a_ij a_ji."""
    return _defined_everywhere("ND_recip", net._support, net._support.k_recip)

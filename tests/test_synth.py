"""Synthetic-panel generator tests.

The generator is checked for determinism, exact intercept centering, the
advertised zero-share probability, and a full write/load/fit round trip
against the recorded truth.
"""

import json

import numpy as np
import pytest
from scipy.special import expit, log_expit

import gravnet.synth
from gravnet.errors import ValidationError
from gravnet.estimation import fit_ols, fit_poisson_pml, fit_zip
from gravnet.panel import build_cross_section, build_design_matrix, load_panel
from gravnet.synth import (
    GENERATOR_COVARIATES,
    SynthSpec,
    YearDraw,
    generate_year,
    write_synth_panel,
)

from oracles import loop_countries_csv, loop_dyads_csv


def recomputed_indices(draw: YearDraw, slopes):
    """Rebuild the linear index from the draw's own covariates."""
    ln_gdp = np.log(draw.countries["gdp"])
    ln_dist = np.zeros_like(draw.dyads["distance"])
    off = ~np.eye(len(draw.country_ids), dtype=bool)
    ln_dist[off] = np.log(draw.dyads["distance"][off])
    s1, s2, s3, s4, s5 = slopes
    return (
        s1 * ln_gdp[:, None]
        + s2 * ln_gdp[None, :]
        + s3 * ln_dist
        + s4 * draw.dyads["contig"]
        + s5 * draw.dyads["rta"]
    )


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(n_countries=4)
    with pytest.raises(ValidationError):
        SynthSpec(years=())
    with pytest.raises(ValidationError):
        SynthSpec(years=(2000, 2000))
    with pytest.raises(ValidationError):
        SynthSpec(noise="gamma")
    with pytest.raises(ValidationError):
        SynthSpec(sigma_log=0.0)
    with pytest.raises(ValidationError):
        SynthSpec(gamma_slopes=(1.0, 2.0))
    with pytest.raises(ValidationError):
        SynthSpec(seed=-3)


def test_year_draws_are_deterministic_and_year_keyed():
    spec = SynthSpec(n_countries=10, years=(1995, 2000), seed=7)
    once = generate_year(spec, 1995)
    again = generate_year(spec, 1995)
    assert once.weights.tobytes() == again.weights.tobytes()
    assert once.dyads["distance"].tobytes() == again.dyads["distance"].tobytes()

    other_year = generate_year(spec, 2000)
    assert once.weights.tobytes() != other_year.weights.tobytes()

    with pytest.raises(ValidationError):
        generate_year(spec, 1970)


def test_intercepts_center_the_indices_exactly():
    spec = SynthSpec(n_countries=20, years=(2000,), noise="zip", seed=3)
    draw = generate_year(spec, 2000)
    off = ~np.eye(20, dtype=bool)

    log_mu = draw.gamma[0] + recomputed_indices(draw, draw.gamma[1:])
    assert log_mu[off].mean() == pytest.approx(spec.mean_log_flow, abs=1e-10)

    score = draw.theta[0] + recomputed_indices(draw, draw.theta[1:])
    assert score[off].mean() == pytest.approx(spec.mean_zero_score, abs=1e-10)


def test_poisson_noise_has_no_structural_stage():
    spec = SynthSpec(n_countries=12, years=(2000,), noise="poisson", seed=5)
    draw = generate_year(spec, 2000)
    assert draw.theta is None
    # count means sit around e^7, so natural zeros are essentially absent
    off = ~np.eye(12, dtype=bool)
    assert (draw.weights[off] == 0).mean() <= draw.expected_zero_share + 0.05
    assert draw.expected_zero_share < 0.01


def test_lognormal_noise_gives_strictly_positive_flows():
    spec = SynthSpec(n_countries=12, years=(2000,), noise="lognormal", seed=6)
    draw = generate_year(spec, 2000)
    off = ~np.eye(12, dtype=bool)
    assert np.all(draw.weights[off] > 0.0)
    assert draw.expected_zero_share == 0.0
    assert draw.theta is None


def test_zip_zero_share_matches_mixture_probability():
    spec = SynthSpec(n_countries=50, years=(2000,), noise="zip", seed=2)
    draw = generate_year(spec, 2000)
    off = ~np.eye(50, dtype=bool)

    psi = expit(draw.theta[0] + recomputed_indices(draw, draw.theta[1:]))
    mu = np.exp(draw.gamma[0] + recomputed_indices(draw, draw.gamma[1:]))
    p_zero = (psi + (1.0 - psi) * np.exp(-mu))[off]
    assert p_zero.mean() == pytest.approx(draw.expected_zero_share, abs=1e-12)

    realized = (draw.weights[off] == 0.0).mean()
    se = np.sqrt((p_zero * (1.0 - p_zero)).sum()) / p_zero.size
    assert abs(realized - p_zero.mean()) <= 3.0 * se


@pytest.mark.parametrize("n,seed", [(5, 0), (12, 3), (40, 7), (90, 11)])
def test_zip_zero_stage_equals_the_scipy_reference(monkeypatch, n, seed):
    """A zip year's structural-zero probabilities are within 8 ulp of those
    computed with scipy's ``expit`` (the bound of the ``_expit`` property
    test), and its log zero masses, structural zeros, weights and
    ``expected_zero_share`` are bit for bit those computed with scipy's
    ``expit`` and ``log_expit``.  At this flow level no Poisson count is 0,
    so the zero flows are exactly the structural ones."""
    spec = SynthSpec(n_countries=n, years=(2000,), noise="zip", seed=seed, mean_log_flow=30.0)

    def draw_with(expit_, log_expit_):
        seen = []

        def recorded(func):
            def call(*args):
                seen.append(func(*args))
                return seen[-1]
            return call

        monkeypatch.setattr(gravnet.synth, "_expit", recorded(expit_))
        monkeypatch.setattr(gravnet.synth, "_log_expit", log_expit_)
        monkeypatch.setattr(gravnet.synth, "_zip_log_p0", recorded(gravnet.synth._zip_log_p0))
        draw = generate_year(spec, 2000)
        monkeypatch.undo()
        return draw, seen

    draw, seen = draw_with(gravnet.synth._expit, gravnet.synth._log_expit)
    reference, reference_seen = draw_with(expit, log_expit)
    (psi, log_p0), (reference_psi, reference_log_p0) = seen, reference_seen
    np.testing.assert_array_max_ulp(psi, reference_psi, maxulp=8)
    np.testing.assert_array_equal(log_p0.view(np.uint64), reference_log_p0.view(np.uint64))
    off = ~np.eye(n, dtype=bool)
    structural = draw.weights[off] == 0.0
    assert 0 < structural.sum() < structural.size
    np.testing.assert_array_equal(structural, reference.weights[off] == 0.0)
    np.testing.assert_array_equal(draw.weights.view(np.uint64), reference.weights.view(np.uint64))
    assert np.float64(draw.expected_zero_share).view(np.uint64) == (
        np.float64(reference.expected_zero_share).view(np.uint64)
    )


def test_written_panel_round_trips(tmp_path):
    spec = SynthSpec(n_countries=8, years=(1990, 1995), noise="zip", seed=11)
    paths = write_synth_panel(spec, str(tmp_path))
    panel = load_panel(paths["dyads"], paths["countries"])
    assert panel.years == (1990, 1995)

    for year in spec.years:
        draw = generate_year(spec, year)
        cs = build_cross_section(panel, year)
        assert cs.country_ids == draw.country_ids
        # repr round-trip: the loaded weights are bit-identical
        np.testing.assert_array_equal(cs.weights, draw.weights)

        dm = build_design_matrix(cs, panel, covariates=GENERATOR_COVARIATES)
        assert dm.n_obs == 8 * 7
        positives = build_design_matrix(
            cs, panel, covariates=GENERATOR_COVARIATES, positive_only=True
        )
        assert positives.n_obs == int((draw.weights > 0).sum())

    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["noise"] == "zip"
    assert truth["covariates"] == list(GENERATOR_COVARIATES)
    assert set(truth["years"]) == {"1990", "1995"}
    assert truth["years"]["1990"]["theta"] is not None
    assert truth["sigma_log"] is None


def test_written_files_are_byte_identical_across_runs(tmp_path):
    spec = SynthSpec(n_countries=6, years=(2000, 1995), noise="zip", seed=13)
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_synth_panel(spec, str(first))
    write_synth_panel(spec, str(second))
    for name in ("dyads.csv", "countries.csv", "truth.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    # year order in the spec does not matter: files sort by year
    reordered = SynthSpec(n_countries=6, years=(1995, 2000), noise="zip", seed=13)
    third = tmp_path / "c"
    write_synth_panel(reordered, str(third))
    for name in ("dyads.csv", "countries.csv"):
        assert (first / name).read_bytes() == (third / name).read_bytes()


@pytest.mark.parametrize("noise", ["zip", "poisson", "lognormal"])
def test_written_files_match_the_loop_writer(tmp_path, noise):
    spec = SynthSpec(n_countries=7, years=(2001, 1999), noise=noise, seed=23)
    paths = write_synth_panel(spec, str(tmp_path))
    draws = [generate_year(spec, year) for year in (1999, 2001)]
    for name, oracle in (("dyads", loop_dyads_csv), ("countries", loop_countries_csv)):
        with open(paths[name], "rb") as handle:
            assert handle.read() == oracle(draws).encode("utf-8"), name


def test_estimators_recover_generating_parameters(tmp_path):
    """Write, load, fit: one seeded end-to-end recovery per estimator family."""
    n = 15

    lyt = SynthSpec(n_countries=n, years=(2000,), noise="lognormal", seed=17)
    paths = write_synth_panel(lyt, str(tmp_path / "lognormal"))
    panel = load_panel(paths["dyads"], paths["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, covariates=GENERATOR_COVARIATES,
                             positive_only=True)
    fit = fit_ols(dm)
    truth = json.loads((tmp_path / "lognormal" / "truth.json").read_text())
    want = np.array(truth["years"]["2000"]["gamma"])
    missed = np.abs(fit.coefficients - want) / fit.std_errors
    assert np.all(missed <= 3.0)

    pois = SynthSpec(n_countries=n, years=(2000,), noise="poisson", seed=18)
    paths = write_synth_panel(pois, str(tmp_path / "poisson"))
    panel = load_panel(paths["dyads"], paths["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, covariates=GENERATOR_COVARIATES)
    fit = fit_poisson_pml(dm)
    truth = json.loads((tmp_path / "poisson" / "truth.json").read_text())
    want = np.array(truth["years"]["2000"]["gamma"])
    missed = np.abs(fit.coefficients - want) / fit.std_errors
    assert np.all(missed <= 3.0)

    zspec = SynthSpec(n_countries=n, years=(2000,), noise="zip", seed=19)
    paths = write_synth_panel(zspec, str(tmp_path / "zip"))
    panel = load_panel(paths["dyads"], paths["countries"])
    cs = build_cross_section(panel, 2000)
    dm = build_design_matrix(cs, panel, covariates=GENERATOR_COVARIATES)
    zres = fit_zip(dm)
    truth = json.loads((tmp_path / "zip" / "truth.json").read_text())
    for part, key in ((zres.logit_part, "theta"), (zres.poisson_part, "gamma")):
        want = np.array(truth["years"]["2000"][key])
        missed = np.abs(part.coefficients - want) / part.std_errors
        assert np.all(missed <= 3.0)

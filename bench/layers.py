"""Layer functions the traced pass wraps, shared by run.py and trace_stage.py.

Span names are ``<module>.<function>``; this module imports nothing from
``gravnet``, so run.py can import it without loading numpy.
"""

LAYERS = {
    "panel": ("load_panel", "build_cross_section", "build_design_matrix", "summary_stats"),
    "estimation": ("fit_ols", "fit_poisson_pml", "fit_logit", "fit_zip", "attach_vuong"),
    "prediction": (
        "predict_ols",
        "predict_ppml",
        "predict_zip",
        "link_probabilities",
        "density_induced_binary",
        "threshold_matching_density",
        "threshold_by_manhattan",
        "sample_bernoulli_ensemble",
        "sample_weighted_ensemble",
    ),
    "netstats": ("compute_statistic", "all_statistics", "density"),
    "compare": ("build_comparison_report", "ensemble_summary", "ks_two_sample", "report_as_dict"),
    "synth": ("generate_year", "write_synth_panel"),
}

#: Span name of ``TradeNetwork.__post_init__``: one span per construction.
CONSTRUCTION_SPAN = "netstats.TradeNetwork"

#: Samplers whose returned ``replications`` arrays are summed into
#: ``prediction.ensemble_bytes``.
ENSEMBLE_SAMPLERS = ("sample_bernoulli_ensemble", "sample_weighted_ensemble")

"""Evaluation harness: the paper's tables, figures and claims as code.

Every table and figure of the paper's evaluation (Section V) has a
generator here:

* Tables I & II — :mod:`repro.analysis.tables`;
* Figs. 2/4/6/8 (mean relative error vs. incorrect elements) —
  :mod:`repro.analysis.scatter`;
* Figs. 3/5/7 (FIT broken down by spatial locality, All vs. filtered) —
  :mod:`repro.analysis.fitbreakdown`;
* Fig. 9 (the CLAMR error-locality map) — :mod:`repro.analysis.localitymap`;
* the Section V opening SDC : crash+hang ratios —
  :mod:`repro.analysis.sdc_ratio`;
* the quantified claims (FIT input-size scaling, ABFT residual fractions,
  HotSpot filter rates, CLAMR mass-check coverage) —
  :mod:`repro.analysis.claims`.

Campaign configurations live in :mod:`repro.analysis.experiments` with
three scales: ``test`` (seconds, CI), ``default`` (the benchmark harness),
``paper`` (the paper's input sizes).
"""

from repro.analysis.claims import (
    clamr_mass_check_coverage,
    elements_below_threshold_fraction,
    fully_filtered_fraction,
    hotspot_entropy_coverage,
    locality_share_of_executions,
    rebuild_output,
)
from repro.analysis.experiments import (
    clamr_spec,
    dgemm_sweep,
    hotspot_spec,
    lavamd_sweep,
    run_spec,
    run_specs,
)
from repro.analysis.fitbreakdown import FitFigure, fit_figure
from repro.analysis.fleet import (
    FleetProjection,
    natural_equivalent_hours,
    natural_equivalent_years,
    project_fleet,
)
from repro.analysis.localitymap import LocalityMapFigure, locality_map_figure
from repro.analysis.report import generate_report
from repro.analysis.scaling import (
    ConversionRates,
    FitProjection,
    fit_growth,
    project_fit,
    projected_sweep,
)
from repro.analysis.scatter import ScatterFigure, scatter_figure
from repro.analysis.sdc_ratio import ratio_trend, render_ratios, sdc_ratio_rows
from repro.analysis.tables import table1_text, table2_text

__all__ = [
    "clamr_mass_check_coverage",
    "elements_below_threshold_fraction",
    "fully_filtered_fraction",
    "hotspot_entropy_coverage",
    "locality_share_of_executions",
    "rebuild_output",
    "clamr_spec",
    "dgemm_sweep",
    "hotspot_spec",
    "lavamd_sweep",
    "run_spec",
    "run_specs",
    "FitFigure",
    "fit_figure",
    "FleetProjection",
    "natural_equivalent_hours",
    "natural_equivalent_years",
    "project_fleet",
    "LocalityMapFigure",
    "locality_map_figure",
    "generate_report",
    "ConversionRates",
    "FitProjection",
    "fit_growth",
    "project_fit",
    "projected_sweep",
    "ScatterFigure",
    "scatter_figure",
    "ratio_trend",
    "render_ratios",
    "sdc_ratio_rows",
    "table1_text",
    "table2_text",
]

"""Result analysis: aggregation, time-series helpers, ASCII plots, reports."""

from .aggregate import (
    Aggregate,
    aggregate_loss_rates,
    aggregate_metric,
    aggregate_repair_rates,
    axis_rates,
    replication_spec,
    run_replications,
    sweep_rates,
    threshold_sweep,
    threshold_sweep_spec,
)
from .plots import ascii_chart, sparkline
from .report import (
    dict_report,
    format_aggregate,
    format_table,
    rates_report,
    sweep_report,
)
from .series import (
    downsample,
    final_value,
    growth_between,
    is_non_decreasing,
    to_days,
    validate_series,
    value_at,
)
from .tuning import ThresholdRecommendation, choose_threshold

__all__ = [
    "Aggregate",
    "aggregate_loss_rates",
    "aggregate_metric",
    "aggregate_repair_rates",
    "axis_rates",
    "replication_spec",
    "run_replications",
    "sweep_rates",
    "threshold_sweep",
    "threshold_sweep_spec",
    "ascii_chart",
    "sparkline",
    "dict_report",
    "format_aggregate",
    "format_table",
    "rates_report",
    "sweep_report",
    "downsample",
    "final_value",
    "growth_between",
    "is_non_decreasing",
    "to_days",
    "validate_series",
    "value_at",
    "ThresholdRecommendation",
    "choose_threshold",
]

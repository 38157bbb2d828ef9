"""Experiment analysis: statistics, trace capture and loss attribution,
and the paper's analytical traffic model."""

from repro.analysis.stats import ConfidenceInterval, mean_ci
from repro.analysis.traffic_model import TrafficModel, TrafficBreakdown
from repro.analysis.charts import line_chart
from repro.analysis.tracelog import (
    CampaignSummary,
    TraceLogger,
    load_trace,
    summarize_campaign,
    summarize_trace,
)
from repro.analysis.dtn import format_dtn_report
from repro.analysis.resilience import format_resilience_report
from repro.analysis.paths import (
    DropRecord,
    HopRecord,
    MessagePath,
    format_loss_table,
    format_path,
    format_route,
    loss_attribution,
    reconstruct_paths,
    trace_timeline,
)

__all__ = [
    "ConfidenceInterval",
    "mean_ci",
    "TrafficModel",
    "TrafficBreakdown",
    "line_chart",
    "TraceLogger",
    "load_trace",
    "summarize_trace",
    "CampaignSummary",
    "summarize_campaign",
    "DropRecord",
    "HopRecord",
    "MessagePath",
    "format_dtn_report",
    "format_loss_table",
    "format_path",
    "format_resilience_report",
    "format_route",
    "loss_attribution",
    "reconstruct_paths",
    "trace_timeline",
]

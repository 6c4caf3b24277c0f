"""Terminal rendering helpers for the CLI and examples."""

from repro.analysis.ascii_chart import AsciiChart, chart_time_series

__all__ = [
    "AsciiChart",
    "chart_time_series",
]

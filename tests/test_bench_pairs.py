"""tools/bench_pairs.py's summary of alternating benchmark pairs, on fixed numbers,
and its reading of a run whose output is not a result."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_summary_reports_quartiles_and_wins_by_direction():
    tool = load_tool()
    first = [1.0, 2.0, 3.0, 4.0, 5.0]
    second = [0.5, 2.5, 2.0, 3.0, 6.0]
    pairs = [({"wall_s": a, "samples_per_s": 10 * a}, {"wall_s": b, "samples_per_s": 10 * b})
             for a, b in zip(first, second)]
    lines = tool.summarize(pairs, {"wall_s": "lower", "samples_per_s": "higher"})
    assert lines == [
        "wall_s: first 3 [1.5, 4.5]  second 2.5 [1.25, 4.5]  second won 3/5",
        "samples_per_s: first 30 [15, 45]  second 25 [12.5, 45]  second won 2/5",
    ]


def test_ties_are_not_wins_and_one_pair_has_no_spread():
    tool = load_tool()
    lines = tool.summarize([({"peak_rss_mb": 80.0}, {"peak_rss_mb": 80.0})],
                           {"peak_rss_mb": "lower"})
    assert lines == ["peak_rss_mb: first 80 [80, 80]  second 80 [80, 80]  second won 0/1"]


def test_run_whose_last_line_is_not_json_counts_as_failed(tmp_path):
    tool = load_tool()
    command = [sys.executable, "-c", "print('warming up')"]
    assert tool.run_once(tmp_path, command, "train", 0, 1.0) is None

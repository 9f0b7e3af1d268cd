"""README.md states contracts only: it stays short and carries no timing
figure, since a timing belongs to a measurement record, not to a promise.
A line that names a ``BENCH_*.json`` file may cite the figures of that
committed benchmark record.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MAX_LINES = 150
# a number, not part of a word or a longer number, followed by a time unit
TIMING = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:[eE][-+]?\d+)?\s?(?:ns|[µμu]s|ms|s)\b")
BENCH_FILE = re.compile(r"BENCH_[\w.-]*\.json")


def readme_lines():
    return README.read_text(encoding="utf-8").splitlines()


def test_readme_has_at_most_150_non_blank_lines():
    count = sum(1 for line in readme_lines() if line.strip())
    assert count <= MAX_LINES, count


def test_readme_states_no_timing_figure():
    timed = [line for line in readme_lines()
             if TIMING.search(line) and not BENCH_FILE.search(line)]
    assert timed == []


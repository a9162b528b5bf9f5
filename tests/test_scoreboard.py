"""The reproduction scoreboard, asserted.

Every banded point of every ``FIGURES`` row: the paper's value against
the modelled one.  ``python benchmarks/run.py`` fails a figure case on
an out-of-band point; these tests hold the same bands in tier-1, plus
the scoreboard's coverage and aggregate quality.
"""

import pytest

from benchmarks.cases.figures import FIGURES, score


@pytest.fixture(scope="module")
def rows():
    return [
        point
        for name, driver, *_, bands in FIGURES
        for point in score(name, driver(), bands)
    ]


class TestScoreboard:
    def test_every_tracked_point_within_tolerance(self, rows):
        failed = [row for row in rows if not row.passed]
        message = "\n".join(map(str, failed))
        assert not failed, f"scoreboard regressions:\n{message}"

    def test_scoreboard_covers_every_figure_series(self, rows):
        covered = {(row.figure, row.series) for row in rows}
        expected = {
            (name, series)
            for name, *_, bands in FIGURES
            for series in bands if "@" not in series
        }
        assert covered == expected

    def test_nontrivial_point_count(self, rows):
        """The scoreboard tracks a substantial number of data points."""
        assert len(rows) >= 60

    def test_oom_points_matched(self, rows):
        oom_rows = [
            row for row in rows
            if row.paper == float("inf") or row.reproduced == float("inf")
        ]
        assert oom_rows, "the 192 GB OOM point must be tracked"
        assert all(row.passed for row in oom_rows)

    def test_headline_points_tight(self, rows):
        """The flagship numbers sit well inside their tolerance bands."""
        headline = [
            row for row in rows
            if row.figure == "fig10" and row.series == "dpsgd_f"
        ]
        assert headline
        for row in headline:
            assert row.relative_error < 0.05

    def test_median_error_is_small(self, rows):
        """Aggregate quality: half the tracked points within ~10%."""
        errors = sorted(
            row.relative_error for row in rows
            if row.paper != float("inf")
        )
        median = errors[len(errors) // 2]
        assert median < 0.10

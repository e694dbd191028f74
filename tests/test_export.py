"""CSV export of exhibit data."""

import csv

from repro.eval import export
from repro.eval.export import export_all


def test_export_writes_every_exhibit(tmp_path, monkeypatch, cpi_table):
    # Reuse the session's CPI table instead of re-running the campaign.
    monkeypatch.setattr(export, "CpiTable", lambda scale: cpi_table)
    written = export_all(str(tmp_path), scale=cpi_table.scale)
    names = {path.rsplit("/", 1)[-1] for path in written}
    assert names == {
        "table1.csv", "table2.csv", "table3.csv", "figure3_breakdown.csv",
        "figure4_prediction.csv", "figure5_cpi_stacks.csv",
        "figure6_points.csv", "figure8_frontier.csv",
    }
    for path in written:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) >= 2, path          # header + data
        assert all(len(row) == len(rows[0]) for row in rows), path

    with open(tmp_path / "figure6_points.csv", newline="") as handle:
        points = list(csv.reader(handle))
    assert len(points) > 3000

    with open(tmp_path / "table2.csv", newline="") as handle:
        fields = {row[0]: int(row[1]) for row in list(csv.reader(handle))[1:]}
    assert sum(fields.values()) == 106

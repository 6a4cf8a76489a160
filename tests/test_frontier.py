"""The frontier harness (frontier/run.py) on two tiny configs: the JSON it writes
has the schema that --compare reads. No timing is checked."""

import importlib.util
import json
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "frontier" / "run.py"
TINY = [  # the second loads numpy before it refuses D
    ("enumerate-nat1-L3", {"command": "enumerate", "presentation": {"builtin": "nat", "d": 1}, "L": 3}, []),
    ("funcalg-bad-D", {"command": "funcalg", "kernel": "hardy", "D": -1}, []),  # exit 2, no report
]


def test_harness_writes_its_schema(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("frontier_run", RUN)
    frontier = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frontier)
    frontier.ROWS = TINY
    out = tmp_path / "bench.json"
    assert frontier.main(["--out", str(out), "--k", "2"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"host", "k", "sides", "rows"} and doc["k"] == 2 and doc["sides"] == ["change"]
    assert set(doc["host"]) == {"nproc", "machine", "python", "numpy", "scipy", "pins", "date"}
    assert set(doc["host"]["pins"].values()) == {"1"}
    assert [(r["name"], r["config"], r["args"]) for r in doc["rows"]] == TINY
    for row, status in zip(doc["rows"], (0, 2)):
        (runs,) = row["runs"].values()
        assert len(runs) == 2
        for run in runs:
            assert set(run) == {"wall_s", "cmd_ms", "peak_rss_mb", "status"} and run["status"] == status
            assert isinstance(run["wall_s"], float) and isinstance(run["peak_rss_mb"], float)
            assert (run["cmd_ms"] is None) == (status == 2)
    # each child's own peak RSS, not the harness's: the table command never loads numpy, the funcalg one does
    table, numeric = ([run["peak_rss_mb"] for run in row["runs"]["change"]] for row in doc["rows"])
    assert max(table) < min(numeric)
    capsys.readouterr()
    assert frontier.main(["--compare", "%s:change" % out, "%s:change" % out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[1:]] == [
        ["enumerate-nat1-L3", "wall_s"], ["enumerate-nat1-L3", "cmd_ms"], ["enumerate-nat1-L3", "peak_rss_mb"],
        ["enumerate-nat1-L3", "status"], ["funcalg-bad-D", "wall_s"], ["funcalg-bad-D", "peak_rss_mb"],
        ["funcalg-bad-D", "status"],
    ]


def test_named_rows_run_alone(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("frontier_run", RUN)
    frontier = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frontier)
    frontier.ROWS = TINY
    out = tmp_path / "bench.json"
    assert frontier.main(["--out", str(out), "--k", "1", "funcalg-bad-D"]) == 0
    (row,) = json.loads(out.read_text())["rows"]
    assert row["name"] == "funcalg-bad-D" and [run["status"] for run in row["runs"]["change"]] == [2]
    # a name that is no row is refused before anything runs
    with pytest.raises(SystemExit) as exc:
        frontier.main(["--out", str(tmp_path / "none.json"), "funcalg-bad-D", "no-such-row"])
    assert exc.value.code == 2 and "no such row: no-such-row" in capsys.readouterr().err
    assert not (tmp_path / "none.json").exists()

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_compare.py"
spec = importlib.util.spec_from_file_location("golden_compare", TOOL)
golden_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_compare)

HEADER = "scenario,outcome,detect_iterations,flagged_buses\n"


def _write(out, side, files):
    for rel, text in files.items():
        path = out / side / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _compare(tmp_path, parent, change):
    _write(tmp_path, "parent", parent)
    _write(tmp_path, "change", change)
    return golden_compare.compare(tmp_path, ["run"])


def test_moved_solver_columns_pass_and_their_counts_print(tmp_path, capsys):
    parent = {"run/scenarios.csv": HEADER + "1,bypassed,0,\n2,bypassed,46,\n",
              "run/meta.json": "{}", "run/timings.csv": "scenario,seconds\n1,0.5\n"}
    change = dict(parent, **{"run/scenarios.csv": HEADER + "1,bypassed,0,\n2,bypassed,29,\n",
                             "run/timings.csv": "scenario,seconds\n1,0.7\n"})
    assert not _compare(tmp_path, parent, change)
    printed = capsys.readouterr().out
    assert "run/meta.json: identical" in printed
    assert "run/scenarios.csv: differs" in printed
    assert "detect_iterations: 1 of 2 rows moved" in printed
    assert "timings.csv" not in printed


def test_a_moved_verdict_or_a_missing_file_fails(tmp_path):
    parent = {"run/scenarios.csv": HEADER + "1,bypassed,0,\n"}
    assert _compare(tmp_path / "outcome", parent,
                    {"run/scenarios.csv": HEADER + "1,detected-outside-set,0,\n"})
    assert _compare(tmp_path / "flagged", parent,
                    {"run/scenarios.csv": HEADER + "1,bypassed,0,8\n"})
    assert _compare(tmp_path / "rows", parent,
                    {"run/scenarios.csv": HEADER + "1,bypassed,0,\n2,bypassed,0,\n"})
    assert _compare(tmp_path / "missing", dict(parent, **{"run/trace.csv": "t\n"}), parent)

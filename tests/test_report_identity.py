import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"
_spec = importlib.util.spec_from_file_location("report_identity", _TOOL)
report_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_identity)

REPORT = {"schema": 1, "results": {"pde": {"h": 0.015625, "verdicts": ["bounded"]},
                                   "probes": {"kappa_max": 1.5}},
          "timings": {"pde": 0.25}}


def _tree(root: Path, report=REPORT, csv="r,v\n0.5,1.25\n") -> Path:
    op = root / "pde_fine__constant__pde"
    op.mkdir(parents=True)
    (op / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    (op / "profile.csv").write_text(csv)
    return root


def _diff(a: Path, b: Path, *ignore) -> int:
    return report_identity.main(["diff", str(a), str(b),
                                 *(["--ignore", *ignore] if ignore else [])])


@pytest.fixture
def parent(tmp_path):
    return _tree(tmp_path / "a")


def test_identical_trees_exit_0(tmp_path, parent, capsys):
    assert _diff(parent, _tree(tmp_path / "b")) == 0
    assert "2 files, 0 differ" in capsys.readouterr().out


def test_a_changed_timings_block_alone_exits_0(tmp_path, parent):
    changed = {**REPORT, "timings": {"pde": 9.5, "probes": 1.0}}
    assert _diff(parent, _tree(tmp_path / "b", report=changed)) == 0


def test_one_changed_csv_byte_exits_1(tmp_path, parent, capsys):
    assert _diff(parent, _tree(tmp_path / "b", csv="r,v\n0.5,1.26\n")) == 1
    assert "differs: pde_fine__constant__pde/profile.csv" in capsys.readouterr().out


def test_a_changed_results_field_exits_1_unless_ignored(tmp_path, parent, capsys):
    changed = json.loads(json.dumps(REPORT))
    changed["results"]["probes"]["kappa_max"] = 1.5000000000000002
    other = _tree(tmp_path / "b", report=changed)
    assert _diff(parent, other) == 1
    assert "results.probes.kappa_max" in capsys.readouterr().out
    assert _diff(parent, other, "results.probes.kappa_max") == 0
    assert _diff(parent, other, "results.probes") == 0
    assert _diff(parent, other, "results.pde") == 1


def test_each_repeated_ignore_flag_takes_effect(tmp_path, parent):
    changed = json.loads(json.dumps(REPORT))
    changed["results"]["probes"]["kappa_max"] = 2.5
    changed["results"]["pde"]["h"] = 0.0078125
    other = _tree(tmp_path / "b", report=changed)
    argv = ["diff", str(parent), str(other), "--ignore", "results.probes"]
    assert report_identity.main(argv) == 1
    assert report_identity.main(argv + ["--ignore", "results.pde.h"]) == 0


def test_a_file_on_one_side_only_exits_1(tmp_path, parent, capsys):
    other = _tree(tmp_path / "b")
    shutil.copy(other / "pde_fine__constant__pde" / "profile.csv",
                other / "pde_fine__constant__pde" / "profile_control.csv")
    assert _diff(parent, other) == 1
    assert "only in" in capsys.readouterr().out
    assert _diff(other, parent) == 1


@pytest.mark.parametrize("before, after, drift", [
    ("1e-16", "-1e-16", "2e-16"),     # near zero: the absolute change
    ("400", "400.004", "1e-05"),       # past 1: the change relative to A
])
def test_drift_is_the_gate_measure(tmp_path, capsys, before, after, drift):
    a = _tree(tmp_path / "a", csv=f"r,v\n0.5,{before}\n")
    b = _tree(tmp_path / "b", csv=f"r,v\n0.5,{after}\n")
    assert _diff(a, b) == 1
    assert (f"largest drift {drift} at pde_fine__constant__pde/profile.csv: 1.1"
            in capsys.readouterr().out)


def test_string_fields_that_differ_are_counted_apart(tmp_path, parent, capsys):
    # a rounding-level move of a number and a new numeric field: 0 string
    # fields differ
    moved = json.loads(json.dumps(REPORT))
    moved["results"]["probes"]["kappa_max"] = 1.5000000000000002
    moved["results"]["probes"]["discarded"] = 3
    assert _diff(parent, _tree(tmp_path / "b", report=moved)) == 1
    assert "\n0 string fields differ" in capsys.readouterr().out
    # a verdict, a flag, a null and a CSV text cell each count once
    changed = json.loads(json.dumps(moved))
    changed["results"]["pde"]["verdicts"] = ["growing"]
    changed["results"]["flags"] = {"eps_zero": True, "tail_slope": None}
    other = _tree(tmp_path / "c", report=changed, csv="r,w\n0.5,1.25\n")
    assert _diff(parent, other) == 1
    assert "\n4 string fields differ" in capsys.readouterr().out


def test_each_side_sums_its_probes_integrator_counters(tmp_path, parent, capsys):
    # summed over the reports that have them, also where the counters are
    # ignored in the comparison
    counted = json.loads(json.dumps(REPORT))
    counted["results"]["probes"]["integrator"] = {
        "rounds": 29, "accepted": 2858, "rejected": 1, "discarded": 2, "est_error": 1e-9}
    a = _tree(tmp_path / "a2", report=counted)
    second = a / "full_compare__constant__full"
    shutil.copytree(a / "pde_fine__constant__pde", second)
    moved = json.loads(json.dumps(counted))
    moved["results"]["probes"]["integrator"].update(rounds=27, discarded=20)
    b = _tree(tmp_path / "b", report=moved)
    shutil.copytree(second, b / "full_compare__constant__full")
    assert _diff(a, b, "results.probes.integrator") == 0
    assert ("probes integrator, A -> B: rounds 58 -> 56, accepted 5716 -> 5716, "
            "rejected 2 -> 2, discarded 4 -> 22" in capsys.readouterr().out)
    # a report without a probes stage adds nothing
    assert _diff(parent, _tree(tmp_path / "c")) == 0
    assert ("probes integrator, A -> B: rounds 0 -> 0, accepted 0 -> 0, "
            "rejected 0 -> 0, discarded 0 -> 0" in capsys.readouterr().out)

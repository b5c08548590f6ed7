"""scripts/make_golden.py --check: what it counts and how it exits."""

from __future__ import annotations

import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_golden.py"


def _script():
    spec = importlib.util.spec_from_file_location("make_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OLD = {"runs": [{"e": 1.0, "gone": 2, "same": "x", "rows": [1, 2]}]}
NEW = {"runs": [{"e": 1.5, "new": 3, "also": [4], "same": "x", "rows": [1, 2, 3]}]}


def test_changes_names_each_differing_leaf_with_its_kind():
    got = _script().changes(OLD, NEW)
    assert got == [
        ("added", "/runs[0]/also: only in new"),
        ("changed", "/runs[0]/e: 1.0 -> 1.5 (abs 5.000e-01, rel 5.000e-01)"),
        ("removed", "/runs[0]/gone: only in committed"),
        ("added", "/runs[0]/new: only in new"),
        ("changed", "/runs[0]/rows: length 2 -> 3"),
    ]
    assert _script().changes(OLD, OLD) == []


def test_summary_counts_added_removed_and_changed_fields_apart():
    module = _script()
    line = module.summary(kind for kind, _ in module.changes(OLD, NEW))
    assert line == ("5 field(s) differ from the committed golden files: "
                    "2 only in new, 1 only in committed, 2 changed")


def test_check_exits_1_on_any_difference_and_0_on_none(tmp_path, monkeypatch, capsys):
    module = _script()
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(OLD))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "build", lambda: {path: json.dumps(NEW)})
    assert module.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("5 field(s) differ")
    monkeypatch.setattr(module, "build", lambda: {path: json.dumps(OLD)})
    assert module.main(["--check"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0 field(s) differ from the committed golden files: "
        "0 only in new, 0 only in committed, 0 changed")
    assert json.loads(path.read_text()) == OLD  # --check writes nothing

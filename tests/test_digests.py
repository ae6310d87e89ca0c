"""The digest tool repeats itself on the README pipeline and reports a moved value."""

import importlib
import json
import os
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]


def test_digests_repeat_and_report_a_moved_value(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads on import
        digests = importlib.import_module("digests")
    first = digests.pipeline_digests(5)
    assert len(first) == 46 and "pipeline/seed5/sweep.csv" in first
    assert digests.moved(first, digests.pipeline_digests(5)) == []

    key = "pipeline/seed5/gen.json"
    saved = {**first, key: "0" * 64}
    (tmp_path / "saved.json").write_text(json.dumps(saved))
    monkeypatch.setattr(digests, "collect", lambda: first)
    assert digests.main(["--against", str(tmp_path / "saved.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{key}: {'0' * 64} -> {first[key]}", "1 moved"]
    (tmp_path / "saved.json").write_text(json.dumps(first))
    assert digests.main(["--against", str(tmp_path / "saved.json")]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 moved"]

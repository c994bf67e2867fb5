from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    interval, report = capsys.readouterr().out.splitlines()
    assert float(interval) == pytest.approx(266.667, abs=0.001)
    assert report.startswith("SimReport(logical_accesses=100000,")

"""Smoke runs of the scripts under scripts/, which no other code imports."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quantization_gap_prints_three_columns(capsys):
    load_script("quantization_gap").run(11.5, 0.6, 70, 20_000, 20240521)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["analytic", "chain", "MC", "trace", "MC"]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:6]}
    assert set(rows) == {"p_0", "p_1", "p_e", "throughput"}
    assert all(len(v) == 3 and all(0.0 <= x <= 1.0 for x in v) for v in rows.values())

"""Smoke runs of the scripts under scripts/, which no other code imports."""

import importlib.util
from pathlib import Path

import pytest

from harqfbl import fbl

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


def test_bench_pairs_counts_wins_and_flags_regressions():
    bench = load_script("bench_pairs")
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "rate", "better": "higher", "bound": 0.1}]

    def runs(walls, rates):
        return [{"wall_s": w, "rate": r, "attempted": 16, "failed": 0} for w, r in zip(walls, rates)]

    parent = runs([7.0, 6.5, 1.0, 6.9], [10.0, 10.0, 10.0, 10.0])
    change = runs([1.3, 1.2, 1.5, 1.4], [8.0, 8.5, 8.2, 8.4])
    cmp = bench.versus(parent, change, metrics)
    assert cmp["wall_s"]["change_wins_of_4_pairs"] == 3
    assert cmp["wall_s"]["resolved"] and not cmp["wall_s"]["regression"]
    assert cmp["rate"]["change_wins_of_4_pairs"] == 0
    assert cmp["rate"]["regression"]
    assert cmp["change_failed_share"] == 0.0
    s = bench.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 1.5, 4.5)


def test_bench_pairs_refuses_mismatched_bytecode_caches(tmp_path):
    bench = load_script("bench_pairs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "harqfbl").mkdir(parents=True)
        (checkout / "harqbench").mkdir()
    assert bench.bytecode_caches(parent, change) == {"parent": [], "change": []}
    (change / "src" / "harqfbl" / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="rm -rf .*change/src/harqfbl/__pycache__"):
        bench.bytecode_caches(parent, change)
    (parent / "src" / "harqfbl" / "__pycache__").mkdir()
    assert bench.bytecode_caches(parent, change)["parent"] == ["src/harqfbl/__pycache__"]


def test_fit_erfc_reproduces_the_kernel_table(capsys):
    # the coefficients hard-coded in fbl are the fit's output, bit for bit
    fit = load_script("fit_erfc")
    assert fit.fit() == fbl._ERFC_P
    fit.main()
    table: dict = {}
    exec(capsys.readouterr().out, table)
    assert table["_ERFC_P"] == fbl._ERFC_P

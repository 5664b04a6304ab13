import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harqfbl
from harqfbl import (
    CodeParams,
    ConfigError,
    FsmcModel,
    HarqConfig,
    Scheme,
    db_to_linear,
    outcomes_awgn,
    single_packet_delay,
    stream_delay,
)
from harqfbl import cli
from harqfbl.cli import (
    EXIT_CONFIG,
    EXIT_CONSTRUCTION,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    main,
)
from harqfbl.config import parse_config_text, resolve_config


class TestConfigParsing:
    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=r"file.cfg:3: unknown key 'bogus'"):
            parse_config_text("n = 100\n# comment\nbogus = 1\n", source="file.cfg")

    def test_bad_value_with_line_number(self):
        with pytest.raises(ConfigError, match=r"<config>:1: bad value for 'n'"):
            parse_config_text("n = ten\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r":2: expected"):
            parse_config_text("n = 100\nnonsense line\n")

    def test_typed_lists(self):
        cfg = parse_config_text("snr_db = -2, -1, 0\nk_list = 50,70\ntaus = 1.0,0.58\n")
        assert cfg["snr_db"] == [-2.0, -1.0, 0.0]
        assert cfg["k_list"] == [50, 70]
        assert cfg["taus"] == [1.0, 0.58]

    def test_preset_layering(self):
        cfg = resolve_config(preset="fig2a", file_text="k = 90\n", overrides={"seed": 7})
        assert cfg["n"] == 100
        assert cfg["k"] == 90
        assert cfg["seed"] == 7

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_config(preset="nope")

    def test_preset_key_inside_file(self):
        cfg = resolve_config(file_text="preset = fig5\nk = 90\n")
        assert cfg["m"] == 3
        assert cfg["k"] == 90


# every grid, optimiser and delay artifact of the bundled presets
PINNED = [
    ("per-curve", "fig2a", "csv", "4dc5a8af87095e770e0e5553e77d1aa74ca6bb8ed21731fa813bcd4f64e2fd51"),
    ("per-curve", "fig2a_cc", "csv", "f302d9ed1f2059b38890272d75bcbf1e63db7e195f4523483d8423fe9b5e624d"),
    ("per-curve", "fig2b", "csv", "1412202b27a1422765c302d589daa32a48bc0b6e1f0fcb4d321936626b0da489"),
    ("per-curve", "fig4a", "csv", "3eb40a3912f35b254c7f96bd77a5514717b3b79d18ba0d363a09b3a946d1e49e"),
    ("per-curve", "fig4b", "csv", "5529bb60f7dddb8b2bc4ce53812237ad65e4081c1f2def3a51388bfd13a5493e"),
    ("per-surface", "fig5", "csv", "33e02eb271de4c44533fbe2feecce18a16a7ccbfb68672a2e939fbd39928347c"),
    ("delay", "fig3", "csv", "03aee77a19cee03cb6167505a0da88a631922b61c5c1db3f31499ff87aedcf4d"),
    ("delay", "fig3_tau09", "csv", "8fc07ba70b056e60eb783ef1e607fe577ac68d013c187b83a3a4ff320b970b8b"),
    ("optimize", "table1a_slow", "csv", "feb48f9293ecee0e571cf7af779e309a3ede7b31bb65c6d3df285552c10bbdcc"),
    ("optimize", "table1a_slow", "json", "89236655ea269580f24c70f4226a113b1e5f72982ea8890385e15574b64cfccf"),
    ("optimize", "table1a_fast", "csv", "eeed1a5d9d5721ac231ba5030148a9e07b06f779a5128005f7edd72d1a2f1552"),
    ("optimize", "table1a_fast", "json", "39c0e63ca76f0b1164931150c05ae9beede16fe4f1e98a8935497e0ee9fade17"),
    ("optimize", "table1b_slow", "csv", "79dc977d756bc99b60b75fe337a9ea95b4413c2d0a77617cb6ba2716fa42b7bc"),
    ("optimize", "table1b_slow", "json", "8513d2841cb644bc0071d7ca3effb4a7ee1b007522b5263444f1cb3c37969930"),
    ("optimize", "table1b_fast", "csv", "b8a9589abc8e37a929265f07240a70cdf45933ffe23d40bacc15a6388880b4f6"),
    ("optimize", "table1b_fast", "json", "63f257b029a86be1b4472806d35cffae60fa9bcef9fe9de7ad4e1c4b48a5893c"),
]


class TestCommands:
    def test_per_curve_fig2a_and_determinism(self, tmp_path, capsys):
        args = ["per-curve", "--preset", "fig2a", "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        out_file = tmp_path / "fig2a_per_curve.csv"
        text = out_file.read_text()
        assert text.startswith("# ")
        assert "snr_db,k,tau1,per,log10_per,throughput" in text
        assert main(args) == EXIT_OK
        assert out_file.read_text() == text

    def test_per_curve_threshold_crossing(self, tmp_path):
        main(["per-curve", "--preset", "fig2a", "--out", str(tmp_path)])
        rows = [
            line.split(",")
            for line in (tmp_path / "fig2a_per_curve.csv").read_text().splitlines()
            if line and not line.startswith(("#", "snr_db"))
        ]
        at_minus1 = [(float(r[2]), float(r[3])) for r in rows if float(r[0]) == -1.0]
        smallest = min(t for t, per in at_minus1 if per <= 1e-4)
        assert abs(smallest - 0.58) <= 0.02

    def test_per_surface_fig5(self, tmp_path):
        assert main(["per-surface", "--preset", "fig5", "--out", str(tmp_path)]) == EXIT_OK
        rows = [
            line.split(",")
            for line in (tmp_path / "fig5_per_surface.csv").read_text().splitlines()
            if line and not line.startswith(("#", "snr_db"))
        ]
        table = {(float(r[2]), float(r[3])): (float(r[4]), float(r[6])) for r in rows}
        assert all(t2 <= t1 for t1, t2 in table)
        pers = {taus: v[0] for taus, v in table.items()}
        assert pers[(1.0, 1.0)] == min(pers.values())
        per_split, tp_split = table[(0.7, 0.6)]
        _, tp_full = table[(1.0, 1.0)]
        assert per_split <= 1e-4
        assert tp_split > tp_full

    def test_delay_fig3(self, tmp_path):
        assert main(["delay", "--preset", "fig3", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "fig3_delay.csv").read_text().splitlines()
        body = [l for l in lines if l and not l.startswith(("#", "scheme"))]
        groups = {tuple(l.split(",")[:2]) for l in body}
        assert ("CC", "50") in groups and ("IR", "90") in groups
        # tails within one group are nonincreasing
        tails = [float(l.split(",")[4]) for l in body if l.startswith("CC,50,")]
        assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))

    def test_fsmc_json_round_trips(self, tmp_path):
        assert main(["fsmc", "--preset", "fsmc_l4", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "fsmc_l4_fsmc.json").read_text())
        assert payload["config"]["L"] == 4
        model = FsmcModel.from_json(json.dumps(payload["model"]))
        assert model.n_states == 4
        assert all(s >= 0.0 for s in payload["tb_slacks_s"])

    def test_optimize_emits_csv_and_json(self, tmp_path):
        assert main(["optimize", "--preset", "table1b_slow", "--out", str(tmp_path)]) == EXIT_OK
        csv_text = (tmp_path / "table1b_slow_optimize.csv").read_text()
        assert "snr_db,tau1,per,throughput,feasible" in csv_text
        payload = json.loads((tmp_path / "table1b_slow_optimize.json").read_text())
        assert len(payload["reports"]) == 7
        assert len(payload["reports"][0]["frontier"]) == 10

    def test_simulate_awgn_flags_pass(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("preset = sim_cc_awgn\npackets = 20000\nstrict = true\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "sim_cc_awgn_simulate.json").read_text())
        assert all(payload["within_3_sigma"])
        assert payload["throughput_in_99ci"]

    def test_simulate_fading_strict_reports_quantisation_gap(self, tmp_path, capsys):
        # the trace-driven run deviates from the state-model analysis by
        # design; strict mode must surface that as a validation failure
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("preset = sim_fig4a\npackets = 20000\nstrict = true\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
        payload = json.loads((tmp_path / "sim_fig4a_simulate.json").read_text())
        assert not all(payload["within_3_sigma"])
        capsys.readouterr()

    def test_per_curve_fading_matches_library(self, tmp_path):
        assert main(["per-curve", "--preset", "fig4a", "--out", str(tmp_path)]) == EXIT_OK
        rows = [
            line.split(",")
            for line in (tmp_path / "fig4a_per_curve.csv").read_text().splitlines()
            if line and not line.startswith(("#", "snr_db"))
        ]
        spot = {
            (float(r[0]), float(r[2])): (float(r[3]), float(r[5])) for r in rows
        }
        per, tp = spot[(11.5, 0.4)]
        assert 1e-3 <= per <= 1e-2
        assert tp == pytest.approx(0.675, abs=0.02)

    def test_fsmc_with_trace_validation(self, tmp_path):
        cfg = tmp_path / "fsmc.cfg"
        cfg.write_text("preset = fsmc_l4\ntrials = 50000\nseed = 3\n")
        assert main(["fsmc", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "fsmc_l4_fsmc.json").read_text())
        v = payload["validation"]
        assert v["samples"] == 50000
        assert len(v["q_emp"]) == 4
        assert 0.0 <= v["skip_mass"] < 0.05

    def test_exit_codes(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["per-curve", "--config", str(missing)]) == EXIT_CONFIG
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        assert main(["per-curve", "--config", str(bad)]) == EXIT_CONFIG
        no_m = tmp_path / "no_m.cfg"
        no_m.write_text("n = 100\nk = 70\nsnr_db = -1\n")
        assert main(["per-curve", "--config", str(no_m)]) == EXIT_CONFIG
        # 13 states cannot dwell 3.0446 blocks each at f_d*t_tb = 0.04
        infeasible = tmp_path / "model.cfg"
        infeasible.write_text(
            "preset = table1a_fast\nL = 13\n"
        )
        assert main(["optimize", "--config", str(infeasible), "--out", str(tmp_path)]) == EXIT_CONSTRUCTION
        # 13^9 state paths blow the default enumeration budget
        huge = tmp_path / "huge.cfg"
        huge.write_text(
            "preset = fig4a\nm = 9\ntaus = 1.0,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5\n"
            "tau_grid = 0.5\n"
        )
        assert main(["per-curve", "--config", str(huge), "--out", str(tmp_path)]) == EXIT_RESOURCE
        # 7-digit taus put one packet on a lattice of 2e11 points, over the atom budget
        fine = tmp_path / "fine.cfg"
        fine.write_text("preset = fig3\nm = 3\ntaus = 1.0,0.1234567,0.2345671\nschemes = IR\n")
        assert main(["delay", "--config", str(fine), "--out", str(tmp_path)]) == EXIT_RESOURCE
        capsys.readouterr()

    def test_delay_csv_uses_twelve_significant_digits(self, tmp_path):
        assert main(["delay", "--preset", "fig3", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "fig3_delay.csv").read_text().splitlines()
        body = [l.split(",") for l in lines if l and not l.startswith(("#", "scheme"))]
        numbers = [x for row in body for x in row[2:]]
        assert all(x == f"{float(x):.12g}" for x in numbers)
        # some tail value needs all twelve digits, so none were cut shorter
        assert any(len(x.lstrip("-0.").replace(".", "").split("e")[0]) == 12 for x in numbers)

    @pytest.mark.parametrize(
        "command, preset, ext, digest", PINNED, ids=[f"{p}_{c.replace('-', '_')}.{e}" for c, p, e, _ in PINNED]
    )
    def test_artifacts_are_pinned(self, tmp_path, capsys, command, preset, ext, digest):
        # the sha256 of every line but those that name the output directory:
        # a CSV's '#' header and a JSON's config entry "out"
        assert main([command, "--preset", preset, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / f"{preset}_{command.replace('-', '_')}.{ext}").read_text().splitlines(keepends=True)
        body = "".join(l for l in lines if not l.startswith(("#", '    "out": ')))
        assert hashlib.sha256(body.encode()).hexdigest() == digest
        capsys.readouterr()

    def test_delay_csv_reports_pruned_mass(self, tmp_path, monkeypatch):
        # a tight lattice budget makes the stream prune its far tail; the
        # last column carries the mass it dropped
        budget = 300
        monkeypatch.setattr(cli, "stream_delay", lambda pmf, n: stream_delay(pmf, n, atom_budget=budget))
        assert main(["delay", "--preset", "fig3", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "fig3_delay.csv").read_text().splitlines()
        assert lines[[l.startswith("scheme") for l in lines].index(True)] == (
            "scheme,k,tau1,overhead,ccdf,pruned_mass"
        )
        body = [l.split(",") for l in lines if l and not l.startswith(("#", "scheme"))]
        for scheme, taus in (("CC", (1.0, 1.0)), ("IR", (1.0, 0.4))):
            for k in (50, 70, 90):
                cfg = HarqConfig(CodeParams(100, k), Scheme(scheme), 2, taus)
                pmf = single_packet_delay(cfg, outcomes_awgn(cfg, db_to_linear(-4.0)))
                pruned = stream_delay(pmf, 1000, atom_budget=budget).pruned_mass
                assert pruned > 0.0
                column = {row[5] for row in body if row[:2] == [scheme, str(k)]}
                assert column == {f"{pruned:.12g}"}

    def test_delay_of_a_huge_stream_is_bounded(self, tmp_path, capsys):
        # a 1e8-packet stream answers from its pruned window or exits 4
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("preset = fig3\nn_packets = 100000000\n")
        assert main(["delay", "--config", str(cfg), "--out", str(tmp_path)]) in (EXIT_OK, EXIT_RESOURCE)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, preset", [("per-curve", "fig2a"), ("per-surface", "fig5")])
    @pytest.mark.parametrize("grid", ["0.5,0.2", "0.2,0.2", "0.0,0.5", "0.5,1.5"])
    def test_bad_tau_grid_is_a_config_error(self, tmp_path, capsys, command, preset, grid):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"preset = {preset}\ntau_grid = {grid}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "tau grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, code",
        [
            ("c = nan", EXIT_CONSTRUCTION),
            ("c = 1e300", EXIT_CONSTRUCTION),
            ("f_d_hz = nan", EXIT_CONFIG),
            ("f_d_hz = inf", EXIT_CONFIG),
            ("t_tb_s = nan", EXIT_CONFIG),
            ("snr_db = nan", EXIT_CONFIG),
        ],
    )
    def test_non_finite_fading_arguments(self, tmp_path, capsys, line, code):
        cfg = tmp_path / "fading.cfg"
        cfg.write_text(f"preset = fig4a\n{line}\n")
        assert main(["per-curve", "--config", str(cfg), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "strictly increasing" not in err


    @pytest.mark.parametrize(
        "command, lines, argv",
        [
            ("simulate", "preset = sim_cc_awgn\n", ["--seed", "-1"]),
            ("fsmc", "preset = fsmc_l4\ntrials = 1000\n", ["--seed", "-1"]),
            ("per-curve", "preset = fig2a\nsnr_db = 4000\n", []),
            ("optimize", "preset = table1b_slow\nsnr_db = 1e6\n", []),
        ],
        ids=["simulate-seed", "fsmc-seed", "per-curve-snr", "optimize-snr"],
    )
    def test_bad_counts_seeds_and_snrs_are_config_errors(self, tmp_path, capsys, command, lines, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_import_loads_no_scipy(tmp_path):
    # a scipy import about triples the import time of the package, which
    # every CLI run pays; the kernel and its callers must not load it lazily
    code = (
        "import sys\n"
        "import harqfbl, harqfbl.cli\n"
        "from harqfbl import *\n"
        "cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.6))\n"
        "outcomes_awgn(cfg, 1.0)\n"
        "model = build_fixed_sojourn(4, 3.0446, 0.0855 / 0.00014, 0.00014, 10.0)\n"
        "outcomes_fading(FadingOutcomeQuery(cfg, model))\n"
        "simulate_harq(cfg, 1.0, 1_000, 0)\n"
        "sweep(OptimizationProblem(cfg, model, 0.01), [10.0, 11.0])\n"
        f"assert harqfbl.cli.main(['per-surface', '--preset', 'fig5', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(harqfbl.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == "False"

"""Command-line front end.

Subcommands reproduce the bundled scenario presets as CSV/JSON artifacts:

    per-curve    PER and throughput over the tau1 grid
    per-surface  PER and throughput over the (tau1, tau2) triangle (m = 3)
    delay        delay-overhead CCDF of an N-packet stream
    fsmc         build, validate and serialise a fading-state model
    optimize     constrained tau1 sweep over a list of SNRs
    simulate     Monte Carlo run with analytic comparison

Every artifact starts with a header recording the fully resolved config.
Exit codes: 0 ok, 2 config error, 3 construction error, 4 resource error,
5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

from .config import config_header_lines, require, resolve_config
from .delay import overhead_ccdf, single_packet_delay, stream_delay
from .errors import ConfigError, ConstructionError, HarqFblError, ResourceLimitError, ValidationFailure
from .fbl import CodeParams, KernelOptions, db_to_linear
from .fsmc import FsmcModel, build_equal_duration, build_fixed_sojourn
from .montecarlo import TraceChannel, generate_trace, simulate_harq, validate_fsmc
from .optimize import (
    COARSE_TAU_GRID,
    FINE_TAU_GRID,
    OptimizationProblem,
    at_snr,
    check_tau_grid,
    outcome_grid,
    outcome_on,
    reports_csv_lines,
    reports_to_json,
    sweep,
)
from .outcomes import HarqConfig, Scheme, throughput

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSTRUCTION = 3
EXIT_RESOURCE = 4
EXIT_VALIDATION = 5


def _kernel(cfg: dict[str, Any]) -> KernelOptions:
    return KernelOptions(
        dispersion_units=cfg.get("dispersion_units", "nats2"),
        cc_denominator=cfg.get("cc_denominator", "sqrt_nv"),
    )


def _tau_grid(cfg: dict[str, Any]) -> tuple[float, ...]:
    grid = cfg.get("tau_grid", "coarse")
    if grid == "coarse":
        return COARSE_TAU_GRID
    if grid == "fine":
        return FINE_TAU_GRID
    grid = tuple(grid)
    check_tau_grid(grid)
    return grid


def _harq_config(cfg: dict[str, Any], k: int | None = None, taus: tuple[float, ...] | None = None,
                 scheme: str | None = None) -> HarqConfig:
    require(cfg, "n", "m")
    scheme_name = scheme or cfg.get("scheme", "IR")
    m = cfg["m"]
    if taus is None:
        if scheme_name == "CC":
            taus = (1.0,) * m
        elif "taus" in cfg:
            taus = tuple(cfg["taus"])
        else:
            taus = (1.0,) * m
    code = CodeParams(cfg["n"], k if k is not None else cfg["k"])
    return HarqConfig(code=code, scheme=Scheme(scheme_name), m=m, taus=taus)


def _build_model(cfg: dict[str, Any], avg_snr_db: float) -> FsmcModel:
    require(cfg, "L", "f_d_hz", "t_tb_s")
    avg = db_to_linear(avg_snr_db)
    if cfg.get("partitioning", "equal-duration") == "fixed-sojourn":
        require(cfg, "c")
        return build_fixed_sojourn(cfg["L"], cfg["c"], cfg["f_d_hz"], cfg["t_tb_s"], avg)
    return build_equal_duration(cfg["L"], cfg["f_d_hz"], cfg["t_tb_s"], avg)


def _channel(cfg: dict[str, Any], snr_db: float) -> float | FsmcModel:
    """The configured fading model at snr_db, or the linear SNR itself."""
    if cfg.get("channel") == "fading":
        return _build_model(cfg, snr_db)
    return db_to_linear(snr_db)


def _out_path(cfg: dict[str, Any], command: str, ext: str) -> Path:
    out_dir = Path(cfg.get("out", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = cfg.get("scenario", "run")
    return out_dir / f"{scenario}_{command}.{ext}"


def _write_lines(path: Path, header: list[str], lines: list[str]) -> None:
    path.write_text("\n".join(header + lines) + "\n")


def _write_json(path: Path, payload: dict[str, Any], cfg: dict[str, Any]) -> None:
    payload = {"config": {k: cfg[k] for k in sorted(cfg)}, **payload}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_table(cfg: dict[str, Any], command: str, columns: list[str],
                 rows: list[list[Any]]) -> Path:
    """Emit a table as CSV (12 significant digits) or as JSON records."""
    if cfg.get("format", "csv") == "json":
        path = _out_path(cfg, command, "json")
        records = [dict(zip(columns, row)) for row in rows]
        _write_json(path, {"columns": columns, "rows": records}, cfg)
        return path
    path = _out_path(cfg, command, "csv")
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else f"{x:.12g}" for x in row))
    _write_lines(path, config_header_lines(cfg), lines)
    return path


def _log10(p: float) -> float:
    return math.log10(max(p, 1e-300))


def _grid_table(cfg: dict[str, Any], command: str, ks: list[int], candidates: list[tuple[float, ...]],
                tau_columns: list[str]) -> int:
    """PER and throughput of every candidate at every SNR and k, batched per (SNR, k)."""
    kernel = _kernel(cfg)
    channel = _channel(cfg, cfg["snr_db"][0])
    rows: list[list[Any]] = []
    for snr_db in cfg["snr_db"]:
        point = at_snr(channel, snr_db)
        for k in ks:
            for harq, out in outcome_grid(_harq_config(cfg, k, candidates[0]), point, candidates, kernel):
                taus = harq.taus[-len(tau_columns):]
                rows.append([snr_db, k, *taus, out.p_e, _log10(out.p_e), throughput(harq, out)])
    print(_write_table(cfg, command, ["snr_db", "k", *tau_columns, "per", "log10_per", "throughput"], rows))
    return EXIT_OK


def cmd_per_curve(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db", "m")
    grid = _tau_grid(cfg)
    ks = cfg.get("k_list")
    if ks is None:
        require(cfg, "k")
        ks = [cfg["k"]]
    if cfg.get("scheme", "IR") == "CC":
        candidates = [(1.0,) * cfg["m"]]
    else:
        candidates = [(1.0, *([t] * (cfg["m"] - 1))) for t in grid]
    return _grid_table(cfg, "per_curve", ks, candidates, ["tau1"])


def cmd_per_surface(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db", "k")
    if cfg.get("m") != 3:
        raise ConfigError("per-surface requires m = 3")
    grid = _tau_grid(cfg)
    candidates = [(1.0, t1, t2) for t1 in grid for t2 in grid if t2 <= t1]
    return _grid_table(cfg, "per_surface", [cfg["k"]], candidates, ["tau1", "tau2"])


def cmd_delay(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db", "n", "m")
    kernel = _kernel(cfg)
    n_packets = cfg.get("n_packets", 1000)
    channel = _channel(cfg, cfg["snr_db"][0])
    schemes = cfg.get("schemes", [cfg.get("scheme", "IR")])
    ks = cfg.get("k_list")
    if ks is None:
        require(cfg, "k")
        ks = [cfg["k"]]
    rows: list[list[Any]] = []
    for scheme in schemes:
        for k in ks:
            harq = _harq_config(cfg, k=k, scheme=scheme)
            outcome = outcome_on(harq, channel, kernel)
            stream = stream_delay(single_packet_delay(harq, outcome), n_packets)
            for x, tail in overhead_ccdf(stream, n_packets):
                rows.append([scheme, str(k), harq.taus[-1], x, tail, stream.pruned_mass])
    path = _write_table(cfg, "delay", ["scheme", "k", "tau1", "overhead", "ccdf", "pruned_mass"], rows)
    print(path)
    return EXIT_OK


def cmd_fsmc(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db")
    model = _build_model(cfg, cfg["snr_db"][0])
    payload: dict[str, Any] = {
        "model": json.loads(model.to_json()),
        "tb_slacks_s": list(model.tb_bound_slacks()),
        "sojourn_times_s": list(model.sojourn_times()),
    }
    trials = cfg.get("trials", 0)
    if trials:
        trace = generate_trace(
            model.f_d, model.t_tb, trials, cfg.get("seed", 0), cfg.get("oscillators", 64)
        )
        report = validate_fsmc(model, trace)
        payload["validation"] = {
            "samples": report.samples,
            "q_emp": list(report.q_emp),
            "q_se": list(report.q_se),
            "q_flags": list(report.q_flags),
            "p_emp": [list(r) for r in report.p_emp],
            "p_se": [list(r) for r in report.p_se],
            "p_flags": [list(r) for r in report.p_flags],
            "skip_mass": report.skip_mass,
        }
        if cfg.get("strict") and any(report.q_flags):
            _write_json(_out_path(cfg, "fsmc", "json"), payload, cfg)
            raise ValidationFailure("empirical state occupancy deviates by more than 3 sigma")
    path = _out_path(cfg, "fsmc", "json")
    _write_json(path, payload, cfg)
    print(path)
    return EXIT_OK


def cmd_optimize(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db", "k", "n", "m", "zeta0")
    kernel = _kernel(cfg)
    harq = _harq_config(cfg, taus=(1.0,) * cfg["m"], scheme="IR")
    channel = _channel(cfg, cfg["snr_db"][0])
    problem = OptimizationProblem(
        cfg_base=harq,
        channel=channel,
        per_ceiling=cfg["zeta0"],
        tau_grid=_tau_grid(cfg),
        constraint=cfg.get("constraint", "ceiling"),
        kernel=kernel,
    )
    reports = sweep(problem, cfg["snr_db"])
    csv_path = _out_path(cfg, "optimize", "csv")
    _write_lines(csv_path, config_header_lines(cfg), list(reports_csv_lines(reports)))
    json_path = _out_path(cfg, "optimize", "json")
    _write_json(json_path, {"reports": json.loads(reports_to_json(reports))}, cfg)
    print(csv_path)
    print(json_path)
    return EXIT_OK


def cmd_simulate(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db", "k", "n", "m", "packets")
    kernel = _kernel(cfg)
    harq = _harq_config(cfg)
    seed = cfg.get("seed", 0)
    channel = _channel(cfg, cfg["snr_db"][0])
    sim_channel: float | TraceChannel = channel
    if isinstance(channel, FsmcModel):
        trace = generate_trace(
            channel.f_d,
            channel.t_tb,
            cfg["packets"] * harq.m + harq.m,
            seed,
            cfg.get("oscillators", 64),
        )
        sim_channel = TraceChannel(trace, channel.avg_snr)
    analytic = outcome_on(harq, channel, kernel)
    result = simulate_harq(
        harq, sim_channel, cfg["packets"], seed, kernel, cfg.get("packet_start", "continuous")
    )
    analytic_tp = throughput(harq, analytic)
    def se_floor(p_hyp: float) -> float:
        # zero observed counts collapse the empirical SE; fall back to the
        # binomial SE under the analytic hypothesis
        return math.sqrt(max(p_hyp * (1.0 - p_hyp), 1e-300) / result.packets)

    flags = []
    for i in range(harq.m):
        se = max(result.outcome_se[i], se_floor(analytic.p[i]))
        flags.append(bool(abs(result.outcome.p[i] - analytic.p[i]) <= 3.0 * se))
    se_e = max(result.p_e_se, se_floor(analytic.p_e))
    flags.append(bool(abs(result.outcome.p_e - analytic.p_e) <= 3.0 * se_e))
    payload = {
        "empirical": {
            "p": list(result.outcome.p),
            "p_e": result.outcome.p_e,
            "p_se": list(result.outcome_se),
            "p_e_se": result.p_e_se,
            "throughput": result.throughput,
            "throughput_se": result.throughput_se,
            "packets": result.packets,
        },
        "analytic": {
            "p": list(analytic.p),
            "p_e": analytic.p_e,
            "throughput": analytic_tp,
        },
        "within_3_sigma": flags,
        "throughput_in_99ci": bool(
            abs(result.throughput - analytic_tp) <= 2.576 * max(result.throughput_se, 1e-300)
        ),
    }
    path = _out_path(cfg, "simulate", "json")
    _write_json(path, payload, cfg)
    print(path)
    if cfg.get("strict") and not (all(flags) and payload["throughput_in_99ci"]):
        raise ValidationFailure("Monte Carlo run deviates from the analytic model beyond 3 sigma")
    return EXIT_OK


COMMANDS = {
    "per-curve": cmd_per_curve,
    "per-surface": cmd_per_surface,
    "delay": cmd_delay,
    "fsmc": cmd_fsmc,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="harqfbl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="key = value config file")
        p.add_argument("--preset", default=None, help="bundled scenario preset name")
        p.add_argument("--out", default=None, help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed for stochastic commands")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_text = None
        source = "<config>"
        if args.config is not None:
            if not args.config.exists():
                raise ConfigError(f"config file not found: {args.config}")
            file_text = args.config.read_text()
            source = str(args.config)
        cfg = resolve_config(
            preset=args.preset,
            file_text=file_text,
            file_source=source,
            overrides={"out": args.out, "seed": args.seed, "format": args.format},
        )
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except HarqFblError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

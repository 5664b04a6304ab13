"""Command-line front end.

Subcommands reproduce the bundled scenario presets as CSV/JSON artifacts:

    per-curve    PER and throughput over the tau1 grid
    per-surface  PER and throughput over the (tau1, tau2) triangle (m = 3)
    delay        delay-overhead CCDF of an N-packet stream
    fsmc         build, validate and serialise a fading-state model
    optimize     constrained tau sweep over a list of SNRs (IR only)
    simulate     Monte Carlo run with analytic comparison

Every artifact starts with a header recording the fully resolved config.
A table names the retransmission coefficients taus[1:] tau1..tau{m-1}.
Exit codes: 0 ok, 2 config error, 3 construction error, 4 resource error,
5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from functools import cache
from pathlib import Path
from typing import Any

from .config import config_header_lines, require, resolve_config
from .delay import overhead_ccdf, single_packet_delay, stream_delay
from .errors import ConfigError, ConstructionError, HarqFblError, ResourceLimitError, ValidationFailure
from .fbl import CodeParams, KernelOptions, db_to_linear
from .fsmc import FsmcModel, build_equal_duration, build_fixed_sojourn
from .montecarlo import TraceChannel, generate_trace, simulate_harq, validate_fsmc
from .optimize import (COARSE_TAU_GRID, FINE_TAU_GRID, OptimizationProblem, at_snr, check_tau_grid, outcome_grid,
                       reports_payload, sweep, triangle_candidates)
from .outcomes import HarqConfig, Scheme, outcome_on, throughput

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSTRUCTION = 3
EXIT_RESOURCE = 4
EXIT_VALIDATION = 5

# (error class, stderr label, exit code): the first class an error is an instance of decides
_ERRORS = (
    (ConfigError, "config error", EXIT_CONFIG),
    (ConstructionError, "construction error", EXIT_CONSTRUCTION),
    (ResourceLimitError, "resource error", EXIT_RESOURCE),
    (ValidationFailure, "validation failure", EXIT_VALIDATION),
    (HarqFblError, "error", EXIT_CONFIG),
)


def _kernel(cfg: dict[str, Any]) -> KernelOptions:
    """The kernel conventions the config sets, KernelOptions' defaults for the rest."""
    return KernelOptions(**{f.name: cfg[f.name] for f in fields(KernelOptions) if f.name in cfg})


def _ks(cfg: dict[str, Any]) -> list[int]:
    """The code sizes of a table: k_list where the config has one, else k."""
    if "k_list" in cfg:
        return cfg["k_list"]
    require(cfg, "k")
    return [cfg["k"]]


def _tau_columns(m: int) -> list[str]:
    """The columns of taus[1:], the retransmission coefficients."""
    return [f"tau{i}" for i in range(1, m)]


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
        taus = tuple(cfg["taus"]) if scheme_name != "CC" and "taus" in cfg else (1.0,) * m
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


def _write_json(cfg: dict[str, Any], command: str, payload: dict[str, Any]) -> None:
    path = _out_path(cfg, command, "json")
    path.write_text(json.dumps({"config": {k: cfg[k] for k in sorted(cfg)}, **payload}, indent=2) + "\n")
    print(path)


def _write_csv(cfg: dict[str, Any], command: str, columns: list[str], rows: list[list[Any]]) -> None:
    """The config header, then the table with numbers to 12 significant digits."""
    path = _out_path(cfg, command, "csv")
    lines = [",".join([x if isinstance(x, str) else "%.12g" % x for x in row]) for row in [columns, *rows]]
    path.write_text("\n".join(config_header_lines(cfg) + lines) + "\n")
    print(path)


def _write_table(cfg: dict[str, Any], command: str, columns: list[str], rows: list[list[Any]]) -> None:
    """Emit a table as CSV or, with format = json, as JSON records."""
    if cfg.get("format", "csv") == "json":
        _write_json(cfg, command, {"columns": columns, "rows": [dict(zip(columns, row)) for row in rows]})
    else:
        _write_csv(cfg, command, columns, rows)


def _log10(p: float) -> float:
    return math.log10(max(p, 1e-300))


def _grid_table(cfg: dict[str, Any], command: str, candidates: list[tuple[float, ...]]) -> int:
    """PER and throughput of every candidate at every SNR and k, batched per (SNR, k)."""
    ks = _ks(cfg)
    kernel = _kernel(cfg)
    channel = _channel(cfg, cfg["snr_db"][0])
    rows: list[list[Any]] = []
    for snr_db in cfg["snr_db"]:
        point = at_snr(channel, snr_db)
        for k in ks:
            per, tp = outcome_grid(_harq_config(cfg, k, candidates[0]), point, candidates, kernel)
            for taus, p_e, eta in zip(candidates, per.tolist(), tp.tolist()):
                rows.append([snr_db, k, *taus[1:], p_e, _log10(p_e), eta])
    _write_table(cfg, command, ["snr_db", "k", *_tau_columns(cfg["m"]), "per", "log10_per", "throughput"], rows)
    return EXIT_OK


def cmd_per_curve(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db", "m")
    grid = _tau_grid(cfg)
    m = cfg["m"]
    one = cfg.get("scheme", "IR") == "CC" or m == 1  # chase combining and one round: one candidate, all ones
    candidates = [(1.0,) * m] if one else [(1.0, *([t] * (m - 1))) for t in grid]
    return _grid_table(cfg, "per_curve", candidates)


def cmd_per_surface(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db")
    if cfg.get("m") != 3:
        raise ConfigError("per-surface requires m = 3")
    return _grid_table(cfg, "per_surface", triangle_candidates(_tau_grid(cfg)))


def cmd_delay(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db", "n", "m")
    kernel = _kernel(cfg)
    n_packets = cfg.get("n_packets", 1000)
    channel = _channel(cfg, cfg["snr_db"][0])
    ks = _ks(cfg)
    rows: list[list[Any]] = []
    for scheme in cfg.get("schemes", [cfg.get("scheme", "IR")]):
        for k in ks:
            harq = _harq_config(cfg, k=k, scheme=scheme)
            stream = stream_delay(single_packet_delay(harq, outcome_on(harq, channel, kernel)), n_packets)
            for x, tail in overhead_ccdf(stream, n_packets).tolist():
                rows.append([scheme, str(k), *harq.taus[1:], x, tail, stream.pruned_mass])
    _write_table(cfg, "delay", ["scheme", "k", *_tau_columns(cfg["m"]), "overhead", "ccdf", "pruned_mass"], rows)
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
        payload["validation"] = {"samples": report.samples, **asdict(report)}  # samples first
    _write_json(cfg, "fsmc", payload)
    if trials and cfg.get("strict") and any(payload["validation"]["q_flags"]):
        raise ValidationFailure("empirical state occupancy deviates by more than 3 sigma")
    return EXIT_OK


def cmd_optimize(cfg: dict[str, Any]) -> int:
    require(cfg, "snr_db", "k", "n", "m", "zeta0")
    if cfg.get("scheme", "IR") != "IR":
        raise ConfigError("optimize requires scheme = IR")
    if cfg["m"] not in (2, 3):
        raise ConfigError("optimize requires m = 2 or 3")
    problem = OptimizationProblem(
        cfg_base=_harq_config(cfg, taus=(1.0,) * cfg["m"]),
        channel=_channel(cfg, cfg["snr_db"][0]),
        per_ceiling=cfg["zeta0"],
        tau_grid=_tau_grid(cfg),
        kernel=_kernel(cfg),
    )
    reports = sweep(problem, cfg["snr_db"])
    rows = [[r.snr_db, *r.tau_hat[1:], r.achieved_per, r.achieved_throughput, str(r.feasible).lower()] for r in reports]
    _write_csv(cfg, "optimize", ["snr_db", *_tau_columns(cfg["m"]), "per", "throughput", "feasible"], rows)
    _write_json(cfg, "optimize", {"reports": reports_payload(reports)})
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
    # p_0..p_{m-1}, then p_e, each within 3 sigma; zero observed counts collapse
    # the empirical SE, so it is floored by the binomial SE under the analytic p
    flags = [
        bool(abs(emp - p) <= 3.0 * max(se, math.sqrt(max(p * (1.0 - p), 1e-300) / result.packets)))
        for emp, p, se in zip((*result.outcome.p, result.outcome.p_e), (*analytic.p, analytic.p_e),
                              (*result.outcome_se, result.p_e_se))
    ]
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
    _write_json(cfg, "simulate", payload)
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


@cache  # one parser per process: parse_args leaves it as it found it
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
    except HarqFblError as exc:
        label, code = next((label, code) for kind, label, code in _ERRORS if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())

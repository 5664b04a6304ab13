"""The error contract, swept: every public callable and every CLI config key.

A call with one argument replaced by a wrong type, NaN, an infinity, an empty
value, None or a bool raises a HarqFblError or returns numbers none of which
is NaN; a constructor rejects the field, or, where the table names the call
that reads the object, that call does.  A CLI run with one config key set to
a bad value exits with a documented code and prints no traceback.
"""

import math
import numbers
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import harqfbl
from harqfbl import (
    COARSE_TAU_GRID,
    DEFAULT_KERNEL,
    CodeParams,
    DelayPmf,
    DomainError,
    FadingOutcomeQuery,
    HarqConfig,
    HarqFblError,
    OptimizationProblem,
    OutcomeDistribution,
    Scheme,
    TransmissionRecord,
    build_fixed_sojourn,
    cli,
    generate_trace,
    optimize_tau1,
    outcome_on,
    outcomes_fading,
    simulate_harq,
)
from harqfbl.config import KEY_PARSERS
from harqfbl.presets import PRESETS

BAD_VALUES = ("x", math.nan, math.inf, -math.inf, (), None, True)


def _api() -> dict:
    """name -> (one small valid call's arguments, the call that reads a constructed object or None[, the
    bad values that are valid at some positions])."""
    cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.6))
    cfg3 = HarqConfig(CodeParams(100, 70), Scheme.IR, 3, (1.0, 0.5, 0.3))
    model = build_fixed_sojourn(4, 3.0446, 0.0855 / 0.00014, 0.00014, 10.0)
    fields_of_model = (model.thresholds, model.q, model.transitions, model.state_snrs, model.avg_snr, model.f_d,
                       model.t_tb, model.c)
    trace = generate_trace(100.0, 1e-4, 2_000, 1)
    outcome = OutcomeDistribution((0.9, 0.09), 0.01)
    pmf = DelayPmf((1, 2), (0.9, 0.1), 0.0)
    problem = OptimizationProblem(cfg, 10.0, 0.01, COARSE_TAU_GRID, DEFAULT_KERNEL, 1_000)
    record = TransmissionRecord((1.0, 2.0), (100, 60))
    return {
        "CodeParams": ((100, 70), None),
        "DelayPmf": (((1, 2), (0.9, 0.1), 0.0), None),
        "FadingOutcomeQuery": ((cfg, model, DEFAULT_KERNEL, 1_000), outcomes_fading),
        "FadingTrace": ((trace.samples, 100.0, 1e-4, 1, 64), None),
        "FsmcModel": (fields_of_model, None),
        "HarqConfig": ((CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.6)), None),
        "KernelOptions": (("nats2",), None),
        "OptimizationProblem": ((cfg, 10.0, 0.01, COARSE_TAU_GRID, DEFAULT_KERNEL, 1_000), optimize_tau1),
        # a report of sweep's at +-inf dB (db_to_linear gives inf and 0), or made by optimize_tau1 (no SNR)
        "OptimizationReport": (((1.0, 0.5), 0.001, 0.6, True, (((1.0, 0.5), 0.001, 0.6, True),), 10.0), None,
                               {5: (math.inf, -math.inf, None)}),
        "OutcomeDistribution": (((0.9, 0.09), 0.01), None),
        "Scheme": (("IR",), None),
        "SimResult": ((outcome, (0.01, 0.01), 0.001, 0.6, 0.01, 1_000), None),
        "TraceChannel": ((trace, 10.0), lambda channel: simulate_harq(cfg, channel, 1_000, 0)),
        "TransmissionRecord": (((1.0, 2.0), (100, 60)), None),
        "at_snr": ((model, 10.0), None),
        "binomial_stream_delay": ((20, 0.5, 0.1), None),
        "build_equal_duration": ((4, 285.0, 0.0003, 10.0), None),
        "build_fixed_sojourn": ((4, 3.0446, 0.0855 / 0.00014, 0.00014, 10.0), None),
        "channel_dispersion": ((1.0,), None),
        "db_to_linear": ((3.0,), None),
        "from_target_c": ((3.0, 285.0, 0.0003, 10.0, 4), None),
        "generate_trace": ((100.0, 1e-4, 100, 1, 8), None),
        "level_crossing_rate": ((0.5, 100.0), None),
        "linear_to_db": ((2.0,), None),
        "marginal_probability": ((0.5, 1.0), None),
        "optimize_tau1": ((problem,), None),
        "optimize_tau12": ((OptimizationProblem(cfg3, 1.0, 0.01),), None),
        "outcome_on": ((cfg, 1.0, DEFAULT_KERNEL, 1_000), None),
        "outcomes_awgn": ((cfg, 1.0, DEFAULT_KERNEL), None),
        "outcomes_fading": ((FadingOutcomeQuery(cfg, model),), None),
        "overhead_ccdf": ((pmf, 10), None),
        "per_cc": ((CodeParams(100, 70), (1.0, 2.0), DEFAULT_KERNEL), None),
        "per_ir": ((CodeParams(100, 70), record, DEFAULT_KERNEL), None),
        "q_function": ((1.0,), None),
        "simulate_harq": ((cfg, 1.0, 1_000, 0, DEFAULT_KERNEL, "continuous"), None),
        "single_packet_delay": ((cfg, outcome), None),
        "state_snr": ((0.5, 1.0, 10.0), None),
        "stream_delay": ((pmf, 10, 1_000), None),
        "sweep": ((problem, (10.0, 11.0)), None),
        "throughput": ((cfg, outcome), None),
        "validate_fsmc": ((model, trace, 10), None),
    }


API = _api()
CALLABLES = sorted(
    name for name in harqfbl.__all__
    if callable(obj := getattr(harqfbl, name)) and not (isinstance(obj, type) and issubclass(obj, BaseException))
)


def _nan_free(x) -> bool:
    if isinstance(x, DelayPmf):
        return _nan_free((x.mass, x.pruned_mass))
    if is_dataclass(x):
        return all(_nan_free(getattr(x, f.name)) for f in fields(x))
    if isinstance(x, (tuple, list)):
        return all(map(_nan_free, x))
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "biufc" and not np.isnan(x).any()
    if isinstance(x, numbers.Number):
        return not np.isnan(x)
    return True


def _broken(call, must_raise: bool) -> str | None:
    """None if call() raises a HarqFblError or, unless it must raise, returns NaN-free numbers; else what it did."""
    try:
        result = call()
    except HarqFblError:
        return None
    except Exception as exc:  # noqa: BLE001 - any other class breaks the contract
        return f"raised {type(exc).__name__}: {exc}"
    if must_raise:
        return "accepted"
    return None if _nan_free(result) else f"returned NaN: {result!r:.200}"


@pytest.mark.parametrize("name", CALLABLES)
def test_every_public_callable_keeps_the_error_contract(name):
    assert name in API, f"{name} is public but has no entry in the contract table"
    args, reader, *valid = API[name]
    target = getattr(harqfbl, name)
    constructor = isinstance(target, type)
    read = reader or (lambda obj: obj)
    assert _nan_free(read(target(*args)))  # the valid call works
    broken = []
    for position, original in enumerate(args):
        for value in BAD_VALUES:
            if type(value) is type(original) and not isinstance(original, np.ndarray) and value == original or \
                    valid and value in valid[0].get(position, ()):
                continue  # not a replacement, or a valid one
            call_args = (*args[:position], value, *args[position + 1:])
            # a constructor whose object no reader checks must reject the field itself
            if (problem := _broken(lambda: read(target(*call_args)), constructor and reader is None)) is not None:
                broken.append((position, value, problem))
    assert not broken, broken


def test_scheme_given_as_its_value_runs_that_scheme():
    # 'CC' ran IR: HarqConfig kept the string, and the kernel tested scheme is Scheme.CC
    g = 10.0 ** (-1.0 / 10.0)
    by_value = outcome_on(HarqConfig(CodeParams(100, 100), "CC", 2, (1.0, 1.0)), g)
    by_member = outcome_on(HarqConfig(CodeParams(100, 100), Scheme.CC, 2, (1.0, 1.0)), g)
    assert by_value == by_member and by_value.p_e == pytest.approx(9.89e-7, rel=1e-3)
    assert HarqConfig(CodeParams(100, 100), "IR", 2, (1.0, 1.0)).scheme is Scheme.IR
    for scheme in ("zz", "cc", None, 1):
        with pytest.raises(DomainError, match="scheme"):
            HarqConfig(CodeParams(100, 100), scheme, 2, (1.0, 1.0))


# every bundled (command, preset) pair, as scripts/make_all_artifacts.py runs them
RUNS = [("per-curve", "fig2a"), ("per-curve", "fig2a_cc"), ("per-curve", "fig2b"), ("per-curve", "fig4a"),
        ("per-curve", "fig4b"), ("per-surface", "fig5"), ("delay", "fig3"), ("delay", "fig3_tau09"),
        ("fsmc", "fsmc_l13"), ("fsmc", "fsmc_l4"), ("optimize", "table1a_slow"), ("optimize", "table1a_fast"),
        ("optimize", "table1b_slow"), ("optimize", "table1b_fast"), ("simulate", "sim_cc_awgn"),
        ("simulate", "sim_fig4a")]
CLI_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", str(10**20), "zzz", "true", "", "1,2,3")
# the presets' budgets are capped, so that each run stays small; the bad values above the caps
# (1e308 and 10**20) are refused before any work
BUDGETS = {"packets": 20_000, "trials": 20_000}


def test_cli_sweep_covers_every_preset_and_key():
    assert {preset for _, preset in RUNS} == set(PRESETS)
    assert set(BUDGETS) <= set(KEY_PARSERS)


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=st.sampled_from(RUNS), key=st.sampled_from(sorted(KEY_PARSERS)), value=st.sampled_from(CLI_VALUES))
def test_cli_exits_with_a_documented_code_for_any_bad_value(tmp_path, capsys, run, key, value):
    command, preset = run
    lines = [f"preset = {preset}", *(f"{k} = {v}" for k, v in BUDGETS.items() if k in PRESETS[preset] and k != key)]
    config = tmp_path / "sweep.cfg"
    config.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4, 5) and "Traceback" not in err, (command, preset, key, value, code, err)

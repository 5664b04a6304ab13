"""Flat key/value run configuration.

A config file holds one `key = value` pair per line; blank lines and lines
starting with '#' are ignored.  Every key is typed against the registry
below, unknown keys are rejected with the offending line number, and a
`preset` key pulls in one of the bundled scenario presets as a base layer.
"""

from __future__ import annotations

from typing import Any, Callable

from .errors import ConfigError
from .presets import PRESETS


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_list(item: Callable[[str], Any]) -> Callable[[str], list]:
    # a command reads a list's first entry, so an empty list is refused here
    def parse(s: str) -> list:
        values = [item(x) for x in s.split(",") if x.strip()]
        if not values:
            raise ValueError("expected a nonempty comma-separated list")
        return values

    return parse


_parse_float_list = _parse_list(float)


def _parse_choice(*choices: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        v = s.strip()
        if v not in choices:
            raise ValueError(f"expected one of {choices}, got {v!r}")
        return v

    return parse


def _parse_budget(s: str) -> int:
    # checked before the CLI sizes anything by m; 64 rounds is far beyond any HARQ budget in use
    m = int(s)
    if not 1 <= m <= 64:
        raise ValueError(f"a transmission budget m must lie in 1..64, got {m}")
    return m


def _parse_tau_grid(s: str) -> Any:
    v = s.strip()
    if v in ("coarse", "fine"):
        return v
    return _parse_float_list(v)


KEY_PARSERS: dict[str, Callable[[str], Any]] = {
    "preset": str.strip,
    "scenario": str.strip,
    "seed": int,
    "out": str.strip,
    "format": _parse_choice("csv", "json"),
    "scheme": _parse_choice("CC", "IR"),
    "schemes": _parse_list(_parse_choice("CC", "IR")),
    "n": int,
    "k": int,
    "k_list": _parse_list(int),
    "m": _parse_budget,
    "taus": _parse_float_list,
    "tau_grid": _parse_tau_grid,
    "channel": _parse_choice("awgn", "fading"),
    "snr_db": _parse_float_list,
    "f_d_hz": float,
    "t_tb_s": float,
    "L": int,
    "c": float,
    "partitioning": _parse_choice("equal-duration", "fixed-sojourn"),
    "zeta0": float,
    "constraint": _parse_choice("ceiling", "floor"),
    "dispersion_units": _parse_choice("nats2", "bits2"),
    "cc_denominator": _parse_choice("sqrt_nv", "n_sqrt_v"),
    "trials": int,
    "packets": int,
    "n_packets": int,
    "oscillators": int,
    "packet_start": _parse_choice("continuous", "iid"),
    "strict": _parse_bool,
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, Any]:
    """Parse key = value lines into a typed dict, rejecting unknown keys."""
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            out[key] = KEY_PARSERS[key](value.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


def resolve_config(
    preset: str | None = None,
    file_text: str | None = None,
    file_source: str = "<config>",
    overrides: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Layer preset < config file < explicit overrides into one dict."""
    resolved: dict[str, Any] = {}
    file_cfg = parse_config_text(file_text, file_source) if file_text is not None else {}
    preset_name = preset or file_cfg.get("preset")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        resolved.update(PRESETS[preset_name])
    resolved.update({k: v for k, v in file_cfg.items() if k != "preset"})
    if overrides:
        resolved.update({k: v for k, v in overrides.items() if v is not None})
    return resolved


def require(cfg: dict[str, Any], *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")


def config_header_lines(cfg: dict[str, Any]) -> list[str]:
    """Self-describing artifact header: the resolved config, sorted."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, list):
            value = ",".join(str(x) for x in value)
        lines.append(f"# {key} = {value}")
    return lines

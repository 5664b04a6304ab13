"""Bundled scenario presets.

Each preset is a flat key/value dict in the same namespace the config-file
parser uses, so `--preset NAME` and a config file compose freely (the file
overrides the preset).  The fading presets pin the partition with c as an
input (fixed-sojourn construction); f_d and t_tb are listed explicitly so
either member of an f_d * t_tb pairing can be reproduced by overriding one
of them.  Presets share their entries, lists included: nothing may mutate
a resolved config.
"""

from __future__ import annotations

# f_d values giving f_d * t_tb = 0.0338 and 0.04 at t_tb = 0.14 ms
_FD_SLOW = 0.0338 / 0.00014
_FD_FAST = 0.04 / 0.00014

# the fixed-SNR code; a fading preset overrides the channel
_CODE = {"channel": "awgn", "n": 100, "m": 2}
_SLOW = {"channel": "fading", "partitioning": "fixed-sojourn", "L": 13, "c": 3.0446, "f_d_hz": _FD_SLOW,
         "t_tb_s": 0.00014}
_FAST = {**_SLOW, "L": 10, "f_d_hz": _FD_FAST}
_TABLE1 = {"scheme": "IR", "snr_db": [11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0], "tau_grid": "coarse", "zeta0": 0.01}
_FIG3 = {**_CODE, "schemes": ["CC", "IR"], "k_list": [50, 70, 90], "k": 50, "snr_db": [-4.0], "n_packets": 1000}

PRESETS: dict[str, dict] = {name: {"scenario": name, **cfg} for name, cfg in {
    # PER/throughput vs tau1, fixed-SNR channel
    "fig2a": {**_CODE, "scheme": "IR", "k": 100, "snr_db": [-2.0, -1.0, 0.0], "tau_grid": "fine"},
    "fig2a_cc": {**_CODE, "scheme": "CC", "k": 100, "snr_db": [-2.0, -1.0, 0.0], "tau_grid": "fine"},
    "fig2b": {**_CODE, "scheme": "IR", "k_list": [50, 70, 90], "k": 70, "snr_db": [-5.0], "tau_grid": "fine"},
    # delay overhead CCDF for a 1000-packet stream
    "fig3": {**_FIG3, "taus": [1.0, 0.4]},
    "fig3_tau09": {**_FIG3, "taus": [1.0, 0.9]},
    # PER/throughput vs tau1 over the fading model
    "fig4a": {**_CODE, **_SLOW, "scheme": "IR", "k": 70, "snr_db": [10.5, 11.5, 12.5], "tau_grid": "coarse"},
    "fig4b": {**_CODE, **_SLOW, "scheme": "IR", "k": 100, "snr_db": [11.5, 12.5, 13.5], "tau_grid": "coarse"},
    # two-retransmission surface, fixed-SNR channel
    "fig5": {**_CODE, "scheme": "IR", "k": 70, "m": 3, "snr_db": [-4.0], "tau_grid": "coarse"},
    # optimal tau1 sweeps
    "table1a_slow": {**_CODE, **_SLOW, **_TABLE1, "k": 100},
    "table1a_fast": {**_CODE, **_FAST, **_TABLE1, "k": 100},
    "table1b_slow": {**_CODE, **_SLOW, **_TABLE1, "k": 70},
    "table1b_fast": {**_CODE, **_FAST, **_TABLE1, "k": 70},
    # channel model construction
    "fsmc_l13": {"channel": "fading", "partitioning": "equal-duration", "L": 13, "f_d_hz": 210.0, "t_tb_s": 0.00014,
                 "snr_db": [10.0]},
    "fsmc_l4": {"channel": "fading", "partitioning": "equal-duration", "L": 4, "f_d_hz": 285.0, "t_tb_s": 0.0003,
                "snr_db": [10.0]},
    # Monte Carlo spot checks
    "sim_cc_awgn": {**_CODE, "scheme": "CC", "k": 100, "taus": [1.0, 1.0], "snr_db": [-1.0], "packets": 1_000_000,
                    "seed": 20240521},
    "sim_fig4a": {**_CODE, **_SLOW, "scheme": "IR", "k": 70, "taus": [1.0, 0.6], "snr_db": [11.5], "packets": 1_000_000,
                  "seed": 20240521},
}.items()}

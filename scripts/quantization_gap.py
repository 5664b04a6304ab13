#!/usr/bin/env python3
"""Quantify how well the state-model analysis tracks a continuous channel.

Three estimates of the same HARQ scenario are printed side by side:

  analytic    exact path enumeration over the state model
  chain MC    Monte Carlo on the state model itself (sampling noise only)
  trace MC    packet simulation against a continuous correlated fading
              trace (sampling noise + state-quantisation error)

The chain column validates the enumeration; the trace column measures the
modelling error of the state abstraction, which is substantial for the
residual error: consecutive rounds of a real fade are far more correlated
than a one-step state transition suggests.
"""

import argparse

from harqfbl import (
    CodeParams,
    FadingOutcomeQuery,
    HarqConfig,
    Scheme,
    TraceChannel,
    build_fixed_sojourn,
    db_to_linear,
    generate_trace,
    outcomes_fading,
    simulate_harq,
    throughput,
)


def run(snr_db: float, tau1: float, k: int, packets: int, seed: int) -> None:
    cfg = HarqConfig(CodeParams(100, k), Scheme.IR, 2, (1.0, tau1))
    model = build_fixed_sojourn(13, 3.0446, 0.0338 / 0.00014, 0.00014, db_to_linear(snr_db))
    query = FadingOutcomeQuery(cfg, model)

    analytic = outcomes_fading(query)
    chain = simulate_harq(cfg, model, packets, seed)
    trace = generate_trace(model.f_d, model.t_tb, packets * 2 + 2, seed + 1)
    sim = simulate_harq(cfg, TraceChannel(trace, model.avg_snr), packets, seed + 2)

    print(f"k={k}, tau1={tau1}, avg SNR {snr_db} dB, {packets} packets")
    print(f"{'':12}{'analytic':>14}{'chain MC':>14}{'trace MC':>14}")
    rows = [
        ("p_0", analytic.p[0], chain.outcome.p[0], sim.outcome.p[0]),
        ("p_1", analytic.p[1], chain.outcome.p[1], sim.outcome.p[1]),
        ("p_e", analytic.p_e, chain.outcome.p_e, sim.outcome.p_e),
    ]
    for name, a, c, t in rows:
        print(f"{name:12}{a:14.6g}{c:14.6g}{t:14.6g}")
    print(f"{'throughput':12}{throughput(cfg, analytic):14.6g}{chain.throughput:14.6g}"
          f"{sim.throughput:14.6g}")
    if analytic.p_e > 0:
        print(f"trace/analytic residual-error ratio: {sim.outcome.p_e / analytic.p_e:.1f}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--snr-db", type=float, default=11.5)
    ap.add_argument("--tau1", type=float, default=0.6)
    ap.add_argument("--k", type=int, default=70)
    ap.add_argument("--packets", type=int, default=500_000)
    ap.add_argument("--seed", type=int, default=20240521)
    args = ap.parse_args()
    run(args.snr_db, args.tau1, args.k, args.packets, args.seed)

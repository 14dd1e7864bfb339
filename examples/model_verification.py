#!/usr/bin/env python3
"""Model-verification methodology walk-through (Figures 2, 3, 19).

Reproduces the paper's development-process machinery end to end:

1. Generate a trace, turn it into an executable performance test program
   with the Reverse Tracer, and cross-check the trace-driven model
   against the execution-driven logic simulator (Figure 3, loop (2)).
2. Replay the model-version history v1..v8, showing the estimate
   convergence with the v5 special-instruction anomaly, and track
   model-vs-"machine" error across verification phases (Figure 19; the
   paper ends below 5%, SPECfp2000 here does not: EXPERIMENTS.md "Known
   gaps" 6).

Run:  python examples/model_verification.py
"""

from repro.analysis import fig19_accuracy, workload_by_name
from repro.trace.synth import generate_trace, standard_profiles
from repro.verify import ReverseTracer, cross_check


def step1_cross_check() -> None:
    print("=== 1. Reverse Tracer + logic-simulator cross-check ===")
    trace = generate_trace(standard_profiles()["SPECint95"], 3_000, seed=7)
    program, fidelity = ReverseTracer().generate(trace)
    print(
        f"trace: {len(trace):,} instructions -> test program: "
        f"{len(program):,} static instructions"
    )
    print(f"replay fidelity: {fidelity.as_dict()}")

    result = cross_check(program, max_steps=12_000)
    print(
        f"both paths agree: {result.instructions:,} instructions in "
        f"{result.cycles:,} cycles (IPC {result.ipc:.3f})\n"
    )


def step2_accuracy() -> None:
    print("=== 2. Model versions and accuracy (Figure 19) ===")
    workloads = [
        workload_by_name(name, warm=40_000, timed=10_000)
        for name in ("SPECint2000", "SPECfp2000")
    ]
    print(fig19_accuracy(workloads).format_table())
    print(
        "\nEstimates decrease as model rigidity improves; v5 moves back up\n"
        "because special instructions got their detailed model (the paper's\n"
        "v4-era flat experimental penalty was pessimistic).  The paper's final\n"
        "error is 3.9% on SPECfp2000 and 4.2% on SPECint2000."
    )


def main() -> None:
    step1_cross_check()
    step2_accuracy()


if __name__ == "__main__":
    main()

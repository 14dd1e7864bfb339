"""The logic-simulator analog: execution-driven timing runs.

The paper's logic simulator executes performance test programs against
the actual hardware logic; model verification compares its cycle counts
against the trace-driven performance model fed the original trace
(Figure 3, loop (2)).

We have no RTL; the substitute preserves the *two-path* structure:

- the **trace-driven path** is :class:`repro.model.PerformanceModel`
  consuming a pre-recorded trace;
- the **execution-driven path** is this module: the functional SPARC
  subset executor runs the test program, producing the dynamic stream
  that drives the cycle engine.

:func:`cross_check` runs both paths over the same program and asserts
cycle-exact agreement — the determinism/equivalence invariant the
paper's methodology relies on.  Divergence indicates a bug in one of the
drivers, exactly the class of defect loop (2) existed to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import VerificationError
from repro.core.pipeline import CoreStats, ProcessorCore
from repro.isa.executor import ExecutionResult, FunctionalExecutor
from repro.isa.program import Program
from repro.model.config import MachineConfig, base_config
from repro.model.simulator import PerformanceModel, build_cpu
from repro.trace.stream import Trace


@dataclass
class LogicSimResult:
    """Outcome of one execution-driven run."""

    program_name: str
    instructions: int
    cycles: int
    halted: bool
    core: CoreStats
    execution: ExecutionResult

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class LogicSimulator:
    """Executes test programs and times them cycle-accurately."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        max_steps: int = 2_000_000,
    ) -> None:
        self.config = config or base_config()
        self.max_steps = max_steps

    def run(self, program: Program) -> LogicSimResult:
        """Functionally execute ``program``, then time its stream."""
        executor = FunctionalExecutor(max_steps=self.max_steps, halt_on_limit=True)
        execution = executor.run(program)
        trace = Trace(execution.records, name=f"exec:{program.name}")

        config = self.config
        hierarchy, bht, _ = build_cpu(config, trace)
        core = ProcessorCore(trace, hierarchy, config.core, config.frontend, bht)
        stats = core.run()
        return LogicSimResult(
            program_name=program.name,
            instructions=stats.instructions,
            cycles=stats.cycles,
            halted=execution.halted,
            core=stats,
            execution=execution,
        )


def cross_check(
    program: Program,
    config: Optional[MachineConfig] = None,
    max_steps: int = 2_000_000,
) -> LogicSimResult:
    """Run both verification paths on ``program``; raise on divergence.

    The execution-driven path (logic simulator) and the trace-driven path
    (performance model fed the recorded stream) must report identical
    cycle counts.
    """
    config = config or base_config()
    logic = LogicSimulator(config, max_steps=max_steps)
    logic_result = logic.run(program)

    trace = Trace(logic_result.execution.records, name=f"trace:{program.name}")
    model_result = PerformanceModel(config).run(trace, warmup_fraction=0.0)

    if model_result.cycles != logic_result.cycles:
        raise VerificationError(
            f"paths diverge on {program.name!r}: "
            f"model={model_result.cycles} cycles, "
            f"logic simulator={logic_result.cycles} cycles"
        )
    if model_result.instructions != logic_result.instructions:
        raise VerificationError(
            f"instruction counts diverge on {program.name!r}: "
            f"{model_result.instructions} vs {logic_result.instructions}"
        )
    if model_result.core.cpi_stack != logic_result.core.cpi_stack:
        # Equal cycle counts with different attributions means the
        # accountant classified identical pipeline states differently —
        # a divergence in the observability layer, not the timing.
        raise VerificationError(
            f"CPI stacks diverge on {program.name!r}: "
            f"model={model_result.core.cpi_stack} vs "
            f"logic simulator={logic_result.core.cpi_stack}"
        )
    return logic_result

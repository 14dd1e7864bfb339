"""Fetch unit: the five-stage instruction-fetch pipeline.

Models the paper's I-unit fetch behaviour (§3, §3.1):

- up to eight instructions (one 32-byte fetch group) per cycle;
- a five-stage fetch pipeline (1 priority + 3 L1I access + 1 validate),
  so fetched instructions become decodable ``pipeline_depth`` cycles
  after their fetch cycle;
- fetch stops at a taken control transfer; redirecting to the target
  costs ``BhtParams.access_latency`` bubbles (the 1- vs 2-bubble
  difference at the heart of the §4.3.2 BHT study);
- an L1I miss stalls fetch until the line returns;
- a mispredicted branch blocks fetch past it until the core resolves the
  branch and calls :meth:`FetchUnit.redirect` (trace-driven models do not
  fetch wrong-path instructions; the dead time *is* the penalty).

Prediction bookkeeping: conditional directions come from the BHT,
returns from the RAS, and other transfers are treated as predicted-taken
(the SPARC64 V fetches targets via the branch history table).  The BHT is
trained at fetch time — in a trace-driven single-path model the in-flight
update delay has no second-order effect to capture.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.common.errors import ConfigError
from repro.frontend.bht import BranchHistoryTable
from repro.frontend.ras import ReturnAddressStack
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace


@dataclass(frozen=True)
class FrontEndParams:
    """Fetch/decode front-end configuration."""

    fetch_group_bytes: int = 32
    fetch_width: int = 8
    #: Fetch pipeline depth: priority(1) + L1I access(3) + validate(1).
    pipeline_depth: int = 5
    #: Fetch-buffer capacity in instructions.
    buffer_capacity: int = 48
    #: Extra front-end restart cycles after a mispredict resolves.
    redirect_penalty: int = 2
    #: Treat every conditional branch as perfectly predicted (Figure 7).
    perfect_prediction: bool = False
    ras_depth: int = 8

    def __post_init__(self) -> None:
        if self.fetch_width <= 0 or self.fetch_group_bytes <= 0:
            raise ConfigError("fetch width/group must be positive")
        if self.pipeline_depth < 1:
            raise ConfigError("fetch pipeline depth must be >= 1")
        if self.buffer_capacity < self.fetch_width:
            raise ConfigError("fetch buffer must hold at least one fetch group")


class FetchedInstruction:
    """A trace record annotated with fetch/prediction outcomes."""

    __slots__ = ("record", "fetch_cycle", "avail_cycle", "mispredicted", "predicted_taken")

    def __init__(
        self,
        record: TraceRecord,
        fetch_cycle: int,
        avail_cycle: int,
        mispredicted: bool,
        predicted_taken: bool,
    ) -> None:
        self.record = record
        self.fetch_cycle = fetch_cycle
        self.avail_cycle = avail_cycle
        self.mispredicted = mispredicted
        self.predicted_taken = predicted_taken


class FetchUnit:
    """Trace-driven fetch engine feeding the decode buffer."""

    def __init__(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        bht: BranchHistoryTable,
        params: FrontEndParams,
    ) -> None:
        self.params = params
        #: Handed in, not built here: it is warmed before the core exists,
        #: and sampled simulation shares one across per-window cores.
        self.bht = bht
        self.ras = ReturnAddressStack(params.ras_depth)
        self._hierarchy = hierarchy
        self._records = trace.records
        self._position = 0
        self._buffer: Deque[FetchedInstruction] = deque()
        #: Fetch is idle until this cycle (I-miss, taken-branch bubbles).
        self._stall_until = 0
        #: Why fetch is idle until ``_stall_until``: "icache" (L1I miss or
        #: ITLB walk), "bubble" (taken-branch redirect), or "redirect"
        #: (front-end restart after a resolved mispredict).
        self._stall_reason: Optional[str] = None
        #: True while fetch is blocked behind an unresolved mispredict.
        self._blocked = False
        #: A group whose I-line is already being filled (avoid re-access).
        self._pending_delivery = False
        #: Optional pipeline event tracer (set by the core).
        self.tracer = None
        # Counters.
        self.fetch_groups = 0
        self.icache_stall_cycles = 0
        self.taken_bubble_cycles = 0

    # ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when the entire trace has been fetched."""
        return self._position >= len(self._records)

    def buffer_empty(self) -> bool:
        return not self._buffer

    def pop_ready(self, cycle: int, limit: int) -> List[FetchedInstruction]:
        """Remove up to ``limit`` instructions whose fetch pipe completed."""
        out: List[FetchedInstruction] = []
        while self._buffer and len(out) < limit and self._buffer[0].avail_cycle <= cycle:
            out.append(self._buffer.popleft())
        return out

    def redirect(self, cycle: int) -> None:
        """Resume fetch after a mispredicted branch resolves."""
        self._blocked = False
        self._stall_until = max(self._stall_until, cycle + self.params.redirect_penalty)
        self._stall_reason = "redirect"

    def stall_reason(self, cycle: int) -> Optional[str]:
        """Why fetch is delivering nothing at ``cycle`` (for the accountant).

        One of "mispredict" (blocked behind an unresolved branch),
        "drained" (trace exhausted), "icache"/"bubble"/"redirect" (idle
        until ``_stall_until``), or None (actively fetching; anything
        missing downstream is fetch-pipe latency).
        """
        if self._blocked:
            return "mispredict"
        if self.exhausted:
            return "drained"
        if cycle < self._stall_until:
            return self._stall_reason
        return None

    def next_wake_cycle(self) -> Optional[int]:
        """Earliest future cycle at which fetch state can change."""
        if self._blocked or self.exhausted:
            return None
        return self._stall_until

    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        """Fetch at most one group this cycle."""
        if self._blocked or self.exhausted or cycle < self._stall_until:
            return
        if len(self._buffer) + self.params.fetch_width > self.params.buffer_capacity:
            return

        if self._pending_delivery:
            self._pending_delivery = False
            self._deliver_group(cycle)
            return

        first = self._records[self._position]
        access = self._hierarchy.fetch(cycle, first.pc)
        if access.level != "l1" or access.tlb_cycles:
            # Miss (or TLB walk): the group arrives when the line does.
            self._stall_until = access.ready_cycle
            self._stall_reason = "icache"
            self.icache_stall_cycles += access.ready_cycle - cycle
            self._pending_delivery = True
            return

        self._deliver_group(cycle)

    def _deliver_group(self, cycle: int) -> None:
        params = self.params
        group_mask = ~(params.fetch_group_bytes - 1)
        first = self._records[self._position]
        group_base = first.pc & group_mask
        avail = cycle + params.pipeline_depth
        count = 0
        redirected = False

        while (
            not redirected
            and count < params.fetch_width
            and self._position < len(self._records)
        ):
            record = self._records[self._position]
            if record.pc & group_mask != group_base:
                break
            mispredicted = False
            predicted_taken = False
            if record.op == OpClass.BRANCH_COND:
                if params.perfect_prediction:
                    predicted_taken = record.taken
                else:
                    predicted_taken = self.bht.predict(record.pc)
                    mispredicted = predicted_taken != record.taken
                    self.bht.update(record.pc, record.taken, predicted_taken)
            elif record.op == OpClass.CALL:
                predicted_taken = True
                self.ras.push(record.pc + 4)
            elif record.op == OpClass.RETURN:
                predicted_taken = True
                if not params.perfect_prediction:
                    mispredicted = not self.ras.predict_return(record.target)
                else:
                    self.ras.predict_return(record.target)
            elif record.op == OpClass.BRANCH_UNCOND:
                predicted_taken = True

            self._buffer.append(
                FetchedInstruction(record, cycle, avail, mispredicted, predicted_taken)
            )
            self._position += 1
            count += 1

            if mispredicted:
                # Fetch follows the wrong path; deliver nothing further
                # until the core resolves this branch.
                self._blocked = True
                redirected = True
            elif record.taken:
                # Correctly-predicted taken transfer: redirect with the
                # BHT-access bubble penalty.
                bubbles = self.bht.params.access_latency
                self._stall_until = cycle + 1 + bubbles
                self._stall_reason = "bubble"
                self.taken_bubble_cycles += bubbles
                redirected = True

        self.fetch_groups += 1
        if self.tracer is not None and count:
            self.tracer.emit(cycle, "fetch", -1, first.pc, count)

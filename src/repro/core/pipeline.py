"""The out-of-order pipeline engine.

Cycle-driven model of the SPARC64 V core, driven by a fetch unit that
consumes a trace.  Per cycle, in this order:

1. completion events (execution finishing, branch resolution);
2. in-order commit of up to four instructions from the window head;
3. load/store unit: up to two requests to the L1 operand cache, with
   bank-conflict arbitration (§3.2);
4. dispatch from reservation stations, speculatively when enabled (§3.1);
5. decode of up to four instructions into the window, allocating rename
   registers, station entries and LSQ entries;
6. fetch of one group.

**Speculative dispatch and replay.**  A dispatching instruction may use a
producer whose result is not final (an unresolved load, or something
downstream of one).  It registers as a *waiter* on each such producer.
When a load resolves at its predicted L1-hit time, waiters are confirmed;
when it resolves late (miss, bank-conflict delay, TLB walk), every waiter
is cancelled recursively — returned to its reservation station for
re-dispatch — reproducing §3.1's "all instructions that have
read-after-write dependency must be cancelled at every stage".
Cancellation epochs invalidate the stale completion events.

**Mispredicted branches.**  The model is trace-driven and single-path:
fetch blocks at a mispredicted branch and resumes when the branch
resolves, so the misprediction penalty is the dead fetch time plus the
pipeline refill — the same accounting the paper's model uses.

**Observability.**  A CPI-stack accountant runs on every cycle (it is a
couple of dict increments, so it is always on): a cycle with at least
one commit is ``base``; a zero-commit cycle is attributed to whatever
blocks the window head, or to the front end when the window is empty
(see :mod:`repro.observe.cpistack` for the scheme).  The attributed
cycles must sum to ``CoreStats.cycles`` exactly — the conservation
invariant is enforced in :meth:`ProcessorCore.finalize_stats`.  A
:class:`~repro.observe.events.PipelineTracer` can additionally be
attached for per-uop structured event traces; when none is attached the
only cost is an ``is None`` test per event site.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import SimulationError
from repro.core.lsq import LoadResolution, LoadStoreUnit
from repro.core.params import CoreParams, RsOrganization
from repro.core.rename import RenameTracker
from repro.core.reservation import ReservationStation, StationGroup
from repro.core.uop import FAR_FUTURE, Uop, UopState
from repro.frontend.bht import BranchHistoryTable
from repro.frontend.fetch import FetchedInstruction, FetchUnit, FrontEndParams
from repro.isa.opcodes import OpClass, uses_rsa, uses_rsbr, uses_rse, uses_rsf
from repro.memory.hierarchy import MemoryHierarchy
from repro.observe import categories as cat
from repro.observe.cpistack import merge as merge_stacks
from repro.observe.cpistack import new_stack, prune, verify_conservation
from repro.trace.stream import Trace

#: Abort threshold for a wedged simulation (no activity, no wake events).
_DEADLOCK_LIMIT = 100_000


def functional_warm(
    hierarchy: MemoryHierarchy, bht, records, prefetch: bool = False
) -> int:
    """Update caches/TLBs/predictor with ``records``, without timing.

    The functional-warming mode of sampled simulation: between detailed
    windows the instruction stream only maintains micro-architectural
    *contents* — cache tags, TLB entries, BHT counters — so a window
    starts from realistic state without paying detailed-simulation cost.
    State changes mirror the timed path's fill and training decisions.
    ``prefetch=True`` also keeps the L2 prefetch engine in sync (see
    :meth:`MemoryHierarchy.warm_fetch`).  Returns the number of records
    processed.
    """
    count = 0
    for record in records:
        hierarchy.warm_fetch(record.pc, prefetch=prefetch)
        if record.is_memory:
            hierarchy.warm_data(record.ea, record.is_store, prefetch=prefetch)
        elif record.op == OpClass.BRANCH_COND:
            bht.warm(record.pc, record.taken)
        count += 1
    return count


def step_cores(
    cores: List["ProcessorCore"],
    max_cycles: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> int:
    """Step ``cores`` in global cycle order until every one has finished.

    The one stepping loop: a uniprocessor run is the one-core case, and
    an SMP run steps all unfinished cores on each cycle so their shared
    bus and coherence traffic is timed against each other.  A cycle on
    which no core does anything jumps to the earliest cycle at which any
    unfinished core can act again (:meth:`ProcessorCore._next_cycle`);
    each core's accountant attributes the skipped span in bulk.
    ``stop``, polled after every step, ends the run early when it
    returns True (windowed measurement).  Returns the next unstepped
    cycle, i.e. the cycle count of a run that went to completion.
    """
    active = [core for core in cores if not core.finished]
    cycle = 0
    idle_streak = 0
    while active:
        if max_cycles is not None and cycle > max_cycles:
            raise SimulationError(f"exceeded max_cycles={max_cycles}")
        activity = finished = False
        for core in active:
            if core.step_cycle(cycle):
                activity = True
                # Only a step with activity (a commit) can finish a core.
                finished |= core.finished
        if activity:
            idle_streak = 0
            cycle += 1
        else:
            idle_streak += 1
            if idle_streak > _DEADLOCK_LIMIT:
                raise SimulationError(
                    f"deadlock at cycle {cycle}: "
                    + "; ".join(
                        f"{core._trace_name} committed {core._committed}/"
                        f"{core._trace_length}, window {core._window_size()}"
                        for core in active
                    )
                )
            cycle = min(core._next_cycle(cycle) for core in active)
        if stop is not None and stop():
            break
        if finished:
            active = [core for core in active if not core.finished]
    return cycle


def _cache_counts(cache) -> Dict[str, int]:
    """Raw (un-ratioed) counters of one cache, for snapshot differencing."""
    stats = cache.stats
    return {
        "demand_accesses": stats.demand_accesses,
        "demand_misses": stats.demand_misses,
        "prefetch_accesses": stats.prefetch_accesses,
        "prefetch_misses": stats.prefetch_misses,
        "writebacks": stats.writebacks,
        "invalidations_received": stats.invalidations_received,
        "prefetch_useful": stats.prefetch_useful,
    }


def _diff_snapshots(start: Dict[str, object], end: Dict[str, object]) -> Dict[str, object]:
    """Counter-wise ``end - start``; every counter is monotone between them."""
    out: Dict[str, object] = {}
    for key, after in end.items():
        before = start[key]
        if isinstance(after, dict):
            # Union in insertion order, so payload bytes never depend
            # on the interpreter's hash seed.
            out[key] = {
                k: after.get(k, 0) - before.get(k, 0) for k in {**before, **after}
            }
        else:
            out[key] = after - before
    out["cpi_stack"] = prune(out["cpi_stack"])
    return out


def sum_snapshots(snapshots: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Counter-wise sum of snapshot-shaped dicts (e.g. sampled windows).

    The summed CPI stack conserves the summed cycles when each input's
    does.
    """
    out: Dict[str, object] = {}
    for key, first in snapshots[0].items():
        if key == "cpi_stack":
            out[key] = merge_stacks([snap[key] for snap in snapshots])
        elif isinstance(first, dict):
            total: Dict[str, int] = {}
            for snap in snapshots:
                for k, value in snap[key].items():
                    total[k] = total.get(k, 0) + value
            out[key] = total
        else:
            out[key] = sum(snap[key] for snap in snapshots)
    return out


@dataclass
class CoreStats:
    """Raw counters produced by one core run."""

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    replays: int = 0
    dispatches: int = 0
    load_level_counts: Dict[str, int] = field(default_factory=dict)
    decode_stalls: Dict[str, int] = field(default_factory=dict)
    bank_conflicts: int = 0
    store_forwards: int = 0
    order_stalls: int = 0
    fetch_icache_stall_cycles: int = 0
    fetch_taken_bubble_cycles: int = 0
    branch_mispredictions: int = 0
    conditional_branches: int = 0
    #: CPI-stack: cycles attributed to each stall category (zero entries
    #: pruned).  Invariant: the values sum to ``cycles`` exactly.
    cpi_stack: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def misprediction_ratio(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.branch_mispredictions / self.conditional_branches

    @classmethod
    def from_counts(cls, counts: Dict[str, object]) -> "CoreStats":
        """The core counters of a :meth:`ProcessorCore.snapshot`-shaped dict."""
        return cls(**{stat.name: counts[stat.name] for stat in fields(cls)})


class ProcessorCore:
    """One SPARC64 V core executing one trace."""

    def __init__(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        core_params: CoreParams,
        frontend_params: FrontEndParams,
        bht: BranchHistoryTable,
    ) -> None:
        self.params = core_params
        self.hierarchy = hierarchy
        self.fetch = FetchUnit(trace, hierarchy, bht, frontend_params)
        self.lsu = LoadStoreUnit(core_params, hierarchy)
        self.rename = RenameTracker(core_params.int_rename, core_params.fp_rename)
        self._build_stations(core_params)
        self.window: List[Uop] = []  # treated as a FIFO; head at index 0
        self._window_head = 0
        self._seq = 0
        self._events: List[tuple] = []  # (cycle, counter, kind, epoch, uop, payload)
        self._event_counter = 0
        self._wakes: List[int] = []
        #: Min over station ``next_eligible`` notes, maintained at the
        #: tail of :meth:`_dispatch` so the idle-cycle jump does not
        #: re-walk every station (the notes cannot change between
        #: dispatch and :meth:`_next_cycle`: only ``select`` writes them,
        #: and decode/fetch never do).
        self._station_wake: Optional[int] = None
        self._trace_length = len(trace)
        self._committed = 0
        #: Live decode/dispatch counters (:meth:`snapshot` reads the rest
        #: from the units that own them) until :meth:`finalize_stats`
        #: replaces it with the final counters.
        self.stats = CoreStats()
        self._decode_stalls = {kind: 0 for kind in cat.DECODE_STALL_KINDS}
        self._load_levels: Dict[str, int] = {}
        self.cycle = 0
        self._trace_name = getattr(trace, "name", "trace")
        # CPI-stack accountant: every cycle in [0, _accounted_until) has
        # been attributed to exactly one category in _stack.
        self._stack = new_stack()
        self._accounted_until = 0
        #: Optional PipelineTracer (see attach_tracer).
        self.tracer = None

    def _build_stations(self, params: CoreParams) -> None:
        if params.rs_organization is RsOrganization.TWO_RS:
            rse = [
                ReservationStation(f"RSE{i}", params.rse_entries, 1)
                for i in range(params.int_units)
            ]
            rsf = [
                ReservationStation(f"RSF{i}", params.rsf_entries, 1)
                for i in range(params.fp_units)
            ]
        else:
            rse = [
                ReservationStation(
                    "RSE", params.rse_entries * params.int_units, params.int_units
                )
            ]
            rsf = [
                ReservationStation(
                    "RSF", params.rsf_entries * params.fp_units, params.fp_units
                )
            ]
        self.rse = StationGroup("RSE", rse)
        self.rsf = StationGroup("RSF", rsf)
        self.rsa = ReservationStation("RSA", params.rsa_entries, params.eag_units)
        self.rsbr = ReservationStation("RSBR", params.rsbr_entries, 1)
        self._all_stations: List[ReservationStation] = rse + rsf + [self.rsa, self.rsbr]

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once every trace instruction has committed."""
        return self._committed >= self._trace_length

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.observe.events.PipelineTracer` (or None)."""
        self.tracer = tracer
        self.fetch.tracer = tracer

    def step_cycle(self, cycle: int) -> bool:
        """Advance all pipeline phases for one cycle; True on any activity."""
        self.cycle = cycle
        account = cycle >= self._accounted_until
        if account and cycle > self._accounted_until:
            # The driver skipped an idle span: no event fired and no phase
            # ran inside it, so the classification at the span start holds
            # for every skipped cycle.
            span = cycle - self._accounted_until
            self._stack[self._classify_stall(self._accounted_until)] += span
        activity = self._process_events(cycle)
        newly_committed = self._commit(cycle)
        self._committed += newly_committed
        activity |= newly_committed > 0

        resolutions, lsu_active = self.lsu.step(cycle)
        activity |= lsu_active
        for resolution in resolutions:
            self._schedule_resolution(resolution)
            activity = True

        activity |= self._dispatch(cycle)
        activity |= self._decode(cycle)

        buffered_before = len(self.fetch._buffer)
        self.fetch.step(cycle)
        activity |= len(self.fetch._buffer) != buffered_before

        if account:
            if newly_committed:
                self._stack[cat.BASE] += 1
            else:
                self._stack[self._classify_stall(cycle)] += 1
            self._accounted_until = cycle + 1
        return activity

    def run(self, max_cycles: Optional[int] = None) -> CoreStats:
        """Simulate until the whole trace commits; returns the statistics."""
        return self.finalize_stats(step_cores([self], max_cycles))

    # ------------------------------------------------------------------
    # Windowed measurement (sampled simulation).
    # ------------------------------------------------------------------

    def run_measured(
        self,
        measure_start: int,
        measure_end: int,
        max_cycles: Optional[int] = None,
    ) -> Dict[str, object]:
        """Run in detail, measuring only commits ``measure_start..measure_end``.

        The counter snapshot taken when the ``measure_start``-th commit
        is crossed is subtracted from the one taken at the
        ``measure_end``-th, so the leading instructions prime the
        pipeline in detailed mode without polluting the measurement, and
        the run stops as soon as the measured span has committed —
        trailing trace records (the drain pad) only serve to keep fetch
        busy through the end of the measured span.  Returns the flat
        measured-counter dict consumed by
        :mod:`repro.analysis.estimate`; the measured CPI stack conserves
        the measured cycles exactly.
        """
        if not 0 <= measure_start < measure_end:
            raise SimulationError("need 0 <= measure_start < measure_end")
        start_snap = self.snapshot() if measure_start == 0 else None
        end_snap = None

        def crossed_end() -> bool:
            nonlocal start_snap, end_snap
            if start_snap is None and self._committed >= measure_start:
                start_snap = self.snapshot()
            if self._committed >= measure_end:
                end_snap = self.snapshot()
                return True
            return False

        step_cores([self], max_cycles, stop=crossed_end)
        if start_snap is None:
            raise SimulationError(
                f"measurement start {measure_start} beyond trace "
                f"({self._committed} instructions committed)"
            )
        if end_snap is None:
            # Trace shorter than requested: measure through the last commit.
            end_snap = self.snapshot()
        measured = _diff_snapshots(start_snap, end_snap)
        verify_conservation(
            measured["cpi_stack"],
            measured["cycles"],
            where=f"measured window of trace {self._trace_name!r}",
        )
        return measured

    def snapshot(self) -> Dict[str, object]:
        """Copy every measured counter at the current accounting point.

        The one way counters leave a core: full, sampled and SMP results
        are all built from snapshots by
        :meth:`~repro.model.stats.SimResult.from_counts`.

        ``step_cycle`` attributes each cycle before returning, so after
        any step the stack total equals ``_accounted_until`` exactly and
        a snapshot difference inherits CPI-stack conservation.
        """
        hierarchy = self.hierarchy
        bht_stats = self.fetch.bht.stats
        return {
            "cycles": self._accounted_until,
            "instructions": self._committed,
            "cpi_stack": prune(self._stack),
            "loads": self.stats.loads,
            "stores": self.stats.stores,
            "branches": self.stats.branches,
            "replays": self.stats.replays,
            "dispatches": self.stats.dispatches,
            "bank_conflicts": self.lsu.bank_conflicts,
            "store_forwards": self.lsu.forwards,
            "order_stalls": self.lsu.order_stalls,
            "fetch_icache_stall_cycles": self.fetch.icache_stall_cycles,
            "fetch_taken_bubble_cycles": self.fetch.taken_bubble_cycles,
            "branch_mispredictions": bht_stats.mispredictions,
            "conditional_branches": bht_stats.conditional_branches,
            "decode_stalls": dict(self._decode_stalls),
            "load_level_counts": dict(self._load_levels),
            "l1i": _cache_counts(hierarchy.l1i),
            "l1d": _cache_counts(hierarchy.l1d),
            "l2": _cache_counts(hierarchy.l2),
            "itlb": {
                "accesses": hierarchy.itlb.stats.accesses,
                "misses": hierarchy.itlb.stats.misses,
            },
            "dtlb": {
                "accesses": hierarchy.dtlb.stats.accesses,
                "misses": hierarchy.dtlb.stats.misses,
            },
            "l1_l2_bus_busy": hierarchy.l1_l2_bus.busy_cycles,
            "system_bus_busy": hierarchy.domain.bus_busy_by_cpu[hierarchy.cpu],
            "prefetches_issued": hierarchy.prefetcher.stats.issued,
        }

    def finalize_stats(self, cycles: int) -> CoreStats:
        """Close the CPI-stack books after the last commit.

        Enforces conservation (the attributed cycles must equal
        ``cycles`` exactly) and returns the final counters, also left in
        ``self.stats``; a later :meth:`snapshot` reads the same books.
        """
        if cycles > self._accounted_until:
            # Tail the driver never stepped (an SMP core idling after its
            # own trace finished): one classification covers the span.
            span = cycles - self._accounted_until
            self._stack[self._classify_stall(self._accounted_until)] += span
            self._accounted_until = cycles
        verify_conservation(
            self._stack, cycles, where=f"trace {self._trace_name!r}"
        )
        self.stats = CoreStats.from_counts(self.snapshot())
        return self.stats

    def _next_cycle(self, cycle: int) -> int:
        candidates = []
        if self._events:
            candidates.append(self._events[0][0])
        while self._wakes and self._wakes[0] <= cycle:
            heapq.heappop(self._wakes)
        if self._wakes:
            candidates.append(self._wakes[0])
        fetch_wake = self.fetch.next_wake_cycle()
        if fetch_wake is not None and fetch_wake > cycle:
            candidates.append(fetch_wake)
        # A buffered group still in the fetch pipe becomes decodable at
        # its delivery cycle even while fetch itself stalls on the next
        # group's I-miss; without this candidate the jump overshoots it.
        buffer = self.fetch._buffer
        if buffer:
            head_avail = buffer[0].avail_cycle
            if head_avail > cycle:
                candidates.append(head_avail)
        lsu_wake = self.lsu.pending_work_cycle(cycle)
        if lsu_wake is not None:
            candidates.append(lsu_wake)
        station_wake = self._station_wake
        if station_wake is not None and station_wake > cycle:
            candidates.append(station_wake)
        if not candidates:
            return cycle + 1
        return max(cycle + 1, min(candidates))

    def _wake(self, cycle: int) -> None:
        heapq.heappush(self._wakes, cycle)

    def _window_size(self) -> int:
        return len(self.window) - self._window_head

    def _classify_stall(self, cycle: int) -> str:
        """Attribute one zero-commit cycle to the category blocking progress.

        Head-of-window rule: the oldest in-flight instruction is the one
        commit is waiting for, so the cycle is charged to whatever that
        instruction is waiting on.  With an empty window the front end is
        responsible.  See :mod:`repro.observe.cpistack` for the scheme.
        """
        if self._window_head < len(self.window):
            uop = self.window[self._window_head]
            if uop.is_load:
                level = uop.mem_level
                if level is not None:
                    # Resolution known: charge the servicing level.
                    return cat.LEVEL_CATEGORY.get(level, cat.DCACHE_L1)
                lsu = self.lsu
                if lsu.last_conflict_cycle == cycle and lsu.last_conflict_seq == uop.seq:
                    return cat.BANK_CONFLICT
                if (
                    lsu.last_order_stall_cycle == cycle
                    and lsu.last_order_stall_seq == uop.seq
                ):
                    return cat.LSQ_ORDER
                if uop.replays:
                    return cat.REPLAY
                # Address generation / L1 access at predicted hit timing.
                return cat.DCACHE_L1
            if uop.is_store:
                if uop.state == UopState.DONE:
                    return cat.STORE_DATA
                if uop.replays:
                    return cat.REPLAY
                return cat.EXEC
            if uop.mispredicted and uop.is_branch and uop.state != UopState.DONE:
                return cat.BRANCH_MISPREDICT
            if uop.replays:
                return cat.REPLAY
            return cat.EXEC
        if self.fetch._buffer:
            # Instructions are in the fetch pipe but not yet decodable.
            return cat.FRONTEND_FILL
        reason = self.fetch.stall_reason(cycle)
        if reason is None:
            return cat.FRONTEND_FILL
        return cat.FETCH_CATEGORY[reason]

    # ------------------------------------------------------------------
    # Phase 1: completion events.
    # ------------------------------------------------------------------

    def _schedule_done(self, uop: Uop, cycle: int) -> None:
        self._event_counter += 1
        heapq.heappush(
            self._events, (cycle, self._event_counter, "done", uop.epoch, uop, None)
        )

    def _schedule_resolution(self, resolution: LoadResolution) -> None:
        """Queue a load's hit/miss outcome to become visible to the core.

        The L1 reports hit/miss when the speculatively scheduled data
        would have been forwarded — one hit-latency after issue — so
        dependents keep dispatching against the hit prediction until then
        (this window is what makes cancel-and-replay happen at all, §3.1).
        Store-forwarded data is known immediately.
        """
        uop = resolution.uop
        if resolution.level == "forward":
            apply_at = resolution.ready_cycle
        else:
            apply_at = resolution.issue_cycle + self.hierarchy.l1d.geometry.hit_latency
        self._event_counter += 1
        heapq.heappush(
            self._events,
            (apply_at, self._event_counter, "resolve", uop.epoch, uop, resolution),
        )

    def _process_events(self, cycle: int) -> bool:
        activity = False
        while self._events and self._events[0][0] <= cycle:
            event_cycle, _, kind, epoch, uop, payload = heapq.heappop(self._events)
            if uop.epoch != epoch or uop.state != UopState.INFLIGHT:
                continue  # stale (cancelled and possibly re-dispatched)
            if kind == "resolve":
                self._apply_load_resolution(payload, event_cycle)
            else:
                uop.state = UopState.DONE
                if self.tracer is not None:
                    self.tracer.emit(event_cycle, "complete", uop.seq, uop.mem_level)
                if not uop.confirmed:
                    self._confirm(uop)
                if uop.is_branch and uop.mispredicted:
                    self.fetch.redirect(cycle)
            activity = True
        return activity

    # ------------------------------------------------------------------
    # Phase 2: commit.
    # ------------------------------------------------------------------

    def _commit(self, cycle: int) -> int:
        committed = 0
        while committed < self.params.commit_width and self._window_head < len(self.window):
            uop = self.window[self._window_head]
            if uop.state != UopState.DONE or uop.done_cycle > cycle:
                break
            if uop.is_store and not self._store_data_ready(uop, cycle):
                break
            uop.state = UopState.COMMITTED
            uop.commit_cycle = cycle
            if self.tracer is not None:
                self.tracer.emit(cycle, "commit", uop.seq)
            self.rename.release(uop)
            if uop.holds_rs_entry:
                uop.station.free(uop)
            if uop.is_load:
                self.lsu.release(uop)
                self.stats.loads += 1
            elif uop.is_store:
                self.lsu.store_committed(uop, cycle)
                self.stats.stores += 1
            elif uop.is_branch:
                self.stats.branches += 1
            self._window_head += 1
            committed += 1
        # Compact the window list occasionally.
        if self._window_head > 256:
            del self.window[: self._window_head]
            self._window_head = 0
        return committed

    def _store_data_ready(self, uop: Uop, cycle: int) -> bool:
        entry = self.lsu._by_uop.get(uop.seq)
        if entry is None:
            return True
        producer = getattr(entry, "data_producer", None)
        if producer is None or producer.state == UopState.COMMITTED:
            return True
        if producer.state == UopState.DONE and producer.result_ready <= cycle:
            return True
        return False

    # ------------------------------------------------------------------
    # Phase 3: load resolution (after LSU issue).
    # ------------------------------------------------------------------

    def _apply_load_resolution(self, resolution: LoadResolution, cycle: int) -> None:
        uop = resolution.uop
        if uop.state != UopState.INFLIGHT:
            return  # cancelled between address generation and issue
        ready = resolution.ready_cycle
        if not self.params.data_forwarding:
            ready += self.params.no_forwarding_penalty
        uop.result_ready = ready
        uop.done_cycle = ready
        uop.mem_level = resolution.level
        self._load_levels[resolution.level] = self._load_levels.get(resolution.level, 0) + 1
        if not resolution.prediction_held:
            self._cancel_waiters(uop, ready)
        uop.confirmed = True
        self._confirm(uop, becoming_done=False)
        self._schedule_done(uop, ready)
        self._wake(ready)

    # ------------------------------------------------------------------
    # Confirmation / cancellation.
    # ------------------------------------------------------------------

    def _confirm(self, uop: Uop, becoming_done: bool = True) -> None:
        """Producer ``uop``'s timing is now final; release its waiters."""
        uop.confirmed = True
        waiters = uop.waiters
        uop.waiters = []
        for waiter, epoch in waiters:
            if waiter.epoch != epoch or waiter.state != UopState.INFLIGHT:
                continue
            waiter.unconfirmed -= 1
            if waiter.unconfirmed <= 0:
                if waiter.holds_rs_entry:
                    waiter.station.free(waiter)
                if not waiter.is_load and not waiter.confirmed:
                    self._confirm(waiter)

    def _cancel_waiters(self, uop: Uop, producer_ready: int) -> None:
        waiters = uop.waiters
        uop.waiters = []
        exec_offset = self.params.dispatch_to_exec
        earliest = max(producer_ready - exec_offset, 0)
        for waiter, epoch in waiters:
            if waiter.epoch != epoch or waiter.state != UopState.INFLIGHT:
                continue
            self._cancel(waiter, earliest)

    def _cancel(self, uop: Uop, earliest: int) -> None:
        self.stats.replays += 1
        uop.replays += 1
        if self.tracer is not None:
            self.tracer.emit(self.cycle, "cancel", uop.seq, uop.replays)
        uop.epoch += 1
        uop.state = UopState.WAITING
        uop.result_ready = FAR_FUTURE
        uop.done_cycle = FAR_FUTURE
        uop.confirmed = False
        uop.unconfirmed = 0
        uop.earliest_dispatch = earliest
        if not uop.holds_rs_entry:
            # The entry was released on a confirmation that later proved
            # wrong — impossible by construction, but re-insert defensively.
            uop.station.insert(uop)
        if uop.is_load:
            uop.mem_level = None  # the re-issued access may hit elsewhere
            self.lsu.load_cancelled(uop)
        self._cancel_waiters(uop, earliest)
        self._wake(earliest)

    # ------------------------------------------------------------------
    # Phase 4: dispatch.
    # ------------------------------------------------------------------

    def _dispatch(self, cycle: int) -> bool:
        speculative = self.params.speculative_dispatch
        exec_offset = self.params.dispatch_to_exec
        activity = False
        wake = None
        for station in self._all_stations:
            selected = station.select(cycle, exec_offset, speculative)
            for slot, uop in enumerate(selected):
                if (
                    uop.op == OpClass.SPECIAL
                    and self.params.special_serialize
                    and not self._is_oldest(uop)
                ):
                    continue
                self._do_dispatch(uop, cycle, station, slot)
                activity = True
            ne = station.next_eligible
            if ne is not None and ne > cycle and (wake is None or ne < wake):
                wake = ne
        self._station_wake = wake
        return activity

    def _is_oldest(self, uop: Uop) -> bool:
        return (
            self._window_head < len(self.window)
            and self.window[self._window_head] is uop
        )

    def _do_dispatch(
        self, uop: Uop, cycle: int, station: ReservationStation, slot: int
    ) -> None:
        params = self.params
        uop.state = UopState.INFLIGHT
        uop.dispatch_cycle = cycle
        station.dispatches += 1
        self.stats.dispatches += 1
        if self.tracer is not None:
            self.tracer.emit(cycle, "dispatch", uop.seq, station.name)
        exec_start = cycle + params.dispatch_to_exec

        # Register on unconfirmed producers for cancel/confirm tracking.
        unconfirmed = 0
        for producer in uop.producers:
            if producer.state == UopState.INFLIGHT and not producer.confirmed:
                producer.waiters.append((uop, uop.epoch))
                unconfirmed += 1
        uop.unconfirmed = unconfirmed
        uop.speculative = unconfirmed > 0

        op = uop.op
        if uop.is_load:
            addr_ready = exec_start + 1  # EAG latency
            predicted = addr_ready + self.hierarchy.l1d.geometry.hit_latency
            uop.result_ready = predicted  # speculative prediction (§3.1)
            uop.confirmed = False
            self.lsu.address_generated(uop, addr_ready, predicted)
            if unconfirmed == 0 and uop.holds_rs_entry:
                station.free(uop)
            self._wake(addr_ready)
            return
        if uop.is_store:
            addr_ready = exec_start + 1
            self.lsu.address_generated(uop, addr_ready, 0)
            uop.done_cycle = addr_ready
            uop.confirmed = unconfirmed == 0
            if uop.confirmed and uop.holds_rs_entry:
                station.free(uop)
            self._schedule_done(uop, addr_ready)
            return

        latency = params.latency_of(op)
        done = exec_start + latency
        result_ready = done
        if not params.data_forwarding:
            result_ready += params.no_forwarding_penalty
        uop.result_ready = result_ready
        uop.done_cycle = done
        uop.confirmed = unconfirmed == 0
        if uop.confirmed and uop.holds_rs_entry:
            station.free(uop)
        if op in (OpClass.INT_DIV, OpClass.FP_DIV):
            station.unit_busy[slot % station.dispatch_width] = done
        self._schedule_done(uop, done)

    # ------------------------------------------------------------------
    # Phase 5: decode.
    # ------------------------------------------------------------------

    def _decode(self, cycle: int) -> bool:
        decoded = 0
        while decoded < self.params.issue_width:
            fetched = self._peek_fetch(cycle)
            if fetched is None:
                break
            if not self._can_decode(fetched):
                break
            self._pop_fetch()
            self._make_uop(fetched, cycle)
            decoded += 1
        return decoded > 0

    def _peek_fetch(self, cycle: int) -> Optional[FetchedInstruction]:
        buffer = self.fetch._buffer
        if buffer and buffer[0].avail_cycle <= cycle:
            return buffer[0]
        return None

    def _pop_fetch(self) -> FetchedInstruction:
        return self.fetch._buffer.popleft()

    def _can_decode(self, fetched: FetchedInstruction) -> bool:
        record = fetched.record
        if self._window_size() >= self.params.window_size:
            self._decode_stalls[cat.DECODE_WINDOW] += 1
            return False
        kind = self.rename.dest_kind(record.dest)
        if not self.rename.can_allocate(kind):
            self._decode_stalls[cat.DECODE_RENAME_INT if kind == "int" else cat.DECODE_RENAME_FP] += 1
            return False
        op = record.op
        if uses_rse(op):
            if self.rse.station_for_insert() is None:
                self._decode_stalls[cat.DECODE_RS] += 1
                return False
        elif uses_rsf(op):
            if self.rsf.station_for_insert() is None:
                self._decode_stalls[cat.DECODE_RS] += 1
                return False
        elif uses_rsa(op):
            if not self.rsa.has_space():
                self._decode_stalls[cat.DECODE_RS] += 1
                return False
            if op == OpClass.LOAD and not self.lsu.can_allocate_load():
                self._decode_stalls[cat.DECODE_LQ] += 1
                return False
            if op == OpClass.STORE and not self.lsu.can_allocate_store():
                self._decode_stalls[cat.DECODE_SQ] += 1
                return False
        elif uses_rsbr(op):
            if not self.rsbr.has_space():
                self._decode_stalls[cat.DECODE_RS] += 1
                return False
        return True

    def _make_uop(self, fetched: FetchedInstruction, cycle: int) -> None:
        record = fetched.record
        uop = Uop(self._seq, record, cycle)
        self._seq += 1
        uop.mispredicted = fetched.mispredicted

        # Producer edges.  For stores the final source is the data operand,
        # which gates the queue write, not the address generation.
        srcs = record.srcs
        data_producer: Optional[Uop] = None
        if uop.is_store and srcs:
            data_producer = self.rename.producer_of(srcs[-1])
            srcs = srcs[:-1]
        producers = []
        for src in srcs:
            producer = self.rename.producer_of(src)
            if producer is not None and producer not in producers:
                producers.append(producer)
        uop.producers = tuple(producers)

        self.rename.allocate(uop)

        op = record.op
        if uses_rse(op):
            station = self.rse.station_for_insert()
        elif uses_rsf(op):
            station = self.rsf.station_for_insert()
        elif uses_rsa(op):
            station = self.rsa
        else:
            station = self.rsbr
        if station is None:  # pragma: no cover - guarded by _can_decode
            raise SimulationError("decode without station space")
        station.insert(uop)

        if uop.is_load or uop.is_store:
            self.lsu.allocate(uop, data_producer)

        self.window.append(uop)
        if self.tracer is not None:
            self.tracer.emit(cycle, "decode", uop.seq, record.pc, record.op.name)

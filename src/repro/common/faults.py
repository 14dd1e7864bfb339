"""Deterministic fault injection for the experiment pipeline.

Campaign-scale simulation is only trustworthy if every failure class —
a worker that dies, a worker that hangs, a cache entry scribbled on
mid-write, a trace file truncated by a full disk — either *recovers* or
*fails loudly* with a typed error.  This module makes those failures
reproducible on demand so the test suite (and the CI smoke job) can
prove it.

Faults are described by a compact spec string, activated through the
``REPRO_FAULTS`` environment variable so that the worker processes of
:class:`~repro.service.service.CampaignService` (which also serves every
:class:`~repro.analysis.runner.ParallelRunner`) inherit them::

    REPRO_FAULTS="worker-hang,times=1,hang=30;cache-corrupt,times=1"

Grammar: faults are separated by ``;``; within one fault the first
token is the kind, the rest are ``key=value`` parameters.

Kinds and their trigger sites:

======================  ===============================================
``worker-crash``        worker entry point calls ``os._exit`` (SIGKILL-like)
``worker-hang``         worker entry point sleeps ``hang`` seconds
``worker-raise``        worker entry point raises :class:`InjectedFault`
``cache-corrupt``       result-cache store scribbles on the JSON envelope
``trace-truncate``      trace writer truncates the file after writing
``trace-bitflip``       trace writer flips one byte after writing
``lease-expiry``        service treats a held job lease as already expired
``heartbeat-stall``     service suppresses a lease renewal (worker "lost")
``kill-mid-write``      result store dies between temp write and rename
``duplicate-delivery``  job queue hands a running job to a second worker
``store-corrupt``       result store damages the *final* file post-rename
======================  ===============================================

The five service kinds exercise the distributed failure modes of
:mod:`repro.service`: a lost worker whose lease lapses, the same job
executing twice, and a result store hit by a crash or bitrot.  The
store-side kinds (``kill-mid-write``, ``store-corrupt``) honour
``times`` against the *retry attempt* when the caller wraps the write
in :func:`attempt_scope`, so injected store damage spares retries the
same way worker faults do — the property that lets chaos campaigns
converge to bit-identical results.

Parameters (all optional):

- ``times`` — fire at most this many times *per attempt index* for
  worker faults (a run retried with ``attempt >= times`` is spared,
  which is what lets retry loops converge deterministically), and at
  most this many times per process for file/cache faults.
- ``match`` — only fire at sites whose label contains this substring.
- ``hang`` — sleep duration in seconds for ``worker-hang``
  (default 30; keep small in tests so an escaped hang cannot wedge
  a suite).
- ``p`` — firing probability in [0, 1] (default 1.0), drawn from a
  :class:`~repro.common.rng.DeterministicRng` forked per site label so
  two processes make identical decisions.
- ``seed`` — base seed for the probability draws (default 2003).

Everything is deterministic: the same spec, labels, and attempt numbers
fire the same faults in every process on every run.
"""

from __future__ import annotations

import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigError, InjectedFault
from repro.common.rng import DeterministicRng

#: Environment variable carrying the active fault spec into workers.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code used by injected worker crashes (distinctive in waitpid logs).
CRASH_EXIT_CODE = 83

_KINDS = (
    "worker-crash",
    "worker-hang",
    "worker-raise",
    "cache-corrupt",
    "trace-truncate",
    "trace-bitflip",
    "lease-expiry",
    "heartbeat-stall",
    "kill-mid-write",
    "duplicate-delivery",
    "store-corrupt",
)

#: Retry-attempt context for store-side fault sites (see attempt_scope).
_attempt_context: Optional[int] = None


@contextmanager
def attempt_scope(attempt: int):
    """Tag store-side fault sites with the current retry attempt.

    ``kill-mid-write`` and ``store-corrupt`` fire at sites that have no
    natural attempt number (the result store does not know it is being
    retried).  Wrapping the execute-and-store path in
    ``with faults.attempt_scope(attempt):`` lets those sites apply the
    same ``attempt >= times`` sparing rule as worker faults, so a spec
    like ``kill-mid-write,times=1`` kills the first attempt and spares
    the retry in *any* process — deterministic convergence.
    """
    global _attempt_context
    previous = _attempt_context
    _attempt_context = attempt
    try:
        yield
    finally:
        _attempt_context = previous


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: kind, trigger bounds, and parameters."""

    kind: str
    times: int = 1
    match: str = ""
    hang: float = 30.0
    probability: float = 1.0
    seed: int = 2003

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from: {', '.join(_KINDS)}"
            )
        if self.times < 1:
            raise ConfigError(f"{self.kind}: times must be >= 1")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"{self.kind}: p must be in [0, 1]")
        if self.hang <= 0:
            raise ConfigError(f"{self.kind}: hang must be positive")


def parse_spec(text: str) -> List[FaultSpec]:
    """Parse a ``REPRO_FAULTS`` spec string into :class:`FaultSpec` list."""
    specs: List[FaultSpec] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        tokens = [token.strip() for token in clause.split(",")]
        kind, params = tokens[0], {}
        for token in tokens[1:]:
            if "=" not in token:
                raise ConfigError(
                    f"malformed fault parameter {token!r} in {clause!r}"
                )
            name, value = token.split("=", 1)
            params[name.strip()] = value.strip()
        try:
            specs.append(
                FaultSpec(
                    kind=kind,
                    times=int(params.pop("times", 1)),
                    match=params.pop("match", ""),
                    hang=float(params.pop("hang", 30.0)),
                    probability=float(params.pop("p", 1.0)),
                    seed=int(params.pop("seed", 2003)),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"malformed fault clause {clause!r}: {exc}") from exc
        if params:
            raise ConfigError(
                f"unknown fault parameters {sorted(params)} in {clause!r}"
            )
    return specs


class FaultInjector:
    """Evaluates configured faults at instrumented sites.

    One injector lives per process (module global, lazily built from
    ``REPRO_FAULTS``).  Worker processes build their own from the
    inherited environment, so no state needs to cross the pickle
    boundary.
    """

    def __init__(self, specs: List[FaultSpec]) -> None:
        self.specs = specs
        #: kind -> number of times it fired in this process.
        self.fired: Dict[str, int] = {}
        #: per-(kind, spec-index) firing counters for ``times`` limits.
        self._counts: Dict[int, int] = {}

    @classmethod
    def from_spec(cls, text: str) -> "FaultInjector":
        return cls(parse_spec(text))

    def _select(
        self, kind: str, label: str, attempt: Optional[int]
    ) -> Optional[FaultSpec]:
        for index, spec in enumerate(self.specs):
            if spec.kind != kind:
                continue
            if spec.match and spec.match not in label:
                continue
            if attempt is not None:
                # Worker faults: spare retries past the budget so retry
                # loops converge (attempt numbering is per run).
                if attempt >= spec.times:
                    continue
            elif self._counts.get(index, 0) >= spec.times:
                continue
            if spec.probability < 1.0:
                # Stable across processes (unlike builtin hash, which is
                # salted): the same site makes the same decision in the
                # parent and in every worker.
                site = f"{kind}|{label}|{attempt}".encode("utf-8")
                draw = DeterministicRng(spec.seed).fork(zlib.crc32(site))
                if not draw.chance(spec.probability):
                    continue
            self._counts[index] = self._counts.get(index, 0) + 1
            self.fired[kind] = self.fired.get(kind, 0) + 1
            return spec
        return None

    # -- sites -----------------------------------------------------------

    def worker_fault(self, label: str, attempt: int) -> None:
        """Called at worker entry; may crash, hang, or raise."""
        spec = self._select("worker-crash", label, attempt)
        if spec is not None:
            # Bypass Python teardown entirely — indistinguishable from a
            # SIGKILL'd worker as far as the parent pool can tell.
            os._exit(CRASH_EXIT_CODE)
        spec = self._select("worker-hang", label, attempt)
        if spec is not None:
            time.sleep(spec.hang)
        spec = self._select("worker-raise", label, attempt)
        if spec is not None:
            raise InjectedFault(f"injected worker failure at {label} (attempt {attempt})")

    def corrupt_cache_text(self, text: str, label: str) -> str:
        """Called with the serialized cache envelope before it is written."""
        spec = self._select("cache-corrupt", label, None)
        if spec is None:
            return text
        # Chop the envelope mid-way: models a crash between write and
        # rename racing a non-atomic writer, or a scribbling editor.
        return text[: max(1, len(text) // 2)]

    # -- service sites ---------------------------------------------------

    def lease_expired(self, label: str) -> bool:
        """Service scheduler asks: pretend this held lease lapsed?"""
        return self._select("lease-expiry", label, None) is not None

    def stall_heartbeat(self, label: str) -> bool:
        """Service asks: swallow this lease renewal (worker "lost")?"""
        return self._select("heartbeat-stall", label, None) is not None

    def duplicate_delivery(self, label: str) -> bool:
        """Job queue asks: hand an already-running job out again?"""
        return self._select("duplicate-delivery", label, None) is not None

    def kill_mid_write(self, label: str) -> None:
        """Called between the result store's temp write and its rename."""
        if self._select("kill-mid-write", label, _attempt_context) is not None:
            # Die with the temp file written but the rename not yet done:
            # the atomicity claim says no reader may ever see a torn entry.
            os._exit(CRASH_EXIT_CODE)

    def corrupt_store_file(self, path: os.PathLike) -> None:
        """Called after the result store's rename; may damage the file.

        Unlike ``cache-corrupt`` (which models a crashed *non-atomic*
        writer by chopping the byte stream before it hits disk), this
        damages the final, successfully renamed file — modelling bitrot
        or a scribbling co-tenant.  Readers must detect it and fall back
        to recompute or serve-stale.
        """
        label = os.fspath(path)
        if self._select("store-corrupt", label, _attempt_context) is None:
            return
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))

    def corrupt_trace_file(self, path: os.PathLike) -> None:
        """Called after a trace file is fully written; may damage it."""
        label = os.fspath(path)
        spec = self._select("trace-truncate", label, None)
        if spec is not None:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(8, size // 2))
            return
        spec = self._select("trace-bitflip", label, None)
        if spec is not None:
            size = os.path.getsize(path)
            rng = DeterministicRng(spec.seed).fork(len(label))
            # Flip a bit in the record region (past the 16-byte header
            # area) so framing, not the magic check, must catch it.
            offset = rng.randint(min(16, size - 1), size - 1)
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes((byte[0] ^ 0x40,)))


# -- process-global injector ------------------------------------------------

_injector: Optional[FaultInjector] = None
_loaded_from_env = False


def install(injector: Optional[FaultInjector]) -> None:
    """Set (or clear) this process's injector without touching the env."""
    global _injector, _loaded_from_env
    _injector = injector
    _loaded_from_env = True


def install_spec(text: Optional[str]) -> Optional[FaultInjector]:
    """Install a spec in this process *and* export it to child processes."""
    if not text:
        os.environ.pop(FAULTS_ENV, None)
        install(None)
        return None
    injector = FaultInjector.from_spec(text)
    os.environ[FAULTS_ENV] = text
    install(injector)
    return injector


def active() -> Optional[FaultInjector]:
    """This process's injector, built lazily from ``REPRO_FAULTS``."""
    global _injector, _loaded_from_env
    if not _loaded_from_env:
        _loaded_from_env = True
        text = os.environ.get(FAULTS_ENV)
        if text:
            _injector = FaultInjector.from_spec(text)
    return _injector


def reset() -> None:
    """Forget the cached injector (tests; re-reads the env next time)."""
    global _injector, _loaded_from_env
    _injector = None
    _loaded_from_env = False


# -- convenience hooks (no-ops when nothing is installed) -------------------


def worker_fault(label: str, attempt: int) -> None:
    injector = active()
    if injector is not None:
        injector.worker_fault(label, attempt)


def corrupt_cache_text(text: str, label: str) -> str:
    injector = active()
    if injector is None:
        return text
    return injector.corrupt_cache_text(text, label)


def corrupt_trace_file(path: os.PathLike) -> None:
    injector = active()
    if injector is not None:
        injector.corrupt_trace_file(path)


def lease_expired(label: str) -> bool:
    injector = active()
    return injector is not None and injector.lease_expired(label)


def stall_heartbeat(label: str) -> bool:
    injector = active()
    return injector is not None and injector.stall_heartbeat(label)


def duplicate_delivery(label: str) -> bool:
    injector = active()
    return injector is not None and injector.duplicate_delivery(label)


def kill_mid_write(label: str) -> None:
    injector = active()
    if injector is not None:
        injector.kill_mid_write(label)


def corrupt_store_file(path: os.PathLike) -> None:
    injector = active()
    if injector is not None:
        injector.corrupt_store_file(path)

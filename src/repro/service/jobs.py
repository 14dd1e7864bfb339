"""Job specs: the JSON contract between submitters, journal, and workers.

A campaign-service job describes one ``(configuration, workload[, cpus])``
simulation point with nothing but JSON values, so it can be appended to
the durable journal by one process (``repro submit`` or a
:class:`~repro.analysis.runner.ParallelRunner`), replayed by another
(``repro serve`` after a crash), and executed by a third (a pool
worker) — all agreeing on the same identity:

- the spec carries the *full content* of the configuration and the
  workload (every parameter, nested dataclasses, enums, tuples, the
  sample seed and any :class:`~repro.trace.sampling.SamplingPlan`),
  encoded with :func:`repro.common.hashing.canonical` and rebuilt by
  :func:`decode`, so any configuration a sweep derives travels as a job,
  not just the registry entries;
- the rebuilt objects hash identically (``content_hash()`` and
  ``cache_key()`` survive the round trip), so :func:`spec_key` is
  exactly the :class:`~repro.analysis.cache.ResultCache` key of the run:
  "the service finished this job" and "any runner gets a cache hit for
  it" are the same statement, and duplicate submissions of the same
  content single-flight by construction.
"""

from __future__ import annotations

import enum
import functools
import typing
from dataclasses import fields, is_dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.cache import ResultCache
from repro.analysis.runner import point_label, result_meta, simulate
from repro.analysis.workloads import (
    DEFAULT_SEED,
    DEFAULT_TIMED,
    DEFAULT_WARM,
    Workload,
    workload_by_name,
)
from repro.common.errors import ConfigError, ServiceError
from repro.common.hashing import canonical
from repro.model.config import MachineConfig, named_configs

#: Spec schema version, embedded in every journal record.
SPEC_FORMAT = 2


def _content(value) -> dict:
    """A dataclass's public fields in canonical (JSON) form."""
    return {
        f.name: canonical(getattr(value, f.name))
        for f in fields(value)
        if not f.name.startswith("_")
    }


@functools.lru_cache(maxsize=None)
def _hints(cls) -> Dict[str, object]:
    return typing.get_type_hints(cls)


def _decode_key(hint, text: str):
    """A dict key back from ``canonical``'s ``str(key)``."""
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        # ``str()`` of an enum is ``Cls.NAME``, or the bare value of an
        # ``IntEnum`` on Python >= 3.11.
        name = text.rsplit(".", 1)[-1]
        return hint[name] if name in hint.__members__ else hint(int(text))
    return text


def decode(hint, value):
    """Rebuild a value of type ``hint`` from its canonical form.

    The inverse of :func:`~repro.common.hashing.canonical`, driven by
    type hints: dataclasses from field dicts, enums from names, tuples
    from lists, ``Dict[K, V]`` keys from strings, ``Optional[X]`` from
    ``None`` or an ``X``.  Scalars pass through unchanged, so the
    rebuilt object canonicalises — and therefore hashes — identically.
    """
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        if value is None:
            return None
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return decode(inner, value)
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode(args[0], item) for item in value)
        return tuple(decode(arg, item) for arg, item in zip(args, value))
    if origin is dict:
        key_hint, value_hint = typing.get_args(hint)
        return {
            _decode_key(key_hint, key): decode(value_hint, item)
            for key, item in value.items()
        }
    if isinstance(hint, type) and is_dataclass(hint):
        hints = _hints(hint)
        return hint(**{name: decode(hints[name], item) for name, item in value.items()})
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint[value]
    return value


def job_spec(
    config: MachineConfig, workload: Workload, cpus: Optional[int] = None
) -> dict:
    """The job spec of one simulation point (SMP when ``cpus`` is set)."""
    spec = {
        "v": SPEC_FORMAT,
        "kind": "smp" if cpus else "up",
        "config": _content(config),
        "workload": _content(workload),
    }
    if cpus:
        spec["cpus"] = int(cpus)
    return spec


def make_spec(
    workload: str,
    config: str = "base",
    warm: int = DEFAULT_WARM,
    timed: int = DEFAULT_TIMED,
    seed: int = DEFAULT_SEED,
    cpus: Optional[int] = None,
) -> dict:
    """Build a job spec from registry names.  Raises :class:`ConfigError`."""
    if config not in named_configs():
        raise ConfigError(
            f"unknown config {config!r}; choose from: "
            f"{', '.join(named_configs())}"
        )
    if cpus is not None and cpus < 1:
        raise ConfigError(f"cpus must be >= 1, got {cpus}")
    return job_spec(
        named_configs()[config](),
        workload_by_name(workload, warm=int(warm), timed=int(timed), seed=int(seed)),
        cpus,
    )


def spec_config(spec: dict) -> MachineConfig:
    """The machine configuration a spec carries (built fresh)."""
    return decode(MachineConfig, spec["config"])


def spec_workload(spec: dict) -> Workload:
    """The workload a spec carries (traces regenerated from the seed)."""
    return decode(Workload, spec["workload"])


def spec_label(spec: dict) -> str:
    """The job's :func:`~repro.analysis.runner.point_label`."""
    return point_label(
        spec["workload"]["name"], spec["config"]["name"], spec.get("cpus")
    )


def spec_key(spec: dict, cache: ResultCache) -> str:
    """The job's identity: exactly the result-cache key of the run."""
    config = spec_config(spec)
    workload = spec_workload(spec)
    if spec.get("kind") == "smp":
        return cache.key(
            "smp", config.content_hash(), workload.cache_key(), int(spec["cpus"])
        )
    return cache.key("up", config.content_hash(), workload.cache_key())


#: Per-process workload memo: pool workers live across jobs, so reusing
#: the Workload object lets its generated trace be shared by every
#: configuration simulated on the same worker.
_workloads: Dict[str, Workload] = {}
_WORKLOAD_LIMIT = 8


def _memoised_workload(workload: Workload) -> Workload:
    key = workload.cache_key()
    cached = _workloads.get(key)
    if cached is not None:
        return cached
    if len(_workloads) >= _WORKLOAD_LIMIT:
        _workloads.pop(next(iter(_workloads)))
    _workloads[key] = workload
    return workload


def execute_spec(spec: dict) -> Tuple[dict, dict]:
    """Run the simulation a spec describes; returns ``(payload, meta)``.

    The payload/meta shapes match what the runner's in-process path
    stores, so every cache entry renders the same in ``repro analyze``
    however it was produced.
    """
    kind = spec.get("kind", "up")
    if kind not in ("up", "smp"):
        raise ServiceError(f"job spec has unknown kind {kind!r}")
    cpus = int(spec["cpus"]) if kind == "smp" else None
    workload = _memoised_workload(spec_workload(spec))
    result = simulate(spec_config(spec), workload, cpus)
    return result.to_dict(), result_meta(result, workload, cpus)

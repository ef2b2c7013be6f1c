"""Content-addressed simulation jobs.

A Figure 2 sweep re-runs the exact same deterministic simulations over
and over: the simulator is seed-free, the workloads are synthetic, and a
cell's *architectural* outcome depends only on what was simulated -- the
program bytes, the model configuration, the run window and (for
clusters) the node topology.  :class:`JobSpec` freezes exactly those
inputs and derives a stable SHA-256 :meth:`~JobSpec.content_hash` from
their canonical JSON form, giving every simulation job a content
address:

* the hash is independent of ``PYTHONHASHSEED``, process, host and
  field construction order (canonical JSON, sorted keys, no ``hash()``
  or ``pickle`` involvement), and
* any change to any input -- a single program byte, one ModelConfig
  field, a different window length -- changes it, and so does any change
  to the simulator's own sources (:func:`simulator_fingerprint`).

:class:`ResultCache` is the on-disk companion: a directory of pickled
:class:`~repro.core.experiment.VariantResult` values keyed by content
hash.  ``run_matrix_sweep`` consults it before booting anything, so a
repeated sweep over the same JobSpecs performs zero re-simulation.

Wall-clock-derived observables (CPS, elapsed seconds) are part of the
cached result: a cache hit replays the *measurement* made when the job
first ran, which is what makes repeated sweep artifacts byte-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
import pickle
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..isa.assembler import Program
from ..kernel.simtime import SimTime
from ..platform import VariantName, variant_config
from .experiment import ExperimentOptions, VariantResult


# ---------------------------------------------------------------------- #
# canonicalization
# ---------------------------------------------------------------------- #
def _canonical(value):
    """Reduce a value to canonical JSON-serialisable plain data.

    Enums collapse to their values, :class:`SimTime` to integer
    picoseconds, bytes to hex text, dataclasses to sorted field
    mappings.  The reduction is total over everything a
    :class:`JobSpec` can contain; anything else is a programming error
    and raises ``TypeError``.
    """
    if isinstance(value, Enum):
        return _canonical(value.value)
    if isinstance(value, SimTime):
        return value.picoseconds
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"JobSpec cannot canonicalize {type(value).__name__!r}")


def canonical_json(value) -> str:
    """The canonical JSON text of ``value`` (sorted keys, no whitespace)."""
    return json.dumps(_canonical(value), sort_keys=True,
                      separators=(",", ":"))


def _program_blob(program: Program) -> dict:
    """A program's identity: its segment bytes and entry point."""
    return {
        "segments": [[base, bytes(data)]
                     for base, data in sorted(program.segments,
                                              key=lambda seg: seg[0])],
        "entry_point": program.entry_point,
    }


@functools.lru_cache(maxsize=None)
def simulator_fingerprint() -> str:
    """SHA-256 over the simulator's sources (sorted ``repro/**/*.py``).

    Folded into every content hash so a result cached by one version of
    the simulator never replays for another.  Computed once per process.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# the job spec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class JobSpec:
    """The complete identity of one deterministic simulation job.

    ``program`` is the :func:`_program_blob` mapping, ``config`` the
    canonicalized ModelConfig fields (plus the variant selector),
    ``window`` the run-window parameters, and ``nodes``/
    ``link_latency_cycles`` the topology (1 node, no link, for the
    single-board platform).  Construct through :meth:`for_cell` or
    :meth:`build`; the hash never depends on how the fields were
    ordered at the construction site.
    """

    program: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    window: dict = field(default_factory=dict)
    nodes: int = 1
    link_latency_cycles: Optional[int] = None

    @classmethod
    def build(cls, program: Program, config: dict, window: dict,
              nodes: int = 1,
              link_latency_cycles: Optional[int] = None) -> "JobSpec":
        """A spec from an assembled program and plain config/window data."""
        return cls(program=_program_blob(program), config=dict(config),
                   window=dict(window), nodes=nodes,
                   link_latency_cycles=link_latency_cycles)

    @classmethod
    def for_cell(cls, cell, options: ExperimentOptions,
                 program: Optional[Program] = None) -> "JobSpec":
        """The spec of one sweep cell under ``options``.

        ``cell`` carries ``variant``/``engine``/``bus_level``/
        ``cpu_level``.  ``program`` defaults to the workload the sweep
        actually runs for that cell (the scaled boot program, or the
        RTL baseline's memory-exercise program).
        """
        from ..software import build_boot_program, memory_exercise_program

        window = {
            "instructions_per_phase": options.instructions_per_phase,
            "phases": options.phases,
            "rtl_cycles_per_phase": options.rtl_cycles_per_phase,
            "chunk_cycles": options.chunk_cycles,
            "max_cycles_per_phase": options.max_cycles_per_phase,
            "warmup_instructions": options.warmup_instructions,
        }
        if cell.variant is VariantName.RTL_HDL:
            if program is None:
                program = memory_exercise_program(region_bytes=64)
            config = {"variant": cell.variant.value, "engine": cell.engine}
        else:
            if program is None:
                program = build_boot_program(options.boot_params())
            model = variant_config(cell.variant, engine=cell.engine,
                                   bus_level=cell.bus_level,
                                   cpu_level=cell.cpu_level)
            config = {"variant": cell.variant.value}
            config.update(_canonical(model))
        return cls.build(program, config, window)

    @classmethod
    def for_cluster(cls, nodes: int, engine: str, bus_level: str,
                    cpu_level: str,
                    variant: VariantName = VariantName.NATIVE_TYPES,
                    options: Optional[ExperimentOptions] = None,
                    ping_count: int = 3, payload=None,
                    max_cycles: int = 200_000,
                    link_latency_cycles: int = 8) -> "JobSpec":
        """The spec of one N-node ping/echo cluster cell.

        Freezes everything ``measure_cluster`` feeds the kernel: every
        node's program bytes (ping, echo, idle fillers), the canonical
        per-node model config, the run window (``max_cycles`` plus the
        chunking cadence) and the topology.  The per-frame ``payload``
        is already part of the ping/echo program bytes, so it needs no
        separate field.
        """
        from ..platform import cluster_config
        from ..software import arithmetic_program
        from ..software.netboot import ping_echo_programs

        options = options or ExperimentOptions()
        config = cluster_config(nodes, variant=variant, engine=engine,
                                bus_level=bus_level, cpu_level=cpu_level,
                                link_latency_cycles=link_latency_cycles)
        if payload is None:
            ping, echo = ping_echo_programs(count=ping_count)
        else:
            ping, echo = ping_echo_programs(payload=tuple(payload),
                                            count=ping_count)
        programs = [ping, echo]
        programs += [arithmetic_program() for _ in range(nodes - 2)]
        spec_config = {"variant": variant.value}
        spec_config.update(_canonical(config))
        window = {
            "ping_count": ping_count,
            "max_cycles": max_cycles,
            "chunk_cycles": options.chunk_cycles,
        }
        return cls(program={"cluster": [_program_blob(program)
                                        for program in programs]},
                   config=spec_config, window=window, nodes=nodes,
                   link_latency_cycles=config.link_latency_cycles)

    def content_hash(self) -> str:
        """The stable SHA-256 content address of this job (hex)."""
        return hashlib.sha256((simulator_fingerprint()
                               + canonical_json(self)).encode()).hexdigest()


# ---------------------------------------------------------------------- #
# the on-disk result cache
# ---------------------------------------------------------------------- #
class ResultCache:
    """Directory of pickled :class:`VariantResult`, keyed by content hash.

    Invalidation is purely content-addressed: nothing is ever deleted
    here, but any change to a job's inputs changes its hash and misses.
    Delete the directory (or individual ``<hash>.pickle`` files) to
    reclaim space or force re-measurement.
    """

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, spec: JobSpec) -> pathlib.Path:
        return self.directory / f"{spec.content_hash()}.pickle"

    def get(self, spec: JobSpec) -> Optional[VariantResult]:
        """The cached result of ``spec``, or None (counted as hit/miss)."""
        path = self.path_for(spec)
        if path.exists():
            try:
                result = pickle.loads(path.read_bytes())
            except Exception:  # corrupt entry: treat as a miss, re-measure
                self.misses += 1
                return None
            self.hits += 1
            return result
        self.misses += 1
        return None

    def put(self, spec: JobSpec, result: VariantResult) -> None:
        """Store ``result`` under ``spec``'s hash (atomic rename)."""
        path = self.path_for(spec)
        scratch = path.with_suffix(".tmp")
        scratch.write_bytes(pickle.dumps(result,
                                         protocol=pickle.HIGHEST_PROTOCOL))
        scratch.replace(path)
        self.stores += 1

    def stats(self) -> dict:
        """Hit/miss/store counters as plain data."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores,
                "directory": str(self.directory)}

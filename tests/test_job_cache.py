"""Content-addressed job identity and the on-disk result cache.

The contract (:mod:`repro.core.job`):

* ``JobSpec.content_hash()`` is a pure function of the simulated inputs
  -- stable across interpreter processes and ``PYTHONHASHSEED``,
  insensitive to field construction order, changed by any single input
  change (one program byte, one config field, one window parameter) and
  by any change to the simulator's own sources;
* ``ResultCache`` round-trips :class:`VariantResult` values keyed by
  that hash, and ``run_matrix_sweep(cache_dir=...)`` performs zero
  re-simulation when every cell is already cached.
"""

import subprocess
import sys

import pytest

from repro.core import ExperimentOptions, JobSpec, ResultCache, job
from repro.core.sweep import expand_matrix, run_matrix_sweep
from repro.platform import VariantName
from repro.software import arithmetic_program

OPTIONS = ExperimentOptions(instructions_per_phase=200, phases=1,
                            rtl_cycles_per_phase=200,
                            warmup_instructions=0)

HASH_SNIPPET = """\
import sys
sys.path.insert(0, {src_path!r})
from repro.core import JobSpec
from repro.software import arithmetic_program
spec = JobSpec.build(arithmetic_program(),
                     config={{"variant": "x", "engine": "generic"}},
                     window={{"phases": 2, "instructions": 100}},
                     nodes=2, link_latency_cycles=8)
print(spec.content_hash())
"""


def make_spec(**overrides):
    fields = dict(program=arithmetic_program(),
                  config={"variant": "x", "engine": "generic"},
                  window={"phases": 2, "instructions": 100},
                  nodes=2, link_latency_cycles=8)
    fields.update(overrides)
    return JobSpec.build(**fields)


class TestContentHash:
    def test_stable_across_processes_and_hash_seeds(self, tmp_path):
        import repro
        src_path = str(next(iter(repro.__path__)) + "/..")
        snippet = HASH_SNIPPET.format(src_path=src_path)
        digests = []
        for seed in ("1", "20971"):
            completed = subprocess.run(
                [sys.executable, "-c", snippet], text=True,
                capture_output=True, check=True,
                env={"PYTHONHASHSEED": seed, "PATH": ""})
            digests.append(completed.stdout.strip())
        assert digests[0] == digests[1]
        assert digests[0] == make_spec().content_hash()

    def test_insensitive_to_field_construction_order(self):
        forward = make_spec(
            config={"variant": "x", "engine": "generic"},
            window={"phases": 2, "instructions": 100})
        backward = make_spec(
            config={"engine": "generic", "variant": "x"},
            window={"instructions": 100, "phases": 2})
        assert forward.content_hash() == backward.content_hash()

    def test_equal_specs_hash_equal(self):
        assert make_spec().content_hash() == make_spec().content_hash()

    @pytest.mark.parametrize("overrides", [
        {"config": {"variant": "x", "engine": "clocked"}},
        {"config": {"variant": "y", "engine": "generic"}},
        {"window": {"phases": 3, "instructions": 100}},
        {"window": {"phases": 2, "instructions": 101}},
        {"nodes": 3},
        {"link_latency_cycles": 9},
        {"link_latency_cycles": None},
    ], ids=["engine", "variant", "phases", "instructions", "nodes",
            "latency", "no-latency"])
    def test_any_field_change_changes_hash(self, overrides):
        assert make_spec(**overrides).content_hash() \
            != make_spec().content_hash()

    def test_single_program_byte_change_changes_hash(self):
        program = arithmetic_program()
        base = JobSpec.build(program, config={}, window={})
        (offset, data), *rest = program.segments
        mutated = bytearray(data)
        mutated[0] ^= 0x01
        program.segments[0] = (offset, bytes(mutated))
        assert JobSpec.build(program, config={}, window={}) \
            .content_hash() != base.content_hash()

    def test_cells_hash_distinctly(self):
        cells = expand_matrix(variants=[VariantName.INITIAL,
                                        VariantName.NATIVE_TYPES,
                                        VariantName.RTL_HDL])
        digests = [JobSpec.for_cell(cell, OPTIONS).content_hash()
                   for cell in cells]
        assert len(digests) == len(set(digests))


class TestResultCache:
    def test_get_miss_then_put_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = make_spec()
        assert cache.get(spec) is None
        cache.put(spec, {"payload": 42})
        assert cache.get(spec) == {"payload": 42}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["stores"] == 1

    def test_changed_simulator_fingerprint_misses(self, tmp_path,
                                                  monkeypatch):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, {"payload": 7})
        assert cache.get(spec) == {"payload": 7}
        monkeypatch.setattr(job, "simulator_fingerprint",
                            lambda: "0" * 64)
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, {"payload": 1})
        cache.path_for(spec).write_bytes(b"not a pickle")
        assert cache.get(spec) is None
        assert cache.misses == 1


class TestSweepCaching:
    def test_second_sweep_is_pure_cache_hits(self, tmp_path):
        kwargs = dict(options=OPTIONS,
                      variants=[VariantName.KERNEL_FUNCTION_CAPTURE,
                                VariantName.RTL_HDL],
                      engines=["generic"], bus_levels=["signal"],
                      cpu_levels=["cycle"], jobs=1, cache_dir=tmp_path)
        first = run_matrix_sweep(**kwargs)
        assert first.cache_hits == 0
        assert first.cache_misses == first.cells_total == 2
        assert not first.errors
        second = run_matrix_sweep(**kwargs)
        assert second.cache_hits == second.cells_total == 2
        assert second.cache_misses == 0
        assert second.results == first.results

    def test_uncached_sweep_reports_no_cache_traffic(self):
        report = run_matrix_sweep(options=OPTIONS,
                                  variants=[VariantName.RTL_HDL],
                                  engines=["generic"], jobs=1)
        assert report.cache_hits == 0
        assert report.cache_misses == 0


class TestClusterCaching:
    def test_second_cluster_comparison_is_pure_cache_hits(
            self, tmp_path, monkeypatch):
        from repro.core import Figure2Experiment

        experiment = Figure2Experiment(
            ExperimentOptions(instructions_per_phase=150, phases=2,
                              boot_scale=0.4, chunk_cycles=200))
        kwargs = dict(engines=["generic"], bus_levels=["functional"],
                      cpu_levels=["cycle", "quantum"], ping_count=2,
                      cache_dir=tmp_path)
        first = experiment.run_cluster_comparison(**kwargs)
        assert [result.finished for result in first] == [True, True]

        def _must_not_simulate(self, *args, **kwargs):
            raise AssertionError("cache miss: measure_cluster re-ran")

        monkeypatch.setattr(Figure2Experiment, "measure_cluster",
                            _must_not_simulate)
        second = experiment.run_cluster_comparison(**kwargs)
        # ClusterResult is a plain dataclass: equality (including the
        # recorded wall time) proves the cells were replayed from disk.
        assert second == first

    def test_cluster_cells_share_no_hashes_with_single_node(self, tmp_path):
        spec = JobSpec.for_cluster(2, engine="generic",
                                   bus_level="functional",
                                   cpu_level="cycle", options=OPTIONS,
                                   ping_count=2)
        single = JobSpec.build(arithmetic_program(),
                               config={"variant": "native_types",
                                       "engine": "generic"},
                               window={"phases": 1, "instructions": 200})
        assert spec.content_hash() != single.content_hash()

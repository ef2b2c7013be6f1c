"""Shared helpers for the benchmark suite.

Every benchmark measures *simulation speed* -- how many simulated clock
cycles (or instructions) per second of host time a given model style
achieves -- which is exactly the paper's Figure 2 metric.  Absolute numbers
depend on the host (and on this being a Python kernel rather than C++
SystemC); the quantities compared across benchmarks are the ratios.

The helpers build platforms with a scaled-down boot workload so a full
benchmark run finishes in minutes.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.bus import BUS_SIGNAL
from repro.core import sweep as _sweep
from repro.iss import CPU_CYCLE
from repro.kernel import ENGINE_GENERIC
from repro.platform import VanillaNetPlatform, VariantName, variant_config
from repro.software import BootParams, build_boot_program

#: The repository root, where ``--record-bench`` writes the artifacts.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Machine-readable benchmark results (variant x engine x bus level x cpu
#: level -> CPS + kernel counters), merged across benchmark runs so the
#: performance trajectory of the repository is comparable from PR to PR.
BENCH_FIG2_PATH = REPO_ROOT / "BENCH_fig2.json"

BENCH_FIG2_SCHEMA = _sweep.BENCH_FIG2_SCHEMA


def pytest_addoption(parser):
    parser.addoption(
        "--record-bench", action="store_true", default=False,
        help="write benchmark artifacts (BENCH_fig2.json, figure2_*.txt, "
             "bench_history/<commit>.json) into the repository instead of "
             "a temporary directory")


class BenchArtifacts:
    """The one place a benchmark run writes its artifacts.

    ``root`` is the repository under ``--record-bench`` and otherwise a
    temporary directory seeded with a copy of the committed
    ``BENCH_fig2.json``, so an ordinary test run leaves the tree clean
    while the shape tests still read a complete merged document.  Every
    merge of ``BENCH_fig2.json`` is also snapshotted into the per-commit
    ledger ``bench_history/<commit>.json`` under ``root``, which
    ``scripts/compare_bench_history.py`` reads.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.fig2_path = root / BENCH_FIG2_PATH.name
        self.history_dir = root / "bench_history"
        self.commit = _sweep.current_commit(REPO_ROOT)

    def write_table(self, name: str, text: str) -> None:
        """Write one ``figure2_*.txt`` report table."""
        (self.root / name).write_text(text)

    def record_fig2_results(self, results, errors=()) -> dict:
        """Merge measured variant results into ``BENCH_fig2.json``.

        ``results`` is an iterable of
        :class:`~repro.core.experiment.VariantResult`; ``errors`` an
        iterable of sweep error records (failed/timed-out cells), which
        become explicit ``error`` entries rather than silently missing
        keys.  Returns the full document written.
        """
        return self.record_bench_history(_sweep.record_fig2_results(
            results, self.fig2_path, errors=errors))

    def record_cluster_results(self, results) -> dict:
        """Merge measured cluster cells into ``BENCH_fig2.json``.

        Cluster rows share the document (and the per-commit history
        snapshot) with the single-node Figure 2 entries, so
        ``scripts/compare_bench_history.py --keys cluster`` can gate on
        cluster CPS regressions.  Returns the full document written.
        """
        return self.record_bench_history(_sweep.record_cluster_results(
            results, self.fig2_path))

    def record_bench_history(self, document: dict) -> dict:
        """Snapshot ``document`` into ``bench_history/<commit>.json``."""
        _sweep.record_bench_history(document, self.history_dir,
                                    commit=self.commit)
        return document

    def load_fig2_results(self) -> dict:
        """The current ``BENCH_fig2.json`` (empty skeleton if absent)."""
        return _sweep.load_fig2_results(self.fig2_path)


@pytest.fixture(scope="session")
def bench_artifacts(request, tmp_path_factory) -> BenchArtifacts:
    """Where this session's benchmark artifacts go (see BenchArtifacts).

    The option is looked up with a default because a run started from the
    repository root without naming ``benchmarks/`` loads this conftest
    only after the command line is parsed.
    """
    if request.config.getoption("record_bench", default=False):
        return BenchArtifacts(REPO_ROOT)
    root = tmp_path_factory.mktemp("bench-artifacts")
    if BENCH_FIG2_PATH.exists():
        shutil.copyfile(BENCH_FIG2_PATH, root / BENCH_FIG2_PATH.name)
    return BenchArtifacts(root)


def pytest_collection_modifyitems(items):
    """Mark every test under ``benchmarks/`` with the ``bench`` marker.

    Tier-1 CI deselects these (``-m "not bench"``) so the fast correctness
    suite is never blocked behind a measurement run.  The path guard
    matters: conftest hooks receive the whole session's item list, so a
    root invocation collecting ``tests/`` and ``benchmarks/`` together
    must not mark the correctness tests too.
    """
    benchmarks_dir = pathlib.Path(__file__).resolve().parent
    for item in items:
        if benchmarks_dir in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)

#: Boot workload used by the figure-2 benchmarks (small but representative).
BENCH_BOOT_PARAMS = BootParams(
    bss_bytes=192, kernel_copy_bytes=256, page_clear_bytes=128,
    page_clear_count=1, rootfs_copy_bytes=128, checksum_words=32,
    progress_dots=2, timer_ticks=1, timer_period_cycles=500,
    device_probe_rounds=2)

#: Instruction budget of one measured benchmark round.
INSTRUCTIONS_PER_ROUND = 250

#: Cycle budget of one measured RTL benchmark round.
RTL_CYCLES_PER_ROUND = 400


def build_variant_platform(variant: VariantName,
                           engine: str = ENGINE_GENERIC,
                           bus_level: str = BUS_SIGNAL,
                           cpu_level: str = CPU_CYCLE
                           ) -> VanillaNetPlatform:
    """A platform in the given Figure 2 configuration with the boot loaded."""
    platform = VanillaNetPlatform(variant_config(variant, engine=engine,
                                                 bus_level=bus_level,
                                                 cpu_level=cpu_level))
    platform.load_program(build_boot_program(BENCH_BOOT_PARAMS))
    # Warm up: get past the very first instructions so each measured round
    # samples steady-state boot activity.
    platform.run_instructions(30, chunk_cycles=200)
    return platform


def run_instruction_window(platform: VanillaNetPlatform,
                           budget: int = INSTRUCTIONS_PER_ROUND) -> int:
    """Advance the platform by ``budget`` instructions; return cycles used."""
    return platform.run_instructions(budget, chunk_cycles=200)


def record_speed(benchmark, platform: VanillaNetPlatform,
                 cycles_total: int) -> None:
    """Attach CPS/CPI numbers to the benchmark's extra info."""
    stats = platform.statistics
    mean_seconds = benchmark.stats.stats.mean if benchmark.stats else 0.0
    if mean_seconds > 0 and benchmark.stats.stats.rounds > 0:
        cycles_per_round = cycles_total / benchmark.stats.stats.rounds
        benchmark.extra_info["cps_khz"] = round(
            cycles_per_round / mean_seconds / 1e3, 3)
    benchmark.extra_info["cpi"] = round(
        stats.cycles / max(1, stats.instructions_retired), 2)
    benchmark.extra_info["processes"] = platform.process_count()


@pytest.fixture(scope="session")
def bench_boot_program():
    """The assembled benchmark boot program (shared across benchmarks)."""
    return build_boot_program(BENCH_BOOT_PARAMS)

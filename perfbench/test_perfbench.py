"""The benchmark's own checks: a wrong reference digest is a failed operation."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

RUN_PATH = Path(__file__).resolve().parent / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("corrupt", [False, True],
                         ids=["recorded", "corrupted"])
def test_boot_digest_decides_the_outcome(bench, tmp_path, monkeypatch,
                                         corrupt):
    references = json.loads(bench.REFERENCE_PATH.read_text())
    if corrupt:
        digest = references["boot_quantum"]
        references["boot_quantum"] = digest[::-1]
    reference_path = tmp_path / "reference.json"
    reference_path.write_text(json.dumps(references))
    monkeypatch.setattr(bench, "REFERENCE_PATH", reference_path)

    result = bench.run("boot_quantum", seed=0, seconds=0, trace=False)

    # One warm-up boot plus one measured boot, each checked.
    assert result["attempted"] == 2
    if corrupt:
        assert result["failed"] == 2
        assert result["correct"] is False
        assert result["metrics"] == {}
    else:
        assert result["failed"] == 0
        assert result["correct"] is True
        assert result["metrics"]["sim_kcps"]["value"] > 0


def test_host_times_are_scaled_by_the_probes_around_them(bench):
    reference = bench.REFERENCE_PROBE_S
    seconds = [1.0] * 12
    # The host runs twice as slow from the seventh call on; one probe in
    # the fast stretch was disturbed.
    probes = [reference] * 6 + [2 * reference] * 6
    probes[2] = 10 * reference
    scaled = bench.at_reference_speed(seconds, probes)
    assert scaled[:3] == [1.0] * 3
    assert scaled[-3:] == [0.5] * 3

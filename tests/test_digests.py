"""The benchmark's byte gate, run as a test.

Every workload runs at the default seed at 1 and 2 threads, and each ensemble
workload also at one seed whose recorded verdict is a violation (exit code
1), so the reduction is held at a failing check too.  Every workload also
runs at the first and the last recorded seed, so its draws and its streamed
statistics are held at more than one ensemble.  The workloads and the
recorded exit codes, verdicts and CSV SHA-256 come from ``perfbench/`` as
they are, so a change to any seeded output byte fails here as well as in the
benchmark.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from fpplab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


@pytest.fixture(scope="module")
def bench():
    # run.py imports its sibling spans.py by name
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


WORKLOADS = ("mix3-verify", "three-power-signed", "pool-greedy")
# recorded seeds whose verdict is a violation, one per ensemble workload
FALSE_ALARM_SEEDS = {"mix3-verify": 24, "three-power-signed": 12}
# the first and the last recorded seed, run for every workload
EDGE_SEEDS = (0, 99)


# the default seed at one worker thread keeps the plain workload id; the bytes
# must not depend on the thread count
@pytest.mark.parametrize("workload, seed, threads", [
    pytest.param(workload, SEED, threads, id=workload if threads == 1
                 else f"{workload}-threads{threads}")
    for threads in (1, 2) for workload in WORKLOADS] + [
    pytest.param(workload, seed, 1, id=f"{workload}-seed{seed}")
    for workload, seed in [*FALSE_ALARM_SEEDS.items(),
                           *((workload, seed) for workload in WORKLOADS
                             for seed in EDGE_SEEDS)]])
def test_outputs_match_recorded_digests(tmp_path, capsys, bench, workload, seed, threads):
    wl = bench.WORKLOADS[workload]
    config = dict(wl["config"])
    config["simulation"] = dict(config.get("simulation", {}), seed=seed)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(json.dumps(config))  # JSON is valid YAML
    out_dir = tmp_path / "out"
    code = main(["--config", str(config_path), "--out", str(out_dir),
                 "--threads", str(threads)] + wl["argv"])
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload][str(seed)]
    assert code == recorded["rc"]
    assert bench.parse_verdicts(workload, capsys.readouterr().out) == recorded["verdicts"]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out_dir.iterdir()}
    assert digests == recorded["csv"]

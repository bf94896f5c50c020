"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED [WORKLOAD ...]

Runs each named workload (default: all) once per seed in
FIRST_SEED..LAST_SEED and adds to perfbench/digests.json, per workload and
seed, the CLI exit code, the printed verdicts and the SHA-256 of every CSV
written.  Run it only at a commit whose outputs are the reference; the gate
then holds every later commit to them byte for byte.
"""

import hashlib
import json
import os
import sys

import run


def record(workload, seed):
    entry = {}

    def capture(res, out_dir):
        if res is None or res["error"]:
            sys.exit(f"{workload} seed {seed}: the CLI call did not complete")
        entry["rc"] = res["rc"]
        entry["verdicts"] = run.parse_verdicts(workload, res["stdout"])
        entry["csv"] = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                entry["csv"][name] = hashlib.sha256(fh.read()).hexdigest()
        return [], 0

    run.run_sample(workload, seed, False, capture)
    return entry


def main(first, last, workloads):
    os.makedirs(run.WORK, exist_ok=True)
    entries = {}
    for workload in workloads or sorted(run.WORKLOADS):
        for seed in range(first, last + 1):
            entries[workload, str(seed)] = entry = record(workload, seed)
            print(workload, seed, entry["rc"], entry["verdicts"], flush=True)
    path = os.path.join(run.HERE, "digests.json")
    table = {}
    if os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)
    for (workload, seed), entry in entries.items():
        table.setdefault(workload, {})[seed] = entry
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:])

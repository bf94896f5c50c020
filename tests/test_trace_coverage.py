"""Every layer the benchmark tracer wraps is entered by the benchmarked commands.

``perfbench/run.py`` records a span that never fires as 0, so a refactor that
routes around a traced function or method (say, ``ThreePowerFpp.state_paths``
no longer calling ``self.accumulators``) would silently zero a per-layer
metric.  Tiny runs of the three benchmarked commands under the tracer must
enter every span name of ``spans.LAYERS``, and the ensemble layers must be
entered inside ``martingale_test``: the three-power command also calls
``accumulators`` for its sample CSV, which alone would keep that span alive.
"""

import importlib.util
from pathlib import Path

from fpplab.cli import main  # loads every fpplab module the tracer wraps

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SMALL = "simulation: {n_paths: 64, horizon: 0.25}\n"
COMMANDS = [
    (SMALL + "market: {n_stocks: 1, d_w: 1, d_wperp: 1, sigma: 0.2, mu: 0.04}\n"
     "mixture:\n  atoms: [{gamma: 0.5, weight: 1.0}, {gamma: 2.0, weight: 0.5}]\n"
     "  gamma0: 0.5\n  j: {kind: constant, value: [0.1]}\n", ["verify-fpp"]),
    (SMALL, ["three-power"]),
    (SMALL + "pool: {preset: fig3, horizon: 0.25, rebalance_dt: 0.125}\n",
     ["pool", "compare"]),
]
ENSEMBLE_LAYERS = {"market.normals", "market.brownian_batch",
                   "market.evolve_log_wealth_batch", "mixture.state_paths",
                   "mixture.utility_paths", "mixture.signed_exp_sum",
                   "three_power.accumulators", "three_power.utility_paths"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmarked_commands_enter_every_traced_layer(tmp_path, capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, (config, argv) in enumerate(COMMANDS):
            config_path = tmp_path / f"config{i}.yaml"
            config_path.write_text(config)
            code = main(["--config", str(config_path), "--out", str(tmp_path / f"out{i}"),
                         "--threads", "1"] + argv)
            assert code in (0, 1), argv  # a failed check still runs every layer
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {name for name, *_ in spans.LAYERS}
    summary = spans.summarise(tracer.spans)
    assert sorted(names - set(summary)) == []
    assert all(summary[name]["calls"] >= 1 for name in names)

    def inside_martingale_test(span):
        parent = span[3]
        while parent >= 0:
            if tracer.spans[parent][0] == "verify.martingale_test":
                return True
            parent = tracer.spans[parent][3]
        return False

    assert ENSEMBLE_LAYERS <= names
    entered = {span[0] for span in tracer.spans if inside_martingale_test(span)}
    assert sorted(ENSEMBLE_LAYERS - entered) == []

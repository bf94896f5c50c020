"""Command line front end: exit codes, CSV outputs, reproducibility."""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fpplab.cli import _overrides, _write_report_csv, build_parser, main
from fpplab.config import load_config
from fpplab.market import TimeGrid, brownian_batch
from fpplab.verify import SE_MULTIPLE, VERDICT_VIOLATION, _report


def run(tmp_path, *args, config=None):
    argv = ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.yaml"
        path.write_text(config)
        argv += ["--config", str(path)]
    return main(argv + list(args))


def readme_commands():
    """The concrete ``fpplab ...`` lines of README's Command line block; the
    ``a|b`` and ``[...]`` templates are skipped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines()
             if line.startswith("fpplab ") and not set("|[") & set(line)]
    assert lines, "README's Command line block lists no concrete command"
    return lines


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses_and_resolves(line):
    # a renamed flag, subaction or preset exits here, without running the command
    args = build_parser().parse_args(line.split()[1:])
    load_config(overrides=_overrides(args))


SMALL_SIM = """
simulation:
  n_paths: 4000
  seed: 7
  grid_step: 0.08333333333333333
  horizon: 1.0
"""


def test_verify_fpp_power_base_exits_zero(tmp_path, capsys):
    # the default market and mixture: one power atom on a one-stock market
    code = run(tmp_path, "verify-fpp", config=SMALL_SIM)
    out = capsys.readouterr().out
    assert code == 0
    assert "consistent-with-martingale" in out
    for name in ("verify_pi_star.csv", "verify_null.csv", "verify_perturbed.csv",
                 "fpp_states.csv", "brownian_paths.csv"):
        assert (tmp_path / "out" / name).exists()
    header = (tmp_path / "out" / "verify_pi_star.csv").read_text().splitlines()[0]
    assert header == "t,mean,se,reference,margin"


def test_verify_fpp_portfolio_inversion_recovers_target(tmp_path, capsys):
    config = SMALL_SIM + """
mixture:
  atoms:
    - {gamma: 0.5, weight: 1.0}
  gamma0: 0.5
  h0: {kind: portfolio_inversion, value: [3.0]}
"""
    code = run(tmp_path, "verify-fpp", config=config)
    assert code == 0
    # the optimal allocation equals the inverted target: sigma*pi = 0.2 * 3.0
    from fpplab.config import load_config
    from fpplab.mixture import MixtureFpp

    cfg = load_config(str(tmp_path / "cfg.yaml"))
    fpp = MixtureFpp(cfg.mixture, cfg.market, TimeGrid.regular(1.0, 0.5))
    assert fpp.sp_star[0] == pytest.approx([0.6])


def test_verify_fpp_rejects_unit_aversion_atom(tmp_path, capsys):
    config = "mixture:\n  atoms:\n    - {gamma: 1.0, weight: 1.0}\n  gamma0: 1.0\n"
    code = run(tmp_path, "verify-fpp", config=config)
    err = capsys.readouterr().err
    assert code == 2
    assert "mixture" in err


@pytest.mark.parametrize("command", ["verify-fpp", "three-power"])
@pytest.mark.parametrize("key, market", [
    ("sigma", "sigma: .nan"),
    ("sigma", "sigma: .inf"),
    ("mu", "mu: -.inf"),
    ("sigma", "sigma:\n    - {t: 0.0, value: 0.2}\n    - {t: 0.5, value: .nan}"),
    ("mu", "mu:\n    - {t: 0.0, value: 0.04}\n    - {t: 0.5, value: .inf}"),
], ids=["sigma-nan", "sigma-inf", "mu-minus-inf", "sigma-knot-nan", "mu-knot-inf"])
def test_non_finite_market_is_a_config_error(tmp_path, capsys, command, key, market):
    # a non-finite constant or piecewise knot is rejected when the config loads
    config = SMALL_SIM + f"market:\n  {market}\n"
    code = run(tmp_path, command, config=config)
    err = capsys.readouterr().err
    assert code == 2
    assert f"market.{key}: non-finite value" in err


def test_pool_optimize_fig1(tmp_path, capsys):
    code = run(tmp_path, "--preset", "fig1", "pool", "optimize", "--t", "30")
    out = capsys.readouterr().out
    assert code == 0
    z_star = float(out.split("z_star = ")[1].split()[0])
    assert 0.20 <= z_star <= 0.30


def test_pool_optimize_fig4_picks_the_higher_of_two_near_tied_maxima(tmp_path, capsys):
    # the maximum near q = 0.6 is higher by about 5e-12 in log value, but
    # a refinement to width 1e-6 alone loses 1e-10 of it, which would hand
    # the win to the one near p = 0.1
    code = run(tmp_path, "--preset", "fig4", "pool", "optimize", "--t", "300")
    out = capsys.readouterr().out
    assert code == 0
    assert "z_star = 0.600000" in out


def test_pool_optimize_fig3_reports_two_maxima(tmp_path, capsys):
    code = run(tmp_path, "--preset", "fig3", "pool", "optimize", "--t", "30")
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("local maximum") == 2


def test_pool_optimize_prints_the_log_value_where_the_value_underflows(tmp_path, capsys):
    code = run(tmp_path, "--preset", "fig3", "pool", "optimize", "--t", "1e300")
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("z_star = 0.100000 (log value -")
    assert out.count("local maximum") == 2 and out.count("log value = -") == 2
    code = run(tmp_path, "--preset", "fig3", "pool", "optimize", "--t", "30")
    assert "(value 1.1279777)" in capsys.readouterr().out


def test_pool_surface_csv(tmp_path):
    code = run(tmp_path, "--preset", "fig4", "pool", "surface")
    assert code == 0
    lines = (tmp_path / "out" / "pool_surface_fig4.csv").read_text().splitlines()
    assert lines[0] == "z,t,value"
    assert len(lines) == 1 + 100 * 30


def test_pool_surface_stops_at_a_fractional_horizon(tmp_path):
    # whole years up to the horizon: 2.6 gives t = 1 and 2, never 3
    code = run(tmp_path, "pool", "surface",
               config="pool:\n  horizon: 2.6\n  rebalance_dt: 0.2\n")
    assert code == 0
    lines = (tmp_path / "out" / "pool_surface_fig1.csv").read_text().splitlines()
    assert {float(line.split(",")[1]) for line in lines[1:]} == {1.0, 2.0}


def test_pool_surface_fig4_decays_fast():
    # the wide-aversion-gap preset loses most of its value by t = 30
    from fpplab.pooling import optimize_constant_z, preset

    spec = preset("fig4")
    best_late = optimize_constant_z(spec, 30.0).log_value
    assert best_late < np.log(0.6 * 2.0)  # below 60% of the t = 0 level


def test_pool_compare_csv_and_reproducibility(tmp_path):
    code = run(tmp_path, "--preset", "fig1", "--paths", "64", "pool", "compare")
    assert code == 0
    first = (tmp_path / "out" / "pool_comparison_fig1.csv").read_bytes()
    code = run(tmp_path, "--preset", "fig1", "--paths", "64", "pool", "compare")
    assert code == 0
    assert (tmp_path / "out" / "pool_comparison_fig1.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "t,strategy,mean_utility,se,mean_allocation"


def test_two_power_gap_zero_config(tmp_path, capsys):
    config = "two_power:\n  p: 0.1\n  q: 0.3\n  a0: 1.0\n  d0: 1.0\n" \
             "  a_vol: [-0.2]\n  d_vol: [-0.2]\n" \
             "market:\n  n_stocks: 1\n  d_w: 1\n  d_wperp: 0\n  sigma: 0.2\n  mu: 0.04\n"
    # a = d = -lam closes the gap exactly
    code = run(tmp_path, "two-power", "gap", config=config)
    out = capsys.readouterr().out
    assert code == 0
    assert "FPP: yes" in out


def test_two_power_gap_default_is_not_consistent(tmp_path, capsys):
    code = run(tmp_path, "two-power", "gap")
    out = capsys.readouterr().out
    assert code == 0
    assert "FPP: no" in out


def test_two_power_dual_unit_case(tmp_path, capsys):
    code = run(tmp_path, "two-power", "dual", "--y", "2")
    out = capsys.readouterr().out
    assert code == 0
    assert float(out.split("x_star = ")[1].splitlines()[0]) == pytest.approx(1.0)


def test_two_power_dual_huge_y_stays_finite(tmp_path, capsys):
    # D^2 + 4Ay overflows here, yet x* ~ 5.18e-315 is a representable subnormal
    code = run(tmp_path, "two-power", "dual", "--y", "1e308", "--gamma", "0.49")
    out = capsys.readouterr().out
    assert code == 0
    x_star = float(out.split("x_star = ")[1].splitlines()[0])
    assert x_star == pytest.approx(5.18e-315, rel=1e-3)
    assert np.isfinite(float(out.split("dual value = ")[1].splitlines()[0]))


def test_two_power_validate_flags_violation(tmp_path, capsys):
    csv_path = tmp_path / "powers.csv"
    rows = ["p,q"] + [f"0.2,{q}" for q in (0.6, 0.6, 0.6000010, 0.6)]
    csv_path.write_text("\n".join(rows) + "\n")
    code = run(tmp_path, "two-power", "validate", "--file", str(csv_path))
    out = capsys.readouterr().out
    assert code == 1
    assert "violations" in out


def test_two_power_validate_accepts_monotone(tmp_path, capsys):
    csv_path = tmp_path / "powers.csv"
    csv_path.write_text("p,q\n0.2,0.6\n0.21,0.59\n0.22,0.58\n")
    code = run(tmp_path, "two-power", "validate", "--file", str(csv_path))
    assert code == 0


def test_three_power_run(tmp_path, capsys):
    code = run(tmp_path, "three-power", config=SMALL_SIM)
    out = capsys.readouterr().out
    assert code == 0
    assert "consistent-with-martingale" in out
    disc = (tmp_path / "out" / "three_power_discriminants.csv").read_text()
    lines = disc.splitlines()
    assert lines[0] == "gamma,disc_monotone,disc_concave"
    assert len(lines) == 51
    assert all(float(line.split(",")[1]) < 0 for line in lines[1:])
    paths_csv = (tmp_path / "out" / "three_power_paths.csv").read_text()
    assert paths_csv.splitlines()[0] == "path_id,t,Z,I,U_x=0.5,U_x=1,U_x=2"


def test_three_power_gamma_rejected(tmp_path, capsys):
    code = run(tmp_path, "three-power", "--gamma", "0.4")
    assert code == 2


def test_three_power_small_gamma_finishes(tmp_path):
    code = run(tmp_path, "--paths", "500", "three-power", "--gamma", "0.05",
               config=SMALL_SIM)
    assert code == 0


def test_output_dir_from_config_file_and_out_flag(tmp_path):
    # output_dir resolves as every setting does: the file's value, which --out beats
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output_dir: {tmp_path / 'from_file'}\n")
    assert main(["--config", str(config), "pool", "surface"]) == 0
    assert [p.name for p in (tmp_path / "from_file").iterdir()] == ["pool_surface_fig1.csv"]
    assert main(["--config", str(config), "--out", str(tmp_path / "from_flag"),
                 "pool", "surface"]) == 0
    assert [p.name for p in (tmp_path / "from_flag").iterdir()] == ["pool_surface_fig1.csv"]
    assert len(list((tmp_path / "from_file").iterdir())) == 1


def test_verify_fpp_csvs_reproducible(tmp_path):
    code = run(tmp_path, "verify-fpp", config=SMALL_SIM)
    assert code == 0
    first = (tmp_path / "out" / "verify_pi_star.csv").read_bytes()
    code = run(tmp_path, "verify-fpp", config=SMALL_SIM)
    assert code == 0
    assert (tmp_path / "out" / "verify_pi_star.csv").read_bytes() == first


MIX3 = """
market:
  n_stocks: 3
  d_w: 3
  d_wperp: 1
  sigma: [[0.2, 0.0, 0.0], [0.05, 0.25, 0.0], [0.0, 0.05, 0.3]]
  mu: [0.04, 0.05, 0.06]
mixture:
  atoms: [{gamma: 0.3, weight: 1.0}, {gamma: 0.5, weight: 0.5}, {gamma: 0.8, weight: 0.25}]
  gamma0: 0.5
  h0: {kind: portfolio_inversion, value: [0.5, 0.3, 0.2]}
  j: {kind: constant, value: [0.1]}
"""


def test_verify_fpp_structure_scan_line_on_mix3(tmp_path, capsys):
    # the scan evaluates paths 0..7 of the seed at mid-horizon and at the
    # horizon, whatever n_paths is; 16 states, the worst the last one to set
    # a new worst margin
    run(tmp_path, "verify-fpp", config=MIX3 + "simulation: {n_paths: 500, seed: 7}\n")
    assert ("structure scan: pass (min dU = 4.867e-01, max d2U = -1.147e-02, "
            "worst state 13)") in capsys.readouterr().out.splitlines()


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["martingale", "supermartingale"]),
       z=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
@example(mode="supermartingale", z=[0.0, 0.0, 0.0, -1.2])  # strict
@example(mode="martingale", z=[0.0, 1.0, -1.0, 0.0])  # on the band
def test_verdict_is_violation_iff_a_csv_margin_is_negative(tmp_path_factory, mode, z):
    # the verdict and the CSV margin column come from one acceptance rule;
    # z places each mean in units of its band around the reference
    n, reference = 100, 1.0
    grid = TimeGrid(np.linspace(0.0, 1.0, 5))
    sd = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    mean = reference + np.r_[0.0, z] * SE_MULTIPLE * sd / np.sqrt(n)
    report = _report(mode, mean * n, n * (sd ** 2 * (n - 1) / n + mean ** 2), 0,
                     np.linspace(0.5, 1.5, n), reference, grid, n, 0)
    path = tmp_path_factory.mktemp("report") / "report.csv"
    _write_report_csv(str(path), report)
    with open(path) as fh:
        margins = [float(row["margin"]) for row in csv.DictReader(fh)]
    assert (report.verdict == VERDICT_VIOLATION) == any(m < 0 for m in margins[1:])



def test_verify_fpp_brownian_paths_are_cumulative_batch_draws(tmp_path):
    # row (path_id, t_k) holds the running sum of brownian_batch path path_id
    # over the first k cells, drawn at the config seed
    config = """
market: {n_stocks: 1, d_w: 1, d_wperp: 1, sigma: 0.2, mu: 0.04}
simulation: {n_paths: 500, seed: 11, grid_step: 0.25, horizon: 1.0}
"""
    run(tmp_path, "verify-fpp", config=config)
    lines = (tmp_path / "out" / "brownian_paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,t,W_1,Wp_1"
    grid = TimeGrid.regular(1.0, 0.25)
    dw, dwp = brownian_batch(grid, 1, 1, seed=11, path_ids=range(4))
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 4 * (grid.n_steps + 1)
    for pid in range(4):
        incs = np.concatenate([dw[:, :, pid], dwp[:, :, pid]]).T
        levels = np.vstack([np.zeros((1, 2)), np.cumsum(incs, axis=0)])
        for k, t in enumerate(grid.times):
            row = rows[pid * (grid.n_steps + 1) + k]
            assert row[:2] == [pid, t]
            assert row[2:] == list(levels[k])


@pytest.mark.parametrize("args, config", [
    (["--paths", "1", "verify-fpp"], SMALL_SIM),
    (["--paths", "1", "three-power"], SMALL_SIM),
    (["--paths", "1", "--preset", "fig1", "pool", "compare"], None),
    (["verify-fpp"], SMALL_SIM.replace("n_paths: 4000", "n_paths: 1")),
    (["three-power"], SMALL_SIM.replace("n_paths: 4000", "n_paths: 1")),
], ids=["verify-fpp-flag", "three-power-flag", "pool-compare-flag",
        "verify-fpp-config", "three-power-config"])
def test_one_path_is_a_config_error(tmp_path, capsys, args, config):
    # the ensemble statistics need at least two paths
    code = run(tmp_path, *args, config=config)
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error: simulation.n_paths: " in err


@pytest.mark.parametrize("command", ["verify-fpp", "three-power"])
@pytest.mark.parametrize("key, args, config", [
    ("horizon", [], SMALL_SIM.replace("horizon: 1.0", "horizon: .inf")),
    ("horizon", [], SMALL_SIM.replace("horizon: 1.0", "horizon: .nan")),
    ("grid_step", [], SMALL_SIM.replace("grid_step: 0.08333333333333333",
                                        "grid_step: .inf")),
    ("grid_step", [], SMALL_SIM.replace("grid_step: 0.08333333333333333",
                                        "grid_step: .nan")),
    ("seed", ["--seed", str(2 ** 64)], SMALL_SIM),
    ("grid_step", [], SMALL_SIM.replace("horizon: 1.0", "horizon: 1.0e+300")
     .replace("grid_step: 0.08333333333333333", "grid_step: 1.0e-10")),
], ids=["horizon-inf", "horizon-nan", "step-inf", "step-nan", "seed-2-64",
        "step-count-overflow"])
def test_out_of_range_simulation_setting_is_a_config_error(tmp_path, capsys, command,
                                                           key, args, config):
    code = run(tmp_path, *args, command, config=config)
    err = capsys.readouterr().err
    assert code == 2
    assert f"configuration error: simulation.{key}: " in err


def test_pool_compare_paths_from_config_equal_flag(tmp_path):
    # pool compare takes its path count from simulation.n_paths; the default
    # pool.preset (fig1) names the output
    code = run(tmp_path, "pool", "compare", config="simulation:\n  n_paths: 64\n")
    assert code == 0
    from_file = (tmp_path / "out" / "pool_comparison_fig1.csv").read_bytes()
    code = run(tmp_path, "--paths", "64", "pool", "compare")
    assert code == 0
    assert (tmp_path / "out" / "pool_comparison_fig1.csv").read_bytes() == from_file


def test_pool_preset_flag_keeps_file_fields(tmp_path, monkeypatch):
    # --preset sets pool.preset only; the file's other pool fields still apply
    import fpplab.pooling

    seen = []
    original = fpplab.pooling.optimize_constant_z

    def recording(spec, t):
        seen.append(spec)
        return original(spec, t)

    monkeypatch.setattr(fpplab.pooling, "optimize_constant_z", recording)
    code = run(tmp_path, "--preset", "fig3", "pool", "optimize",
               config="pool:\n  x0: 2.0\n")
    assert code == 0
    assert seen == [fpplab.pooling.preset("fig3", x0=2.0)]


POWER_CSV = "p,q\n0.2,0.6\n0.21,abc\n"

# (key, argv, config): every input that must exit 2
# with one stderr line "configuration error: <key>: ..."; a key ending in a
# newline is the whole line
CONFIG_ERRORS = {
    "h0-constant-length": ("mixture.h0.value", ["verify-fpp"],
                           "mixture:\n  h0: {kind: constant, value: [0.1, 0.2]}\n"),
    "h0-inversion-length": ("mixture.h0.value", ["verify-fpp"],
                            "mixture:\n  h0: {kind: portfolio_inversion, "
                            "value: [1.0, 2.0]}\n"),
    "h0-unknown-kind": ("mixture.h0.kind", ["verify-fpp"],
                        "mixture:\n  h0: {kind: wavelet}\n"),
    "j-constant-length": ("mixture.j.value", ["verify-fpp"],
                          "market: {d_wperp: 1}\n"
                          "mixture:\n  j: {kind: constant, value: [0.1, 0.2]}\n"),
    "atom-weight-nan": ("mixture.atoms[0].weight: must be positive and finite, got nan\n",
                        ["verify-fpp"], "mixture:\n  atoms: [{gamma: 0.5, weight: .nan}]\n"),
    "atom-weight-inf": ("mixture.atoms[0].weight: must be positive and finite, got inf\n",
                        ["verify-fpp"], "mixture:\n  atoms: [{gamma: 0.5, weight: .inf}]\n"),
    "atom-weight-negative": ("mixture.atoms[0].weight: must be positive and finite, "
                             "got -1.0\n",
                             ["verify-fpp"],
                             "mixture:\n  atoms: [{gamma: 0.5, weight: -1.0}]\n"),
    "gamma0-outside-atoms": ("mixture.gamma0: 2.0 outside the atom range", ["verify-fpp"],
                             "mixture:\n  gamma0: 2.0\n"),
    "perturbed-scale-nan": ("verify: unknown section\n", ["verify-fpp"],
                            "verify:\n  perturbed_scale: .nan\n"),
    "x-values-nan": ("three_power.x_values: unknown key\n", ["three-power"],
                     "three_power:\n  x_values: [.nan, 1.0]\n"),
    "three-power-gamma-flag": ("three_power.gamma", ["three-power", "--gamma", "0.4"],
                               None),
    "a-vol-length": ("two_power.a_vol", ["two-power", "drifts"],
                     "two_power:\n  a_vol: [0.1, 0.2]\n"),
    "a0-nan": ("two_power.a0: must be positive and finite", ["two-power", "drifts"],
               "two_power:\n  a0: .nan\n"),
    "two-power-a0-negative": ("two_power.a0: must be positive and finite",
                              ["two-power", "drifts"], "two_power:\n  a0: -1.0\n"),
    "verify-unknown-preset": ("--preset: verify-fpp takes no preset (presets apply to "
                              "pool)\n", ["--preset", "fig9", "verify-fpp"], None),
    "pool-unknown-preset": ("pool.preset", ["--preset", "power_base", "pool", "compare"],
                            None),
    "pool-optimize-negative-t": ("--t", ["pool", "optimize", "--t", "-1"], None),
    "pool-optimize-nan-t": ("--t", ["pool", "optimize", "--t", "nan"], None),
    "pool-optimize-zero-t": ("--t: must be positive and finite, got 0.0\n",
                             ["pool", "optimize", "--t", "0"], None),
    "pool-optimize-overflowing-t": ("--t: lam^2 t must be finite",
                                    ["--preset", "fig3", "pool", "optimize", "--t", "1e308"],
                                    None),
    "pool-compare-overflowing-lam": ("pool.lam: lam^2 horizon must be finite",
                                     ["pool", "compare"],
                                     "pool: {preset: fig1, lam: 1.0e+200}\n"),
    "pool-surface-overflowing-lam": ("pool.lam: lam^2 horizon must be finite",
                                     ["pool", "surface"],
                                     "pool: {preset: fig1, lam: 1.0e+200}\n"),
    "pool-optimize-overflowing-lam": ("pool.lam: lam^2 horizon must be finite",
                                      ["pool", "optimize"],
                                      "pool: {preset: fig1, lam: 1.0e+200}\n"),
    "pool-no-preset-overflowing-lam": ("pool.lam: lam^2 horizon must be finite",
                                       ["pool", "compare"],
                                       "pool: {preset: null, p: 0.1, q: 0.3, a0: 1.0, "
                                       "d0: 1.0, lam: 1.0e+154, x0: 1.0, horizon: 2.0e+4, "
                                       "rebalance_dt: 1.0e+3}\n"),
    "pool-a0-negative": ("pool.a0: must be positive", ["pool", "compare"],
                         "pool: {preset: fig1, a0: -1.0}\n"),
    "pool-fractional-periods": ("pool.horizon: must be a whole number of rebalance periods",
                                ["pool", "compare"],
                                "pool: {preset: fig1, rebalance_dt: 0.7}\n"),
    "pool-p-above-q": ("pool.q: must exceed p, got p=0.5, q=0.3\n", ["pool", "compare"],
                       "pool: {preset: fig1, p: 0.5}\n"),
    "pool-surface-empty-grid": ("pool.horizon", ["pool", "surface"],
                                "pool:\n  horizon: 0.4\n  rebalance_dt: 0.4\n"),
    "dual-negative-y": ("--y", ["two-power", "dual", "--y", "-1"], None),
    "dual-gamma-above-half": ("--gamma", ["two-power", "dual", "--y", "1",
                                          "--gamma", "0.7"], None),
    "dual-gamma-nan": ("--gamma: must lie in (0, 1/2), got nan\n",
                       ["two-power", "dual", "--y", "1", "--gamma", "nan"], None),
    "dual-zero-y": ("--y: must be positive and finite, got 0.0\n",
                    ["two-power", "dual", "--y", "0"], None),
    # x* underflows to 0, overflows to inf, or underflows at a small gamma
    "dual-huge-y": ("--y: 1e+308 puts x* or the dual value outside float range at "
                    "gamma = 0.25\n", ["two-power", "dual", "--y", "1e308"], None),
    "dual-tiny-y": ("--y: 9.99989e-321 puts x* or the dual value outside float range at "
                    "gamma = 0.25\n", ["two-power", "dual", "--y", "1e-320"], None),
    "dual-huge-y-small-gamma": ("--y: 1e+300 puts x* or the dual value outside float "
                                "range at gamma = 0.01\n",
                                ["two-power", "dual", "--y", "1e300", "--gamma", "0.01"],
                                None),
    "validate-non-numeric": ("{csv}", ["two-power", "validate", "--file", "{csv}"],
                             None),
    "out-empty": ("output_dir: must be a directory path, got ''\n",
                  ["--out", "", "two-power", "gap"], None),
    "three-power-preset": ("--preset: three-power", ["--preset", "fig3", "three-power"],
                           None),
    "two-power-preset": ("--preset: two-power", ["two-power", "gap", "--preset",
                                                 "power_base"], None),
    "n-paths-inf": ("simulation.n_paths", ["three-power"],
                    "simulation:\n  n_paths: .inf\n"),
    "n-paths-nan": ("simulation.n_paths", ["three-power"],
                    "simulation:\n  n_paths: .nan\n"),
    "n-paths-fraction": ("simulation.n_paths", ["three-power"],
                         "simulation:\n  n_paths: 2.7\n"),
    "n-paths-bool": ("simulation.n_paths", ["three-power"],
                     "simulation:\n  n_paths: true\n"),
    "seed-inf": ("simulation.seed", ["three-power"], "simulation:\n  seed: .inf\n"),
    "seed-fraction": ("simulation.seed", ["three-power"], "simulation:\n  seed: 7.5\n"),
    "n-stocks-inf": ("market.n_stocks", ["three-power"], "market:\n  n_stocks: .inf\n"),
    "d-w-fraction": ("market.d_w", ["three-power"], "market:\n  d_w: 1.5\n"),
    "d-w-bool": ("market.d_w", ["three-power"], "market:\n  d_w: true\n"),
    "d-wperp-inf": ("market.d_wperp", ["three-power"], "market:\n  d_wperp: .inf\n"),
    "n-stocks-zero": ("market.n_stocks: must be at least 1, got 0", ["three-power"],
                      "market:\n  n_stocks: 0\n"),
    "d-w-zero": ("market.d_w: must be at least 1, got 0", ["three-power"],
                 "market:\n  d_w: 0\n"),
    "d-wperp-negative": ("market.d_wperp: must be at least 0, got -1", ["verify-fpp"],
                         "market:\n  d_wperp: -1\n"),
    # a dimension is refused before any array is sized from it
    "d-w-huge": ("market.d_w: must be at most 1000, got 60000000000000000\n",
                 ["pool", "optimize"], "market:\n  d_w: 6.0e+16\n"),
    "sigma-ragged": ("market.sigma: needs numbers of shape (1, 2), got "
                     "[[0.2, 0.1], [0.3]]\n", ["pool", "optimize"],
                     "market:\n  n_stocks: 2\n  sigma: [[0.2, 0.1], [0.3]]\n"),
    "grid-step-string": ("simulation.grid_step: must be a number, got 'abc'",
                         ["three-power"], "simulation:\n  grid_step: abc\n"),
    "horizon-bool": ("simulation.horizon: must be a number, got True", ["three-power"],
                     "simulation:\n  horizon: true\n"),
    "perturbed-scale-string": ("verify: unknown section\n",
                               ["verify-fpp"], "verify:\n  perturbed_scale: abc\n"),
    "three-power-gamma-bool": ("three_power.gamma: must be a number", ["three-power"],
                               "three_power:\n  gamma: true\n"),
    "x-values-bool": ("three_power.x_values: unknown key\n", ["three-power"],
                      "three_power:\n  x_values: [true, 1.0]\n"),
    "pool-lam-bool": ("pool.lam: must be a number", ["pool", "optimize"],
                      "pool: {lam: true}\n"),
    "pool-horizon-string": ("pool.horizon: must be a number", ["pool", "compare"],
                            "pool:\n  horizon: abc\n"),
    "two-power-p-bool": ("two_power.p: must be a number", ["two-power", "gap"],
                         "two_power:\n  p: true\n"),
    "two-power-d0-string": ("two_power.d0: must be a number", ["two-power", "drifts"],
                            "two_power:\n  d0: abc\n"),
    "atom-weight-bool": ("mixture.atoms[0].weight: must be a number", ["verify-fpp"],
                         "mixture:\n  atoms: [{gamma: 0.5, weight: true}]\n"),
    "atom-gamma-string": ("mixture.atoms[0].gamma: must be a number", ["verify-fpp"],
                          "mixture:\n  atoms: [{gamma: abc}]\n"),
    "gamma0-string": ("mixture.gamma0: must be a number", ["verify-fpp"],
                      "mixture:\n  gamma0: '0.5'\n"),
    "sigma-bool": ("market.sigma: must be a number, got True", ["verify-fpp"],
                   "market:\n  sigma: true\n"),
    "mu-element-bool": ("market.mu[0]: must be a number", ["three-power"],
                        "market:\n  mu: [true]\n"),
    "sigma-matrix-bool": ("market.sigma[1][0]: must be a number", ["verify-fpp"],
                          "market:\n  n_stocks: 2\n  d_w: 2\n"
                          "  sigma: [[0.2, 0.0], [true, 0.3]]\n  mu: [0.04, 0.06]\n"),
    "sigma-knot-value-bool": ("market.sigma[1].value: must be a number", ["verify-fpp"],
                              "market:\n  sigma:\n    - {t: 0.0, value: 0.2}\n"
                              "    - {t: 0.5, value: true}\n"),
    "mu-knot-value-string": ("market.mu[0].value[0]: must be a number", ["three-power"],
                             "market:\n  mu:\n    - {t: 0.0, value: [abc]}\n"),
    "a-vol-bool": ("two_power.a_vol[0]: must be a number", ["two-power", "drifts"],
                   "two_power:\n  a_vol: [true]\n"),
    "d-vol-bool": ("two_power.d_vol: must be a number", ["two-power", "drifts"],
                   "two_power:\n  d_vol: true\n"),
    "a-perp-bool": ("two_power.a_perp: unknown key\n", ["two-power", "drifts"],
                    "two_power:\n  a_perp: [true]\n"),
    "d-perp-string": ("two_power.d_perp: unknown key\n", ["two-power", "drifts"],
                      "two_power:\n  d_perp: [abc]\n"),
    "h0-value-bool": ("mixture.h0.value[0]: must be a number", ["verify-fpp"],
                      "mixture:\n  h0: {kind: constant, value: [true]}\n"),
    "j-value-bool": ("mixture.j.value[0]: must be a number", ["verify-fpp"],
                     "market: {d_wperp: 1}\n"
                     "mixture:\n  j: {kind: constant, value: [true]}\n"),
    "h0-zero-value": ("mixture.h0.value: kind 'zero' does not read it", ["verify-fpp"],
                      "mixture:\n  h0: {value: [0.5]}\n"),
    "j-constant-rho": ("mixture.j.rho: kind 'constant' does not read it", ["verify-fpp"],
                       "market: {d_wperp: 1}\n"
                       "mixture:\n  j: {kind: constant, value: [0.1], rho: [[1.0]]}\n"),
    "j-factor-value": ("mixture.j.value: kind 'factor' does not read it", ["verify-fpp"],
                       "market: {d_wperp: 1}\n"
                       "mixture:\n  j: {kind: factor, value: [0.1], rho: [[1.0]], "
                       "a: [[0.5]]}\n"),
    "sigma-knot-unknown-key": ("market.sigma[0].vale: unknown key", ["verify-fpp"],
                               "market:\n  sigma: [{t: 0.0, value: 0.2, vale: 0.3}]\n"),
    "sigma-knot-missing-t": ("market.sigma[1].t: missing", ["verify-fpp"],
                             "market:\n  sigma: [{t: 0.0, value: 0.2}, {value: 0.3}]\n"),
    "mu-knot-missing-value": ("market.mu[0].value: missing", ["three-power"],
                              "market:\n  mu: [{t: 0.0}]\n"),
    "mu-value-after-knot": ("market.mu[1]: not a {{t, value}} knot", ["three-power"],
                            "market:\n  mu: [{t: 0.0, value: 0.1}, 0.3]\n"),
    "pool-no-preset-missing": ("pool.q: missing", ["pool", "optimize"],
                               "pool:\n  preset: null\n  p: 0.2\n"),
    "horizon-400-digits": ("simulation.horizon: must be a number", ["three-power"],
                           f"simulation:\n  horizon: {10 ** 400}\n"),
    "pool-lam-400-digits": ("pool.lam: must be a number", ["pool", "optimize"],
                            f"pool:\n  lam: {10 ** 400}\n"),
    "validate-no-rows": ("{empty}: no p, q rows\n",
                         ["two-power", "validate", "--file", "{empty}"], None),
    # every configuration node is a mapping of its own keys, an atom list a list
    "j-list": ("mixture.j: not a mapping, got []\n", ["pool", "optimize"],
               "mixture: {j: []}\n"),
    "two-power-string": ("two_power: not a mapping, got 'constant'\n",
                         ["pool", "optimize"], "two_power: constant\n"),
    "h0-list": ("mixture.h0: not a mapping, got [1]\n", ["pool", "optimize"],
                "mixture: {h0: [1]}\n"),
    "market-list": ("market: not a mapping, got [1, 2]\n", ["pool", "optimize"],
                    "market: [1, 2]\n"),
    "simulation-number": ("simulation: not a mapping, got 5\n", ["pool", "optimize"],
                          "simulation: 5\n"),
    "atoms-number": ("mixture.atoms: not a list of atoms, got 5\n", ["pool", "optimize"],
                     "mixture: {atoms: 5}\n"),
    "atom-number": ("mixture.atoms[0]: not a mapping, got 5\n", ["pool", "optimize"],
                    "mixture: {atoms: [5]}\n"),
    "atom-no-gamma": ("mixture.atoms[0].gamma: missing\n", ["pool", "optimize"],
                      "mixture: {atoms: [{weight: 1}]}\n"),
    "d-vol-ragged": ("two_power.d_vol: not a number or an array of numbers\n",
                     ["pool", "optimize"], "two_power: {d_vol: [[1, 2], [3]]}\n"),
    "h0-kind-list": ("mixture.h0.kind: unknown kind [1], choose from ['zero', 'constant', "
                     "'portfolio_inversion']\n", ["pool", "optimize"],
                     "mixture: {h0: {kind: [1]}}\n"),
    "pool-preset-list": ("pool.preset: unknown preset [1], choose from ['fig1', 'fig2', "
                         "'fig3', 'fig4']\n", ["pool", "optimize"],
                         "pool: {preset: [1]}\n"),
}


@pytest.mark.parametrize("key, args, config", CONFIG_ERRORS.values(),
                         ids=CONFIG_ERRORS.keys())
def test_config_error_contract(tmp_path, capsys, key, args, config):
    files = {"csv": tmp_path / "powers.csv", "empty": tmp_path / "empty.csv"}
    files["csv"].write_text(POWER_CSV)
    files["empty"].write_text("p,q\n")
    key = key.format(**files)
    code = run(tmp_path, *[arg.format(**files) for arg in args], config=config)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {key}")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("args, flag", [
    (["pool", "surface", "--t", "5"], "--t"),
    (["pool", "compare", "--t", "5"], "--t"),
    (["two-power", "gap", "--gamma", "0.3", "--y", "2", "--file", "nothere.csv"], "--y"),
    (["two-power", "drifts", "--gamma", "0.3"], "--gamma"),
    (["two-power", "validate", "--file", "nothere.csv", "--y", "2"], "--y"),
    (["two-power", "dual", "--y", "2", "--file", "nothere.csv"], "--file"),
])
def test_flag_outside_its_subaction_is_a_config_error(tmp_path, capsys, args, flag):
    code = run(tmp_path, *args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {flag}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()  # rejected before anything runs


@pytest.mark.parametrize("threads, command", [("0", "verify-fpp"), ("-3", "three-power")])
def test_threads_below_one_is_a_config_error(tmp_path, capsys, threads, command):
    code = run(tmp_path, "--threads", threads, command)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"configuration error: --threads: must be at least 1, got {threads}\n"
    assert not (tmp_path / "out").exists()  # rejected before anything runs


@pytest.mark.parametrize("args, code", [
    (["two-power", "gap"], 0),
    (["two-power", "dual", "--y", "inf"], 2),
    (["pool", "optimize"], 0),
])
def test_command_that_writes_no_file_makes_no_output_directory(tmp_path, capsys, args,
                                                                code):
    assert run(tmp_path, *args) == code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, written", [
    (["verify-fpp"], "brownian_paths.csv"),
    (["three-power"], "three_power_paths.csv"),
    (["pool", "surface"], "pool_surface_fig1.csv"),
    (["pool", "compare"], "pool_comparison_fig1.csv"),
])
def test_first_file_written_creates_a_nested_output_directory(tmp_path, capsys, args,
                                                              written):
    config = tmp_path / "cfg.yaml"
    config.write_text(SMALL_SIM)
    out = tmp_path / "a" / "b"
    main(["--out", str(out), "--config", str(config), "--paths", "200", *args])
    assert (out / written).is_file()


def test_two_power_drifts_print_the_coefficient_drifts(tmp_path, capsys):
    from fpplab.two_power import coefficient_drifts

    code = run(tmp_path, "two-power", "drifts",
               config="two_power:\n  a_vol: [0.1]\n  d_vol: [-0.25]\n")
    assert code == 0
    # the default market's Sharpe ratio is 0.04 / 0.2
    alpha, delta = coefficient_drifts(0.1, 0.3, [0.04 / 0.2], [0.1], [-0.25])
    assert capsys.readouterr().out == f"alpha = {alpha:.9g}\ndelta = {delta:.9g}\n"


def test_two_power_validate_rejects_nan_row(tmp_path, capsys):
    # every comparison with NaN is false, so a NaN row would pass the checks
    csv_path = tmp_path / "powers.csv"
    csv_path.write_text("p,q\n0.2,0.6\nnan,0.5\n")
    code = run(tmp_path, "two-power", "validate", "--file", str(csv_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {csv_path}: line 3: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("setting, message", [
    ("lam: .nan", "pool.lam: must be finite"),
    ("lam: .inf", "pool.lam: must be finite"),
    ("horizon: .inf", "pool.horizon: must be positive and finite, got inf"),
    ("rebalance_dt: 1.0e-300", "pool.horizon: horizon / rebalance_dt must be between"),
    ("horizon: 1.0e-12", "pool.horizon: horizon / rebalance_dt must be between")],
    ids=["lam: .nan", "lam: .inf", "horizon: .inf", "rebalance_dt: 1.0e-300",
         "horizon: 1.0e-12"])
def test_out_of_range_pool_setting_is_a_config_error(tmp_path, capsys, setting, message):
    code = run(tmp_path, "pool", "compare", config=f"pool:\n  preset: fig1\n  {setting}\n")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {message}")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("command", ["verify-fpp", "three-power"])
def test_market_singular_only_at_horizon_fails(tmp_path, capsys, command):
    # sigma drops to zero at t = 1, the last grid time, where no cell starts
    config = SMALL_SIM + """
market:
  sigma:
    - {t: 0.0, value: 0.2}
    - {t: 1.0, value: 0.0}
"""
    code = run(tmp_path, command, config=config)
    err = capsys.readouterr().err
    assert code == 1
    assert "column-rank deficient" in err


@pytest.mark.parametrize("command", ["verify-fpp", "three-power"])
def test_sharpe_ratio_evaluated_once_for_a_constant_market(tmp_path, monkeypatch,
                                                         command):
    import fpplab.market

    calls = []
    original = fpplab.market.sharpe_ratio

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fpplab.market, "sharpe_ratio", counting)
    code = run(tmp_path, "--paths", "200", command, config=SMALL_SIM)
    assert code == 0
    assert len(calls) == 1  # one knot run over the 13 grid times

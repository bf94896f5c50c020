"""Command line front end: exit codes, CSV outputs, reproducibility."""

import numpy as np
import pytest

from fpplab.cli import main
from fpplab.market import TimeGrid, brownian_batch


def run(tmp_path, *args, config=None):
    argv = ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.yaml"
        path.write_text(config)
        argv += ["--config", str(path)]
    return main(argv + list(args))


SMALL_SIM = """
simulation:
  n_paths: 4000
  seed: 7
  grid_step: 0.08333333333333333
  horizon: 1.0
"""


def test_verify_fpp_power_base_exits_zero(tmp_path, capsys):
    code = run(tmp_path, "--preset", "power_base", "verify-fpp", config=SMALL_SIM)
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
    fpp = MixtureFpp(cfg.mixture, cfg.vol, cfg.market)
    assert fpp.sp_star(0.0) == pytest.approx([0.6])


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
    assert f"market: {key}: non-finite value" in err


def test_pool_optimize_fig1(tmp_path, capsys):
    code = run(tmp_path, "--preset", "fig1", "pool", "optimize", "--t", "30")
    out = capsys.readouterr().out
    assert code == 0
    z_star = float(out.split("z_star = ")[1].split()[0])
    assert 0.20 <= z_star <= 0.30


def test_pool_optimize_fig3_reports_two_maxima(tmp_path, capsys):
    code = run(tmp_path, "--preset", "fig3", "pool", "optimize", "--t", "30")
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("local maximum") == 2


def test_pool_surface_csv(tmp_path):
    code = run(tmp_path, "--preset", "fig4", "pool", "surface")
    assert code == 0
    lines = (tmp_path / "out" / "pool_surface_fig4.csv").read_text().splitlines()
    assert lines[0] == "z,t,value"
    assert len(lines) == 1 + 100 * 30


def test_pool_surface_fig4_decays_fast():
    # the wide-aversion-gap preset loses most of its value by t = 30
    from fpplab.pooling import optimize_constant_z, preset

    spec = preset("fig4")
    best_late = optimize_constant_z(spec, 30.0).value
    assert best_late < 0.6 * 2.0  # below 60% of the t = 0 level


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
             "  a_vol: [-0.2]\n  d_vol: [-0.2]\n  a_perp: []\n  d_perp: []\n" \
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


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FPPLAB_OUT", str(tmp_path / "envdir"))
    code = main(["--preset", "fig1", "pool", "surface"])
    assert code == 0
    assert (tmp_path / "envdir" / "pool_surface_fig1.csv").exists()


def test_verify_fpp_csvs_reproducible(tmp_path):
    code = run(tmp_path, "verify-fpp", config=SMALL_SIM)
    assert code == 0
    first = (tmp_path / "out" / "verify_pi_star.csv").read_bytes()
    code = run(tmp_path, "verify-fpp", config=SMALL_SIM)
    assert code == 0
    assert (tmp_path / "out" / "verify_pi_star.csv").read_bytes() == first



def test_verify_fpp_brownian_paths_are_cumulative_batch_draws(tmp_path):
    # row (path_id, t_k) holds the running sum of brownian_batch row path_id
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
        incs = np.concatenate([dw[pid], dwp[pid]], axis=1)
        levels = np.vstack([np.zeros((1, 2)), np.cumsum(incs, axis=0)])
        for k, t in enumerate(grid.times):
            row = rows[pid * (grid.n_steps + 1) + k]
            assert row[:2] == [pid, t]
            assert row[2:] == list(levels[k])

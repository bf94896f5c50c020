"""Configuration loading: defaults, merging, presets, rejection of bad keys."""

import re

import pytest

from fpplab.config import DEFAULT_CONFIG, load_config
from fpplab.errors import ConfigError
from fpplab.pooling import PoolSpec


def write(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return str(path)


def test_defaults_load_without_file():
    cfg = load_config()
    assert cfg.market.d_w == 1
    assert cfg.mixture.gammas == pytest.approx([0.5])
    assert cfg.pool.lam == 1.0  # fig1
    assert cfg.sim.n_paths == DEFAULT_CONFIG["simulation"]["n_paths"]
    assert cfg.three_power.gamma == 0.25


def test_partial_override_merges(tmp_path):
    path = write(tmp_path, "simulation:\n  n_paths: 123\n")
    cfg = load_config(path)
    assert cfg.sim.n_paths == 123
    assert cfg.sim.seed == DEFAULT_CONFIG["simulation"]["seed"]


def test_integral_float_counts_are_accepted(tmp_path):
    path = write(tmp_path, "simulation:\n  n_paths: 300.0\n  seed: 7.0\n"
                           "market:\n  d_w: 1.0\n  d_wperp: 0.0\n")
    cfg = load_config(path)
    assert (cfg.sim.n_paths, cfg.sim.seed, cfg.market.d_w, cfg.market.d_wperp) \
        == (300, 7, 1, 0)
    assert type(cfg.sim.n_paths) is int and type(cfg.sim.seed) is int


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "marketx:\n  d_w: 1\n")
    with pytest.raises(ConfigError, match="marketx"):
        load_config(path)


def test_unknown_key_rejected_with_path(tmp_path):
    path = write(tmp_path, "market:\n  n_stocks: 1\n  volatility: 0.2\n")
    with pytest.raises(ConfigError, match="market.volatility"):
        load_config(path)


def test_yaml_syntax_error_reports_line(tmp_path):
    path = write(tmp_path, "market:\n  sigma: [0.2\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_atom_at_unit_aversion_rejected(tmp_path):
    path = write(tmp_path,
                 "mixture:\n  atoms:\n    - {gamma: 1.0, weight: 1.0}\n  gamma0: 1.0\n")
    with pytest.raises(ConfigError, match="mixture"):
        load_config(path)


def test_three_power_gamma_out_of_range(tmp_path):
    path = write(tmp_path, "three_power:\n  gamma: 0.4\n")
    with pytest.raises(ConfigError, match="three_power"):
        load_config(path)


def test_three_power_error_is_keyed_at_its_field(tmp_path):
    path = write(tmp_path, "three_power:\n  gamma: 0.4\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == "three_power.gamma: must lie in (0, 1/3), got 0.4"


def test_pool_preset_with_overrides(tmp_path):
    path = write(tmp_path, "pool:\n  preset: fig3\n  x0: 2.0\n")
    cfg = load_config(path)
    assert cfg.pool.lam == 4.0
    assert cfg.pool.x0 == 2.0


def test_pool_section_without_preset(tmp_path):
    # a null preset leaves the section's own fields, all of them required
    path = write(tmp_path, "pool:\n  preset: null\n  p: 0.2\n  q: 0.4\n  a0: 1.0\n"
                           "  d0: 2.0\n  lam: 0.5\n  x0: 1.5\n  horizon: 10.0\n")
    cfg = load_config(path)
    assert cfg.pool == PoolSpec(p=0.2, q=0.4, a0=1.0, d0=2.0, lam=0.5, x0=1.5,
                                horizon=10.0)
    assert cfg.pool_preset is None


@pytest.mark.parametrize("overrides, message", [
    ({"market": {"mu": [{"t": 0.0, "value": 0.1}, 0.3]}},
     "market.mu[1]: not a {t, value} knot, got 0.3"),
    ({"market": {"sigma": [0.2, {"t": 0.0, "value": 0.1}]}},
     "market.sigma[1]: must be a number, got {"),
    ({"market": {"sigma": [{"t": [0.0], "value": 0.2}]}},
     "market.sigma[0].t: must be a number, got [0.0]"),
    ({"pool": {"preset": None, "p": 0.2}},
     "pool.q: missing (without a preset, the section lacks q, a0, d0, lam, x0, horizon)"),
    ({"pool": {"preset": None, "p": 0.2, "q": 0.4, "a0": 1.0, "d0": 1.0, "lam": 1.0,
               "x0": 1.0}},
     "pool.horizon: missing"),
], ids=["value-after-knot", "knot-after-value", "knot-time-list", "pool-no-preset-q",
        "pool-no-preset-horizon"])
def test_malformed_entry_names_its_key(overrides, message):
    # a schedule mixing knots and values, or a preset-less pool short of a
    # field, is an exit-2 config error keyed at the entry, not Python's message
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}"):
        load_config(overrides=overrides)


def test_unknown_pool_preset(tmp_path):
    path = write(tmp_path, "pool:\n  preset: fig9\n")
    with pytest.raises(ConfigError, match="fig9"):
        load_config(path)


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("key", ["p", "q", "a0", "d0", "lam", "x0", "horizon",
                                 "rebalance_dt"])
def test_non_finite_pool_setting_rejected(tmp_path, key, value):
    path = write(tmp_path, f"pool:\n  preset: fig1\n  {key}: {value}\n")
    with pytest.raises(ConfigError, match=rf"^pool\.{key}: must be finite$"):
        load_config(path)


@pytest.mark.parametrize("overrides, key", [
    ({"market": {"sigma": True}}, "market.sigma"),
    ({"market": {"mu": [True]}}, "market.mu[0]"),
    ({"mixture": {"h0": {"kind": "constant", "value": [True]}}}, "mixture.h0.value[0]"),
    ({"simulation": {"horizon": 10 ** 400}}, "simulation.horizon"),
    ({"pool": {"lam": 10 ** 400}}, "pool.lam"),
    ({"market": {"sigma": [[10 ** 400]]}}, "market.sigma[0][0]"),
], ids=["sigma-bool", "mu-element-bool", "h0-value-bool", "horizon-beyond-float",
        "pool-lam-beyond-float", "sigma-beyond-float"])
def test_non_number_override_names_its_key(overrides, key):
    # a bool is a number to float() and np.asarray, and an int beyond float
    # range raises OverflowError; both are config errors keyed at the value
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: must be a number, got "):
        load_config(overrides=overrides)


def test_mixture_preset_application():
    cfg = load_config(overrides={"preset": "power_base"})
    assert cfg.mixture.gamma0 == 0.5
    with pytest.raises(ConfigError, match="preset"):
        load_config(overrides={"preset": "nope"})


def test_h0_and_j_kinds(tmp_path):
    path = write(tmp_path, """
mixture:
  atoms:
    - {gamma: 0.5, weight: 1.0}
  gamma0: 0.5
  h0: {kind: portfolio_inversion, value: [2.0]}
  j: {kind: zero}
""")
    cfg = load_config(path)
    assert cfg.mixture.h0.kind == "portfolio_inversion"
    bad = write(tmp_path, "mixture:\n  h0: {kind: wavelet}\n")
    with pytest.raises(ConfigError, match="wavelet"):
        load_config(bad)


def test_cli_overrides_win(tmp_path):
    path = write(tmp_path, "simulation:\n  seed: 1\n  n_paths: 10\n")
    cfg = load_config(path, overrides={"simulation": {"seed": 42}})
    assert cfg.sim.seed == 42
    assert cfg.sim.n_paths == 10


def test_piecewise_market_schedule(tmp_path):
    path = write(tmp_path, """
market:
  n_stocks: 1
  d_w: 1
  d_wperp: 0
  sigma:
    - {t: 0.0, value: 0.2}
    - {t: 0.5, value: 0.4}
  mu: 0.04
""")
    cfg = load_config(path)
    assert cfg.market.sharpe_at(0.0) == pytest.approx([0.2])
    assert cfg.market.sharpe_at(0.75) == pytest.approx([0.1])

"""Configuration loading: defaults, merging, presets, rejection of bad keys."""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

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
    ({"verify": {"perturbed_scale": 2.0}}, "verify: unknown section"),
    ({"output_dir": ""}, "output_dir: must be a directory path, got ''"),
    ({"output_dir": None}, "output_dir: must be a directory path, got None"),
], ids=["value-after-knot", "knot-after-value", "knot-time-list", "pool-no-preset-q",
        "pool-no-preset-horizon", "verify-section", "output-dir-empty", "output-dir-null"])
def test_malformed_entry_names_its_key(overrides, message):
    # a schedule mixing knots and values, a preset-less pool short of a field,
    # a section of no layer or an empty output_dir is an exit-2 config error
    # keyed at the entry, not Python's message
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}"):
        load_config(overrides=overrides)


def test_unknown_pool_preset(tmp_path):
    # pooling.preset is the one lookup; the config keys its error at pool
    path = write(tmp_path, "pool:\n  preset: fig9\n")
    with pytest.raises(ConfigError, match=r"^pool\.preset: unknown preset 'fig9', choose "
                                          r"from \['fig1', 'fig2', 'fig3', 'fig4'\]$"):
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
    # the market and mixture resolve like every other section; no bundle replaces them
    for preset in ("power_base", "nope"):
        with pytest.raises(ConfigError, match=r"^preset: unknown section$"):
            load_config(overrides={"preset": preset})


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


def test_readme_configuration_block_is_the_defaults(tmp_path):
    # a key added to or removed from DEFAULT_CONFIG without its README line fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("## Configuration", 1)[1].split("```yaml", 1)[1].split("```")[0]
    block = yaml.safe_load(text)
    assert list(block) == list(DEFAULT_CONFIG)
    for name, section in DEFAULT_CONFIG.items():
        if isinstance(section, dict):
            assert sorted(block[name]) == sorted(section), name
        else:
            assert block[name] == section, name
    load_config(write(tmp_path, text))


# each backticked "key: message" example of README's configuration rules, and
# a document that raises exactly that line
README_ERRORS = {
    "simulation: not a mapping, got 5": {"simulation": 5},
    "mixture.atoms[0].gamma: missing": {"mixture": {"atoms": [{"weight": 1.0}]}},
    "market.sigma[0].vale: unknown key":
        {"market": {"sigma": [{"t": 0.0, "value": 0.2, "vale": 0.3}]}},
    "market.sigma[0].t: missing": {"market": {"sigma": [{"value": 0.2}]}},
    "mixture.atoms: not a list of atoms, got 5": {"mixture": {"atoms": 5}},
    "verify: unknown section": {"verify": {}},
    "three_power.x_values: unknown key": {"three_power": {"x_values": [1.0]}},
    "simulation.grid_step: must be a number, got 'abc'":
        {"simulation": {"grid_step": "abc"}},
    "simulation.horizon: must be a number, got an integer beyond float range "
    "(1329 bits)": {"simulation": {"horizon": 10 ** 400}},
    "market.sigma[1][0]: must be a number, got True":
        {"market": {"n_stocks": 2, "d_w": 2, "sigma": [[0.2, 0.0], [True, 0.3]],
                    "mu": [0.04, 0.06]}},
    "market.mu[0].value: must be a number, got True":
        {"market": {"mu": [{"t": 0.0, "value": True}]}},
    "market.mu[1]: not a {t, value} knot, got 0.3":
        {"market": {"mu": [{"t": 0.0, "value": 0.1}, 0.3]}},
    "pool.lam: must be finite": {"pool": {"lam": float("nan")}},
    "market.sigma: non-finite value": {"market": {"sigma": float("inf")}},
    "simulation.n_paths: must be an integer, got 2.5": {"simulation": {"n_paths": 2.5}},
    "two_power.a_vol: must have 1 or d_w = 1 entries, got 2":
        {"two_power": {"a_vol": [0.1, 0.2]}},
    "mixture.h0.kind: unknown kind 'wavelet', choose from ['zero', 'constant', "
    "'portfolio_inversion']": {"mixture": {"h0": {"kind": "wavelet"}}},
    "mixture.h0.value: kind 'zero' does not read it": {"mixture": {"h0": {"value": [0.5]}}},
    "pool.preset: unknown preset 'fig9', choose from ['fig1', 'fig2', 'fig3', 'fig4']":
        {"pool": {"preset": "fig9"}},
    "pool.q: missing (without a preset, the section lacks q, a0, d0, lam, x0, horizon)":
        {"pool": {"preset": None, "p": 0.2}},
    "pool.a0: must be positive": {"pool": {"a0": -1.0}},
    "pool.horizon: must be a whole number of rebalance periods":
        {"pool": {"rebalance_dt": 0.7}},
    "market.d_w: must be at least 1, got 0": {"market": {"d_w": 0}},
    "market.d_w: must be at most 1000, got 1000000000000": {"market": {"d_w": 10 ** 12}},
    "market.sigma: needs numbers of shape (1, 2), got [[0.2, 0.1], [0.3]]":
        {"market": {"n_stocks": 2, "sigma": [[0.2, 0.1], [0.3]]}},
    "market.sigma: needs numbers of shape (1, 1), got [0.2, 0.3]":
        {"market": {"sigma": [0.2, 0.3]}},
    "two_power.a0: must be positive and finite": {"two_power": {"a0": -1.0}},
    "mixture.gamma0: 2.0 outside the atom range [0.5, 0.5]": {"mixture": {"gamma0": 2.0}},
    "mixture.atoms[0].weight: must be positive, got -1.0":
        {"mixture": {"atoms": [{"gamma": 0.5, "weight": -1.0}]}},
    "output_dir: must be a directory path, got ''": {"output_dir": ""},
}


def readme_configuration_errors():
    """The backticked ``key: message`` spans of README's Configuration section
    after its YAML block, each with its line breaks read as spaces."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rules = section.split("```yaml", 1)[1].split("```", 1)[1]
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", rules))
    return [span for span in spans if re.match(r"[a-z_]+(\.\w+|\[\d+\])*: ", span)]


def test_readme_configuration_errors_are_the_messages():
    # a reworded message fails here until README's example follows it
    assert sorted(readme_configuration_errors()) == sorted(README_ERRORS)
    for line, document in README_ERRORS.items():
        with pytest.raises(ConfigError) as err:
            load_config(overrides=document)
        assert str(err.value) == line


# numbers stay small; the market dimensions' upper bound has its own tests
SCALARS = st.one_of(st.floats(-10.0, 10.0), st.integers(-2, 3),
                    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, True, False,
                                     None, "", "abc", "constant", "fig1"]))
# flat, nested and ragged lists of scalars
ARRAYS = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
KNOTS = st.fixed_dictionaries({}, optional={"t": ARRAYS, "value": ARRAYS, "vale": SCALARS})
ATOMS = st.fixed_dictionaries({}, optional={"gamma": ARRAYS, "weight": ARRAYS})
KINDS = st.fixed_dictionaries({}, optional={
    "kind": st.one_of(st.sampled_from(["zero", "constant", "portfolio_inversion",
                                       "factor"]), ARRAYS),
    "value": ARRAYS, "rho": ARRAYS, "a": ARRAYS})
NODES = st.one_of(ARRAYS, KNOTS, ATOMS, KINDS,
                  st.lists(st.one_of(KNOTS, ATOMS, ARRAYS), max_size=3))


def sections(name):
    """A section of ``name``: any node, or (three times in four) a mapping of
    some of its keys and the unknown ``vale``, each holding any node or its
    default."""
    defaults = DEFAULT_CONFIG[name] if isinstance(DEFAULT_CONFIG[name], dict) else {}
    keys = set(defaults) | {"vale"}
    if name == "pool":
        keys |= {f.name for f in fields(PoolSpec)}
    values = {key: st.one_of(st.just(defaults[key]), NODES) if key in defaults else NODES
              for key in sorted(keys)}
    mapping = st.fixed_dictionaries({}, optional=values)
    return st.sampled_from([mapping] * 3 + [NODES]).flatmap(lambda node: node)


KNOWN = st.fixed_dictionaries({}, optional={name: sections(name) for name in DEFAULT_CONFIG})
# a quarter of the documents also hold a section outside DEFAULT_CONFIG
DOCUMENTS = st.sampled_from([KNOWN] * 3 + [
    st.builds(lambda document, name, node: {**document, name: node},
              KNOWN, st.sampled_from(["verify", "marketx"]), NODES)]).flatmap(lambda doc: doc)


@settings(max_examples=150, deadline=None)
@given(document=DOCUMENTS)
@example(document={"mixture": {"j": []}})
@example(document={"mixture": {"h0": ""}})
def test_any_document_loads_or_raises_one_keyed_line(document):
    # the only error load_config raises is a one-line ConfigError led by a
    # section of the document
    try:
        load_config(overrides=document)
    except ConfigError as exc:
        message = str(exc)
        assert "\n" not in message
        assert re.match(r"[^.\[:]+", message).group() in document, message

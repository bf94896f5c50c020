"""Configuration loading and validation for the experiment front end.

One YAML file with per-command sections; anything omitted falls back to the
bundled defaults, and the CLI's flags override both.  YAML syntax errors
surface with their line and column.  The merged settings are checked once:
unknown sections and keys are rejected with the full key path, and semantic
errors name the offending key.
"""

from __future__ import annotations

import copy
from dataclasses import MISSING, dataclass, fields, replace

import yaml

from .errors import ConfigError
from .market import MAX_STEPS, MarketSpec, check_positive
from .mixture import H0Spec, JSpec, RiskMixture
from .pooling import PoolSpec, preset as pool_preset
from .three_power import ThreePowerSpec
from .two_power import TwoPowerSpec

DEFAULT_CONFIG = {
    "market": {"n_stocks": 1, "d_w": 1, "d_wperp": 0, "sigma": 0.2, "mu": 0.04},
    "mixture": {
        "atoms": [{"gamma": 0.5, "weight": 1.0}],
        "gamma0": 0.5,
        "h0": {},  # H0Spec and JSpec default to their zero kind
        "j": {},
    },
    "two_power": {"p": 0.1, "q": 0.3, "a0": 1.0, "d0": 1.0,
                  "a_vol": [0.0], "d_vol": [0.0]},
    "pool": {"preset": "fig1"},
    "three_power": {"gamma": 0.25},
    "simulation": {"n_paths": 20000, "seed": 7, "grid_step": 1.0 / 252.0,
                   "horizon": 1.0},
    "output_dir": "out",
}

# the keys of each section: those of its defaults, and for pool every PoolSpec field
_ALLOWED = {name: set(section) for name, section in DEFAULT_CONFIG.items()
            if isinstance(section, dict)}
_ALLOWED["pool"] |= {f.name for f in fields(PoolSpec)}


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    seed: int
    grid_step: float
    horizon: float


@dataclass(frozen=True)
class RunConfig:
    market: MarketSpec
    mixture: RiskMixture
    two_power: TwoPowerSpec
    pool: PoolSpec
    pool_preset: str | None  # the named bundle behind ``pool``, if any
    three_power: ThreePowerSpec
    sim: SimulationConfig
    output_dir: str


def _mapping(path: str, node, allowed, required=(), what="a mapping") -> dict:
    """``node``, if it is a mapping whose keys lie in ``allowed`` and include
    every key of ``required``; the one shape check of every configuration node."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: not {what}, got {node!r}")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in node:
            raise ConfigError(f"{path}.{key}: missing")
    return node


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_yaml(path: str) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}: invalid YAML{where}: {exc.problem}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def _build(name: str, raw: dict, builder, *args):
    """``builder(raw[name], *args)``, once the section has passed ``_mapping``."""
    return builder(_mapping(name, raw[name], _ALLOWED[name]), *args)


def _keyed(path: str, build, *args, **kwargs):
    """``build(...)``, with a ValueError that names its field first keyed at ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _number(path: str, value):
    """``value`` if it is an int or a float, not a bool, that a float can hold;
    the spec checks its range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must be a number, got an integer beyond float "
                          f"range ({value.bit_length()} bits)") from None
    return value


def _numbers(path: str, value) -> None:
    """Check every number in ``value``: a number, or lists of them (a matrix),
    each keyed by its path."""
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _numbers(f"{path}[{i}]", item)
    else:
        _number(path, value)


def _schedule(path: str, value) -> None:
    """Check a market schedule: numbers (see ``_numbers``), or, when its first
    entry is a mapping, a list of knots, each a mapping with exactly the keys
    ``t`` (a number) and ``value`` (numbers)."""
    if not (isinstance(value, (list, tuple)) and value and isinstance(value[0], dict)):
        _numbers(path, value)
        return
    for i, knot in enumerate(value):
        knot_path = f"{path}[{i}]"
        _mapping(knot_path, knot, ("t", "value"), ("t", "value"), "a {t, value} knot")
        _number(f"{knot_path}.t", knot["t"])
        _numbers(f"{knot_path}.value", knot["value"])


def _integer(path: str, value) -> int:
    number = _number(path, value)  # an int or an integral float
    if isinstance(number, int) or number.is_integer():
        return int(number)
    raise ConfigError(f"{path}: must be an integer, got {value!r}")


def _market_from(cfg: dict) -> MarketSpec:
    dims = {k: _integer(f"market.{k}", cfg[k]) for k in ("n_stocks", "d_w", "d_wperp")}
    for key in ("sigma", "mu"):
        _schedule(f"market.{key}", cfg[key])
    return _keyed("market", MarketSpec, **{**cfg, **dims})


def _volatility_spec(cls, cfg, path: str, *dims):
    _mapping(path, cfg, {f.name for f in fields(cls)})
    for key, value in cfg.items():
        if key != "kind" and value is not None:
            _numbers(f"{path}.{key}", value)
    spec = _keyed(path, cls, **cfg)
    _keyed(path, spec.check, *dims)
    return spec


def _mixture_from(cfg: dict, market: MarketSpec) -> RiskMixture:
    if not isinstance(cfg["atoms"], list):
        raise ConfigError(f"mixture.atoms: not a list of atoms, got {cfg['atoms']!r}")
    atoms = []
    for i, atom in enumerate(cfg["atoms"]):
        path = f"mixture.atoms[{i}]"
        _mapping(path, atom, ("gamma", "weight"), ("gamma",))
        atoms.append((_number(f"{path}.gamma", atom["gamma"]),
                      _number(f"{path}.weight", atom.get("weight", 1.0))))
    mixture = _keyed("mixture", RiskMixture, atoms=tuple(atoms),
                     gamma0=_number("mixture.gamma0", cfg["gamma0"]))
    h0 = _volatility_spec(H0Spec, cfg["h0"], "mixture.h0", market)
    j = _volatility_spec(JSpec, cfg["j"], "mixture.j", market, mixture.n_atoms)
    return replace(mixture, h0=h0, j=j)


def _two_power_from(cfg: dict, market: MarketSpec) -> TwoPowerSpec:
    for key in ("p", "q", "a0", "d0"):
        _number(f"two_power.{key}", cfg[key])
    for key in ("a_vol", "d_vol"):
        _numbers(f"two_power.{key}", cfg[key])
    spec = _keyed("two_power", TwoPowerSpec, **cfg)
    _keyed("two_power", spec.check, market.d_w)
    return spec


def _pool_from(cfg: dict) -> PoolSpec:
    cfg = dict(cfg)
    name = cfg.pop("preset", None)
    for key, value in cfg.items():
        _number(f"pool.{key}", value)
    missing = [f.name for f in fields(PoolSpec)
               if f.default is MISSING and f.name not in cfg]
    if name is None and missing:
        raise ConfigError(f"pool.{missing[0]}: missing (without a preset, the "
                          f"section lacks {', '.join(missing)})")
    if name is None:
        return _keyed("pool", PoolSpec, **cfg)
    return _keyed("pool", pool_preset, name, **cfg)


def _three_power_from(cfg: dict) -> ThreePowerSpec:
    gamma = _number("three_power.gamma", cfg["gamma"])
    return _keyed("three_power", ThreePowerSpec, gamma=gamma)


def _simulation_from(cfg: dict) -> SimulationConfig:
    sim = SimulationConfig(
        n_paths=_integer("simulation.n_paths", cfg["n_paths"]),
        seed=_integer("simulation.seed", cfg["seed"]),
        grid_step=float(_number("simulation.grid_step", cfg["grid_step"])),
        horizon=float(_number("simulation.horizon", cfg["horizon"])))
    if sim.n_paths < 2:
        raise ConfigError("simulation.n_paths: must be at least 2")
    if not 0 <= sim.seed < 2 ** 64:
        raise ConfigError("simulation.seed: must be an integer in [0, 2^64)")
    _keyed("simulation", check_positive, grid_step=sim.grid_step, horizon=sim.horizon)
    if not sim.horizon / sim.grid_step <= MAX_STEPS:
        raise ConfigError(f"simulation.grid_step: horizon / grid_step must be at most "
                          f"{MAX_STEPS} steps")
    return sim


def load_config(path: str = None, overrides: dict = None) -> RunConfig:
    """Resolve every setting: defaults < the YAML file at ``path`` <
    ``overrides``, a dict shaped like the file (the CLI's flags)."""
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        raw = _deep_merge(raw, _parse_yaml(path))
    raw = _deep_merge(raw, overrides or {})
    for key in raw:
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"{key}: unknown section")

    market = _build("market", raw, _market_from)
    mixture = _build("mixture", raw, _mixture_from, market)
    two_power_spec = _build("two_power", raw, _two_power_from, market)
    pool_spec = _build("pool", raw, _pool_from)
    three_spec = _build("three_power", raw, _three_power_from)
    sim = _build("simulation", raw, _simulation_from)
    if not (isinstance(raw["output_dir"], str) and raw["output_dir"]):
        raise ConfigError(f"output_dir: must be a directory path, got {raw['output_dir']!r}")
    return RunConfig(market=market, mixture=mixture,
                     two_power=two_power_spec, pool=pool_spec,
                     pool_preset=raw["pool"].get("preset"),
                     three_power=three_spec, sim=sim,
                     output_dir=raw["output_dir"])

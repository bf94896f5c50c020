"""Configuration loading and validation for the experiment front end.

One YAML file with per-command sections; anything omitted falls back to the
bundled defaults.  Unknown keys are rejected with the full key path, YAML
syntax errors surface with their line and column, and semantic errors name
the offending key.
"""

from __future__ import annotations

import copy
import math
from dataclasses import MISSING, dataclass, fields, replace

import yaml

from .errors import ConfigError
from .market import MAX_STEPS, MarketSpec
from .mixture import H0Spec, JSpec, RiskMixture
from .pooling import POOL_PRESETS, PoolSpec, preset as pool_preset
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
                  "a_vol": [0.0], "d_vol": [0.0], "a_perp": [], "d_perp": []},
    "pool": {"preset": "fig1"},
    "three_power": {"gamma": 0.25, "x_values": [0.5, 1.0, 2.0]},
    "simulation": {"n_paths": 20000, "seed": 7, "grid_step": 1.0 / 252.0,
                   "horizon": 1.0},
    "verify": {"perturbed_scale": 2.0},
    "output_dir": "out",
}

# named bundles pinning whole market + mixture sections (power_base: the defaults)
MIXTURE_PRESETS = {
    "power_base": {key: DEFAULT_CONFIG[key] for key in ("market", "mixture")},
}

# the keys of each section: those of its defaults, and for pool every PoolSpec field
_ALLOWED = {name: set(section) for name, section in DEFAULT_CONFIG.items()
            if isinstance(section, dict)}
_ALLOWED["pool"] |= {f.name for f in fields(PoolSpec)}
_ALLOWED_ATOM = {"gamma", "weight"}
_ALLOWED_KNOT = {"t", "value"}


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
    three_power_x: tuple[float, ...]
    sim: SimulationConfig
    perturbed_scale: float
    output_dir: str


def _reject_unknown(section: dict, allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


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
    """``builder(raw[name], *args)``; unknown keys and errors are keyed at ``name``."""
    try:
        _reject_unknown(raw[name], _ALLOWED[name], name)
        return builder(raw[name], *args)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


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
        if not isinstance(knot, dict):
            raise ConfigError(f"{knot_path}: not a {{t, value}} knot, got {knot!r}")
        _reject_unknown(knot, _ALLOWED_KNOT, knot_path)
        missing = sorted(_ALLOWED_KNOT - knot.keys())
        if missing:
            raise ConfigError(f"{knot_path}.{missing[0]}: missing")
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
    return MarketSpec(**{**cfg, **dims})


def _volatility_spec(cls, cfg: dict, path: str, *dims):
    _reject_unknown(cfg, {f.name for f in fields(cls)}, path)
    for key, value in cfg.items():
        if key != "kind" and value is not None:
            _numbers(f"{path}.{key}", value)
    spec = _keyed(path, cls, **cfg)
    _keyed(path, spec.check, *dims)
    return spec


def _mixture_from(cfg: dict, market: MarketSpec) -> RiskMixture:
    atoms = []
    for i, atom in enumerate(cfg["atoms"]):
        path = f"mixture.atoms[{i}]"
        _reject_unknown(atom, _ALLOWED_ATOM, path)
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
    for key in ("a_vol", "d_vol", "a_perp", "d_perp"):
        _numbers(f"two_power.{key}", cfg[key])
    spec = _keyed("two_power", TwoPowerSpec, **cfg)
    _keyed("two_power", spec.check, market.d_w)
    return spec


def _pool_from(cfg: dict) -> PoolSpec:
    cfg = dict(cfg)
    name = cfg.pop("preset", None)
    for key, value in cfg.items():
        _number(f"pool.{key}", value)
    if name is not None and name not in POOL_PRESETS:
        raise ConfigError(f"pool.preset: unknown preset {name!r}, "
                          f"choose from {sorted(POOL_PRESETS)}")
    missing = [f.name for f in fields(PoolSpec)
               if f.default is MISSING and f.name not in cfg]
    if name is None and missing:
        raise ConfigError(f"pool.{missing[0]}: missing (without a preset, the "
                          f"section lacks {', '.join(missing)})")
    if name is None:
        return _keyed("pool", PoolSpec, **cfg)
    return _keyed("pool", pool_preset, name, **cfg)


def _three_power_from(cfg: dict) -> tuple[ThreePowerSpec, tuple[float, ...]]:
    gamma = _number("three_power.gamma", cfg["gamma"])
    spec = _keyed("three_power", ThreePowerSpec, gamma=gamma)
    xs = tuple(float(_number(f"three_power.x_values[{i}]", v))
               for i, v in enumerate(cfg["x_values"]))
    if not all(0 < v < math.inf for v in xs):
        raise ConfigError("three_power.x_values: wealth values must be positive "
                          "and finite")
    return spec, xs


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
    for key in ("grid_step", "horizon"):
        if not 0 < getattr(sim, key) < math.inf:
            raise ConfigError(f"simulation.{key}: must be positive and finite")
    if not sim.horizon / sim.grid_step <= MAX_STEPS:
        raise ConfigError(f"simulation.grid_step: horizon / grid_step must be at most "
                          f"{MAX_STEPS} steps")
    return sim


def _perturbed_scale_from(cfg: dict) -> float:
    scale = float(_number("verify.perturbed_scale", cfg["perturbed_scale"]))
    if not 0 <= scale < math.inf:
        raise ConfigError("verify.perturbed_scale: must be nonnegative and finite")
    return scale


def load_config(path: str = None, overrides: dict = None) -> RunConfig:
    """Resolve every setting: defaults < file < ``overrides["preset"]`` (a
    ``MIXTURE_PRESETS`` bundle) < the rest of ``overrides``, shaped like the file."""
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        user = _parse_yaml(path)
        for key in user:
            if key != "output_dir" and key not in _ALLOWED:
                raise ConfigError(f"{key}: unknown section")
        raw = _deep_merge(raw, user)
    overrides = dict(overrides or {})
    preset = overrides.pop("preset", None)
    if preset is not None:
        if preset not in MIXTURE_PRESETS:
            raise ConfigError(f"preset: unknown preset {preset!r}, "
                              f"choose from {sorted(MIXTURE_PRESETS)}")
        raw.update(copy.deepcopy(MIXTURE_PRESETS[preset]))
    raw = _deep_merge(raw, overrides)

    market = _build("market", raw, _market_from)
    mixture = _build("mixture", raw, _mixture_from, market)
    two_power_spec = _build("two_power", raw, _two_power_from, market)
    pool_spec = _build("pool", raw, _pool_from)
    three_spec, three_x = _build("three_power", raw, _three_power_from)
    sim = _build("simulation", raw, _simulation_from)
    scale = _build("verify", raw, _perturbed_scale_from)
    return RunConfig(market=market, mixture=mixture,
                     two_power=two_power_spec, pool=pool_spec,
                     pool_preset=raw["pool"].get("preset"),
                     three_power=three_spec, three_power_x=three_x, sim=sim,
                     perturbed_scale=scale, output_dir=str(raw["output_dir"]))

"""Configuration loading and validation for the experiment front end.

One YAML file with per-command sections; anything omitted falls back to the
bundled defaults.  Unknown keys are rejected with the full key path, YAML
syntax errors surface with their line and column, and semantic errors name
the offending key.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import yaml

from .errors import ConfigError
from .market import MAX_STEPS, MarketSpec
from .mixture import H0Spec, JSpec, RiskMixture, VolatilityChoice
from .pooling import POOL_PRESETS, PoolSpec, preset as pool_preset
from .three_power import ThreePowerSpec
from .two_power import TwoPowerSpec

DEFAULT_CONFIG = {
    "market": {"n_stocks": 1, "d_w": 1, "d_wperp": 0, "sigma": 0.2, "mu": 0.04},
    "mixture": {
        "atoms": [{"gamma": 0.5, "weight": 1.0}],
        "gamma0": 0.5,
        "h0": {"kind": "zero"},
        "j": {"kind": "zero"},
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

# named bundles pinning whole market + mixture sections
MIXTURE_PRESETS = {
    "power_base": {
        "market": {"n_stocks": 1, "d_w": 1, "d_wperp": 0, "sigma": 0.2, "mu": 0.04},
        "mixture": {
            "atoms": [{"gamma": 0.5, "weight": 1.0}],
            "gamma0": 0.5,
            "h0": {"kind": "zero"},
            "j": {"kind": "zero"},
        },
    },
}

_ALLOWED = {
    "market": {"n_stocks", "d_w", "d_wperp", "sigma", "mu"},
    "mixture": {"atoms", "gamma0", "h0", "j"},
    "two_power": {"p", "q", "a0", "d0", "a_vol", "d_vol", "a_perp", "d_perp"},
    "pool": {"preset", "p", "q", "a0", "d0", "lam", "x0", "horizon", "rebalance_dt"},
    "three_power": {"gamma", "x_values"},
    "simulation": {"n_paths", "seed", "grid_step", "horizon"},
    "verify": {"perturbed_scale"},
}
_ALLOWED_H0 = {"kind", "value"}
_ALLOWED_J = {"kind", "value", "rho", "a"}
_ALLOWED_ATOM = {"gamma", "weight"}


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
    vol: VolatilityChoice
    two_power: TwoPowerSpec
    pool: PoolSpec
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


def _build(section_name, builder, *args):
    try:
        return builder(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{section_name}: {exc}") from exc


def _market_from(cfg: dict) -> MarketSpec:
    _reject_unknown(cfg, _ALLOWED["market"], "market")
    return MarketSpec(n_stocks=cfg["n_stocks"], d_w=cfg["d_w"],
                      d_wperp=cfg["d_wperp"], sigma=cfg["sigma"], mu=cfg["mu"])


def _mixture_from(cfg: dict) -> tuple[RiskMixture, VolatilityChoice]:
    _reject_unknown(cfg, _ALLOWED["mixture"], "mixture")
    atoms = []
    for i, atom in enumerate(cfg["atoms"]):
        _reject_unknown(atom, _ALLOWED_ATOM, f"mixture.atoms[{i}]")
        atoms.append((atom["gamma"], atom.get("weight", 1.0)))
    try:
        mixture = RiskMixture(atoms=tuple(atoms), gamma0=cfg["gamma0"])
    except ValueError as exc:
        raise ConfigError(f"mixture: {exc}") from exc

    h0_cfg = cfg.get("h0", {"kind": "zero"})
    _reject_unknown(h0_cfg, _ALLOWED_H0, "mixture.h0")
    kind = h0_cfg.get("kind", "zero")
    if kind == "zero":
        h0 = H0Spec.zero()
    elif kind == "constant":
        h0 = H0Spec.constant(h0_cfg["value"])
    elif kind == "portfolio_inversion":
        h0 = H0Spec.portfolio_inversion(h0_cfg["value"])
    else:
        raise ConfigError(f"mixture.h0.kind: unknown kind {kind!r}")

    j_cfg = cfg.get("j", {"kind": "zero"})
    _reject_unknown(j_cfg, _ALLOWED_J, "mixture.j")
    jkind = j_cfg.get("kind", "zero")
    if jkind == "zero":
        j = JSpec.zero()
    elif jkind == "constant":
        j = JSpec.constant(j_cfg["value"])
    elif jkind == "factor":
        j = JSpec.factor(j_cfg["rho"], j_cfg["a"])
    else:
        raise ConfigError(f"mixture.j.kind: unknown kind {jkind!r}")
    return mixture, VolatilityChoice(h0=h0, j=j)


def _two_power_from(cfg: dict) -> TwoPowerSpec:
    _reject_unknown(cfg, _ALLOWED["two_power"], "two_power")
    return TwoPowerSpec(p=cfg["p"], q=cfg["q"], a0=cfg["a0"], d0=cfg["d0"],
                        a_vol=cfg["a_vol"], d_vol=cfg["d_vol"],
                        a_perp=cfg["a_perp"], d_perp=cfg["d_perp"])


def _pool_from(cfg: dict) -> PoolSpec:
    _reject_unknown(cfg, _ALLOWED["pool"], "pool")
    cfg = dict(cfg)
    name = cfg.pop("preset", None)
    if name is not None and name not in POOL_PRESETS:
        raise ConfigError(f"pool.preset: unknown preset {name!r}, "
                          f"choose from {sorted(POOL_PRESETS)}")
    if name is not None:
        return pool_preset(name, **cfg)
    return PoolSpec(**cfg)


def _three_power_from(cfg: dict) -> tuple[ThreePowerSpec, tuple[float, ...]]:
    _reject_unknown(cfg, _ALLOWED["three_power"], "three_power")
    spec = ThreePowerSpec(gamma=cfg["gamma"])
    xs = tuple(float(v) for v in cfg.get("x_values", [1.0]))
    if any(v <= 0 for v in xs):
        raise ConfigError("three_power.x_values: wealth values must be positive")
    return spec, xs


def _simulation_from(cfg: dict) -> SimulationConfig:
    _reject_unknown(cfg, _ALLOWED["simulation"], "simulation")
    sim = SimulationConfig(n_paths=int(cfg["n_paths"]), seed=int(cfg["seed"]),
                           grid_step=float(cfg["grid_step"]),
                           horizon=float(cfg["horizon"]))
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


def apply_mixture_preset(raw: dict, name: str) -> dict:
    if name not in MIXTURE_PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}, "
                          f"choose from {sorted(MIXTURE_PRESETS)}")
    return _deep_merge(raw, MIXTURE_PRESETS[name])


def load_config(path: str = None, overrides: dict = None,
                mixture_preset: str = None) -> RunConfig:
    """Assemble the run configuration from defaults, file, and CLI overrides."""
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        user = _parse_yaml(path)
        for key in user:
            if key != "output_dir" and key not in _ALLOWED:
                raise ConfigError(f"{key}: unknown section")
        raw = _deep_merge(raw, user)
    if mixture_preset is not None:
        raw = apply_mixture_preset(raw, mixture_preset)
    if overrides:
        raw = _deep_merge(raw, overrides)

    market = _build("market", _market_from, raw["market"])
    mixture, vol = _build("mixture", _mixture_from, raw["mixture"])
    two_power_spec = _build("two_power", _two_power_from, raw["two_power"])
    pool_spec = _build("pool", _pool_from, raw["pool"])
    three_spec, three_x = _build("three_power", _three_power_from, raw["three_power"])
    sim = _build("simulation", _simulation_from, raw["simulation"])
    _reject_unknown(raw["verify"], _ALLOWED["verify"], "verify")
    scale = float(raw["verify"]["perturbed_scale"])
    if scale < 0:
        raise ConfigError("verify.perturbed_scale: must be nonnegative")
    return RunConfig(market=market, mixture=mixture, vol=vol,
                     two_power=two_power_spec, pool=pool_spec,
                     three_power=three_spec, three_power_x=three_x, sim=sim,
                     perturbed_scale=scale, output_dir=str(raw["output_dir"]))

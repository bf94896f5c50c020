"""Configuration-driven command line front end.

Commands
--------
verify-fpp            martingale/supermartingale reports and a structure scan
                      for the configured mixture criterion
pool surface          closed-form expected-utility surface over (z, t)
pool optimize         best constant proportion and all local maxima
pool compare          three-strategy comparison on common random numbers
two-power drifts      consistency drifts of the coefficient processes
two-power gap         consistency gap and whether the sum is a criterion
two-power dual        closed-form dual maximiser of the double-aversion family
two-power validate    monotonicity checks on sampled power paths
three-power           discriminant table, sample paths, martingale check

Settings resolve once, in ``config.load_config``: defaults < --config file <
the flags, which are overrides of configuration keys (--out sets output_dir,
--preset pool.preset).  Exit codes: 0 success, 1 check failure, 2
configuration error.  All CSV output is byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import pooling, two_power
from .config import RunConfig, load_config
from .errors import ConfigError, FpplabError
from .market import TimeGrid, brownian_batch, write_paths_csv
from .mixture import MixtureFpp, mixture_value
from .three_power import ThreePowerFpp, concavity_discriminants, three_power_value
from .verify import MartingaleReport, martingale_test, structure_scan

N_SAMPLE_PATHS = 4  # paths dumped to per-path CSVs
PERTURBED_SCALE = 2.0  # verify-fpp's perturbed run holds this multiple of sp_star
SAMPLE_WEALTH = (0.5, 1.0, 2.0)  # three-power's per-path CSV evaluates U here


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _write_csv(path, header, rows):
    """Write ``header`` and then ``rows``, any iterable, as they come: callers
    pass generators, so no output table is held whole."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report_csv(path, report: MartingaleReport):
    margins = report.margins()
    rows = ([_fmt(t), _fmt(report.mean[k]), _fmt(report.se[k]),
             _fmt(report.reference), _fmt(margins[k])]
            for k, t in enumerate(report.t_grid))
    _write_csv(path, ["t", "mean", "se", "reference", "margin"], rows)


# ---------------------------------------------------------------------------
# verify-fpp
# ---------------------------------------------------------------------------

def cmd_verify_fpp(cfg: RunConfig, out_dir: str, threads: int) -> int:
    grid = TimeGrid.regular(cfg.sim.horizon, cfg.sim.grid_step)
    fpp = MixtureFpp(cfg.mixture, cfg.market, grid)

    runs = [("pi_star", fpp.sp_star, "martingale"),
            ("null", np.zeros_like(fpp.sp_star), "supermartingale"),
            ("perturbed", PERTURBED_SCALE * fpp.sp_star, "supermartingale")]
    reports = martingale_test(fpp, [(sp, mode) for _, sp, mode in runs],
                              n_paths=cfg.sim.n_paths, seed=cfg.sim.seed,
                              threads=threads)
    for (name, _, _), report in zip(runs, reports):
        _write_report_csv(os.path.join(out_dir, f"verify_{name}.csv"), report)
        print(f"{name}:")
        print(report.to_text())
    ok = all(report.passed for report in reports)

    # structural scan over states sampled from a small ensemble
    dw, dwp = brownian_batch(grid, cfg.market.d_w, cfg.market.d_wperp,
                             cfg.sim.seed, range(8))
    m, qv, v = fpp.state_paths(dw, dwp), fpp.qv, fpp.v
    # states in path order, each at mid-horizon and then at the horizon
    paths = np.repeat(np.arange(m.shape[2]), 2)
    times = np.tile([grid.n_steps // 2, grid.n_steps], m.shape[2])
    x_grid = np.geomspace(0.05, 20.0, 25)
    values = mixture_value(cfg.mixture.gammas, cfg.mixture.weights, np.log(x_grid),
                           m[:, times, paths, None], qv[:, times, None], v[:, times, None])
    scan = structure_scan(values, x_grid)
    print(scan.to_text())
    ok = ok and scan.passed

    # per-path criterion states, and U at wealth 1, for a handful of paths
    sample_ids = range(min(N_SAMPLE_PATHS, m.shape[2]))
    u = fpp.utility_paths(m, np.zeros(m.shape[1:]))
    rows = ([pid, _fmt(t), a, _fmt(m[a, k, b]), _fmt(qv[a, k]), _fmt(v[a, k]),
             _fmt(u[k, b])]
            for b, pid in enumerate(sample_ids) for k, t in enumerate(grid.times)
            for a in range(cfg.mixture.n_atoms))
    _write_csv(os.path.join(out_dir, "fpp_states.csv"),
               ["path_id", "t", "atom", "m", "qv_m", "v", "utility"], rows)
    write_paths_csv(os.path.join(out_dir, "brownian_paths.csv"), grid,
                    dw[:, :, :len(sample_ids)], dwp[:, :, :len(sample_ids)], sample_ids)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------

def cmd_pool(cfg: RunConfig, out_dir: str, subaction: str, t_flag) -> int:
    spec = cfg.pool
    label = cfg.pool_preset or "config"
    if subaction == "surface":
        z_grid = np.linspace(0.01, 0.99, 100)
        t_grid = np.arange(1.0, np.floor(spec.horizon) + 0.5, 1.0)  # whole years
        if t_grid.size == 0:
            raise ConfigError(f"pool.horizon: the surface needs a horizon of at least 1, "
                              f"got {spec.horizon:g}")
        surface = pooling.utility_surface(spec, z_grid, t_grid)
        rows = ([_fmt(z), _fmt(t), _fmt(surface.values[i, j])]
                for i, t in enumerate(t_grid) for j, z in enumerate(z_grid))
        path = os.path.join(out_dir, f"pool_surface_{label}.csv")
        _write_csv(path, ["z", "t", "value"], rows)
        print(f"surface written to {path}")
        return 0
    if subaction == "optimize":
        t = t_flag if t_flag is not None else spec.horizon
        try:
            result = pooling.optimize_constant_z(spec, t)
        except ValueError as exc:  # the error names the argument, t
            raise ConfigError(f"--{exc}") from exc

        def shown(log_value):  # the log where the value is not a normal float
            with np.errstate(over="ignore"):
                value = np.exp(log_value)
            normal = np.finfo(float).tiny <= value < np.inf
            return ("value", value) if normal else ("log value", log_value)

        print("z_star = {:.6f} ({} {:.9g}) at t = {:g}".format(
            result.z_star, *shown(result.log_value), t))
        for z, log_value in result.local_maxima:
            print("  local maximum: z = {:.6f}, {} = {:.9g}".format(z, *shown(log_value)))
        return 0
    result = pooling.compare_strategies(spec, n_paths=cfg.sim.n_paths,
                                        seed=cfg.sim.seed)
    rows = ([_fmt(t), name, _fmt(stats.mean_utility[k]), _fmt(stats.se_utility[k]),
             _fmt(stats.mean_allocation[k]) if k < stats.mean_allocation.size else ""]
            for name, stats in result.strategies.items()
            for k, t in enumerate(result.t_grid))
    path = os.path.join(out_dir, f"pool_comparison_{label}.csv")
    _write_csv(path, ["t", "strategy", "mean_utility", "se", "mean_allocation"],
               rows)
    print(f"comparison written to {path} (z_star = {result.z_star:.6f})")
    return 0


# ---------------------------------------------------------------------------
# two-power
# ---------------------------------------------------------------------------

def cmd_two_power(cfg: RunConfig, subaction: str, y_flag, gamma_flag,
                  file_flag) -> int:
    spec = cfg.two_power
    lam = cfg.market.sharpe_at(0.0)
    if subaction == "drifts":
        alpha, delta = two_power.coefficient_drifts(spec.p, spec.q, lam,
                                                    spec.a_vol, spec.d_vol)
        print(f"alpha = {alpha:.9g}")
        print(f"delta = {delta:.9g}")
        return 0
    if subaction == "gap":
        gap = two_power.consistency_gap(spec.p, spec.q, lam, spec.a_vol, spec.d_vol)
        print(f"consistency gap = {gap:.12g}")
        print("FPP: yes" if gap < 1e-12 else "FPP: no")
        return 0
    if subaction == "dual":
        if y_flag is None:
            raise ConfigError("two-power dual requires --y")
        gamma = gamma_flag if gamma_flag is not None else 0.25
        try:
            x_star, value = two_power.legendre_dual(y_flag, spec.a0, spec.d0, gamma)
        except ValueError as exc:  # the error names the argument, y or gamma
            raise ConfigError(f"--{exc}") from exc
        print(f"x_star = {x_star:.12g}")
        print(f"dual value = {value:.12g}")
        return 0
    if file_flag is None:
        raise ConfigError("two-power validate requires --file")
    p_path, q_path = _read_power_paths(file_flag)
    report = two_power.validate_power_paths(p_path, q_path)
    print(report.to_text())
    return 0 if report.ok else 1


def _read_power_paths(path):
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"p", "q"} <= set(reader.fieldnames):
                raise ConfigError(f"{path}: need columns 'p' and 'q'")
            p_path, q_path = [], []
            for row in reader:
                try:
                    p, q = float(row["p"]), float(row["q"])
                except (TypeError, ValueError):
                    p = q = np.nan
                if not (np.isfinite(p) and np.isfinite(q)):
                    raise ConfigError(f"{path}: line {reader.line_num}: need finite "
                                      f"numbers in 'p' and 'q'")
                p_path.append(p)
                q_path.append(q)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not p_path:
        raise ConfigError(f"{path}: no p, q rows")
    return p_path, q_path


# ---------------------------------------------------------------------------
# three-power
# ---------------------------------------------------------------------------

def cmd_three_power(cfg: RunConfig, out_dir: str, threads: int) -> int:
    spec = cfg.three_power
    grid_gammas = np.linspace(1.0 / 3.0 / 51.0, 1.0 / 3.0 * 50.0 / 51.0, 50)
    rows = ([_fmt(g), *map(_fmt, concavity_discriminants(float(g)))]
            for g in grid_gammas)
    disc_path = os.path.join(out_dir, "three_power_discriminants.csv")
    _write_csv(disc_path, ["gamma", "disc_monotone", "disc_concave"], rows)
    mono, conc = concavity_discriminants(spec.gamma)
    print(f"gamma = {spec.gamma:g}: discriminants ({mono:.9g}, {conc:.9g})")

    grid = TimeGrid.regular(cfg.sim.horizon, cfg.sim.grid_step)
    fpp = ThreePowerFpp(spec, cfg.market, grid)

    [report] = martingale_test(fpp, [(fpp.sp_star, "martingale")],
                               n_paths=cfg.sim.n_paths, seed=cfg.sim.seed,
                               threads=threads)
    _write_report_csv(os.path.join(out_dir, "three_power_martingale.csv"), report)
    print(f"martingale check at the optimiser: {report.verdict}")

    dw, _ = brownian_batch(grid, cfg.market.d_w, cfg.market.d_wperp,
                           cfg.sim.seed, range(N_SAMPLE_PATHS))
    z = np.exp(fpp.accumulators(dw)[0])
    u = three_power_value(np.array(SAMPLE_WEALTH), z[:, :, None],
                          fpp.i_path[:, None, None], spec)
    rows = ([b, _fmt(t), _fmt(z[k, b]), _fmt(fpp.i_path[k]), *map(_fmt, u[k, b])]
            for b in range(dw.shape[2]) for k, t in enumerate(grid.times))
    header = ["path_id", "t", "Z", "I"] + [f"U_x={x:g}" for x in SAMPLE_WEALTH]
    _write_csv(os.path.join(out_dir, "three_power_paths.csv"), header, rows)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Register the shared flags; they are accepted before or after a command."""
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", metavar="PATH",
                        help="YAML configuration file", **kw)
    parser.add_argument("--seed", type=int, help="override simulation.seed", **kw)
    parser.add_argument("--paths", type=int, help="override simulation.n_paths", **kw)
    parser.add_argument("--out", metavar="DIR", help="override output_dir", **kw)
    parser.add_argument("--threads", type=int,
                        help="worker pool size (results do not depend on it)",
                        **(kw if suppress else {"default": os.cpu_count()}))
    parser.add_argument("--preset", metavar="NAME",
                        help="override pool.preset (fig1..fig4)", **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpplab",
        description="simulation and verification lab for power-mixture "
                    "forward performance criteria")
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    verify_p = sub.add_parser("verify-fpp", help="martingale and structure checks")
    pool_p = sub.add_parser("pool", help="pooled-investment analysis")
    pool_p.add_argument("subaction", choices=["surface", "optimize", "compare"])
    pool_p.add_argument("--t", type=float, help="horizon for optimize")
    tp = sub.add_parser("two-power", help="two-power mixture tools")
    tp.add_argument("subaction", choices=["drifts", "gap", "dual", "validate"])
    tp.add_argument("--y", type=float, help="marginal utility for dual")
    tp.add_argument("--gamma", type=float, help="aversion for dual")
    tp.add_argument("--file", help="CSV of power paths for validate")
    th = sub.add_parser("three-power", help="signed three-power construction")
    th.add_argument("--gamma", type=float, help="override three_power.gamma")
    for sp in (verify_p, pool_p, tp, th):
        _add_global_flags(sp, suppress=True)
    return parser


# (command, flag) -> the one subaction that reads the flag; anywhere else it is an error
SUBACTION_FLAGS = {("pool", "t"): "optimize", ("two-power", "y"): "dual",
                   ("two-power", "gamma"): "dual", ("two-power", "file"): "validate"}


def _overrides(args) -> dict:
    """The flags that set configuration keys, as a ``load_config`` overrides dict."""
    for (command, flag), subaction in SUBACTION_FLAGS.items():
        if (args.command == command and getattr(args, flag) is not None
                and args.subaction != subaction):
            raise ConfigError(f"--{flag}: {command} {args.subaction} does not read it "
                              f"(it applies to {command} {subaction})")
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads: must be at least 1, got {args.threads}")
    overrides = {}
    if args.seed is not None:
        overrides.setdefault("simulation", {})["seed"] = args.seed
    if args.paths is not None:
        overrides.setdefault("simulation", {})["n_paths"] = args.paths
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.preset is not None:
        if args.command != "pool":
            raise ConfigError(f"--preset: {args.command} takes no preset "
                              f"(presets apply to pool)")
        overrides["pool"] = {"preset": args.preset}
    if args.command == "three-power" and args.gamma is not None:
        overrides["three_power"] = {"gamma": args.gamma}
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=_overrides(args))
        out_dir = cfg.output_dir
        if args.command == "verify-fpp":
            return cmd_verify_fpp(cfg, out_dir, args.threads)
        if args.command == "pool":
            return cmd_pool(cfg, out_dir, args.subaction, args.t)
        if args.command == "two-power":
            return cmd_two_power(cfg, args.subaction, args.y, args.gamma, args.file)
        return cmd_three_power(cfg, out_dir, args.threads)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FpplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

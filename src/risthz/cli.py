"""Command-line entry point.

Subcommands: solve, feasibility, blockage-sweep, misalignment-sweep,
strict-hc, queue-sim, oracle-check, config.  Every experiment writes a
CSV (RFC-4180, shortest round-trip float formatting) plus a JSON run
manifest; re-running from a manifest reproduces the CSV byte-for-byte.
``main`` and ``run_from_manifest`` share ``_run``, which resolves the
config once (a replay's from the manifest, in memory) and calls the
subcommand's handler as ``handler(args, cfg)``.

Exit codes: 0 success, 1 config or usage error, 2 numerical
non-convergence, 3 infeasibility (``strict-hc``: after writing all points).

A run imports only what its subcommand uses: each handler imports the
solver, the sweep drivers or numpy itself, so ``config``, ``solve`` and
the solver sweeps start without numpy, and only ``queue-sim`` and
``oracle-check`` load it.  ``_run`` checks ``--jobs``, which only
``queue-sim``'s process pool uses and ``feasibility`` accepts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import __version__
from .channel import derive_link_budget
from .config import (
    DEFAULT_N_SLOTS,
    MIN_DIAGNOSTIC_SLOTS,
    SCHEMES,
    STRICT_HC_ALPHA_MIN,
    STRICT_HC_TARGET,
    ConfigError,
    SystemConfig,
    default_config_text,
    load_config,
    parse_config_text,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INFEASIBLE = 3
MAX_GRID_POINTS = 100_000  # the most points a start:step:end grid may hold


def _usable_cores() -> int:
    """CPUs this process may run on (``os.cpu_count()`` counts the host's,
    which oversubscribes under a cpuset)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def parse_grid(spec: str) -> list[float]:
    """Parse a ``start:step:end`` grid specification (end inclusive).

    Point i is the float nearest the exact decimal start + i step of the
    spec text, so ``0:0.1:1`` holds 0.3, not 0.1 + 0.1 + 0.1 rounded.
    A grid of more than ``MAX_GRID_POINTS`` points, or with a nonzero
    part that underflows a double, raises ``ConfigError`` before any
    point is built.
    """
    parts = spec.split(":")
    try:
        start, step_, end = (float(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}, expected start:step:end") from exc
    if not all(map(math.isfinite, (start, step_, end))):
        raise ConfigError(f"bad grid spec {spec!r}: start, step and end must be finite")
    # imported here: decimal costs ~2 ms, and only grid options need it
    from decimal import Decimal, InvalidOperation
    from fractions import Fraction

    try:
        exact = [Decimal(x) for x in parts]
    except InvalidOperation:  # an exponent beyond decimal's own range
        raise ConfigError(f"bad grid spec {spec!r}: exponent out of range") from None
    # the float step: a positive step that rounds to 0 would never reach end
    if step_ <= 0 or exact[2] < exact[0]:
        raise ConfigError(f"bad grid spec {spec!r}: need step > 0 and end >= start")
    for x, value, dec in zip(parts, (start, step_, end), exact):
        if value == 0 and dec != 0:  # reads as 0.0; its exact Fraction takes seconds
            raise ConfigError(f"bad grid spec {spec!r}: {x} underflows a double")
    x0, dx, x1 = map(Fraction, exact)
    n = (x1 - x0) // dx + 1
    if n > MAX_GRID_POINTS:
        raise ConfigError(f"bad grid spec {spec!r}: {Decimal(n):.6g} points, "
                          f"more than {MAX_GRID_POINTS}")
    return [float(x0 + i * dx) for i in range(n)]


def _write_manifest(args, cfg: SystemConfig) -> None:
    """Record the run beside its ``--out`` file for ``run_from_manifest``."""
    from .experiments import config_hash

    manifest = {
        "experiment": args.command,
        "config": cfg.as_dict(),
        "args": {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "config", "command", "out", "_t0")
            and v is not None
        },
        "outputs": [args.out],
        "version": __version__,
        "config_hash": config_hash(cfg),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "wall_time_s": time.time() - args._t0,
    }
    if "seed" in vars(args):
        manifest["seed"] = args.seed
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(write, args, cfg: SystemConfig) -> None:
    """``write(path)`` the output to ``--out`` with its manifest beside it,
    or ``write(None)`` to stdout; an unwritable path raises ``ConfigError``."""
    if not args.out:
        return write(None)
    try:
        write(args.out)
        _write_manifest(args, cfg)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or args.out}: "
                          f"{exc.strerror or exc}") from None


def cmd_config(args, cfg: SystemConfig) -> int:
    if args.show_defaults:
        sys.stdout.write(default_config_text())
    else:
        json.dump(cfg.as_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_solve(args, cfg: SystemConfig) -> int:
    from .optimizer import sca_solve

    budget = derive_link_budget(cfg)
    hook = None
    if args.trace:
        def hook(it, obj, mu, p):
            line = {
                "iteration": it,
                "objective": obj,
                "mu": [mu.mu_h_01, mu.mu_h_10, mu.mu_h_11, mu.mu_l],
                "p": [p.p_h_d, p.p_h_r, p.p_l_d, p.p_l_r],
            }
            print(json.dumps(line), file=sys.stderr)
    res = sca_solve(cfg, budget, trace_hook=hook)
    payload = {
        "p": asdict(res.p),
        "R_h": res.R.R_h,
        "R_l": res.R.R_l,
        "delta_h": _jsonable(res.delta[0]),
        "delta_l": _jsonable(res.delta[1]),
        "objective": _jsonable(res.objective),
        "iterations": res.iterations,
        "converged": res.converged,
    }
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        _emit(lambda path: Path(path).write_text(text, encoding="utf-8"), args, cfg)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _jsonable(x: float):
    return x if math.isfinite(x) else repr(x)


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ConfigError(f"{flag} must be >= {least}, got {value}")


def cmd_sweep(sweep: str, grid_dest: str, args, cfg: SystemConfig) -> int:
    """``experiments.<sweep>(cfg, grid)`` over the grid option
    ``grid_dest``; the driver is looked up on every call, so a caller
    that replaced the module attribute gets its replacement."""
    from . import experiments

    grid = parse_grid(getattr(args, grid_dest))
    _emit(getattr(experiments, sweep)(cfg, grid).write_csv, args, cfg)
    return EXIT_OK


def cmd_strict_hc(args, cfg: SystemConfig) -> int:
    from .experiments import strict_hc_sweep

    res = strict_hc_sweep(
        cfg, parse_grid(args.sigma_grid), alpha_min=args.alpha_min, target=args.target
    )
    _emit(res.write_csv, args, cfg)
    unreachable = (r["sigma_m"] for r in res.records if not r["feasible"])
    bad = ", ".join(dict.fromkeys(map(repr, unreachable)))
    if bad:
        print(f"infeasible: no beam meets HC outage target {args.target} at sigma_m = {bad}",
              file=sys.stderr)
    return EXIT_INFEASIBLE if bad else EXIT_OK


def cmd_queue_sim(args, cfg: SystemConfig) -> int:
    from .experiments import delay_sweep

    _require_at_least("--slots", args.slots, MIN_DIAGNOSTIC_SLOTS)
    _require_at_least("--reps", args.reps, 1)
    _require_at_least("--seed", args.seed, 0)
    grid = parse_grid(args.alpha_grid)
    res = delay_sweep(
        cfg,
        grid,
        SCHEMES if args.scheme == "both" else args.scheme,
        n_slots=args.slots,
        n_reps=args.reps,
        master_seed=args.seed,
        jobs=args.jobs,
    )
    _emit(res.write_csv, args, cfg)
    return EXIT_OK


def cmd_oracle_check(args, cfg: SystemConfig) -> int:
    import numpy as np

    from .optimizer import random_config, sca_solve, structural_solve

    _require_at_least("--n", args.n, 1)
    _require_at_least("--seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    failures = 0
    for i in range(args.n):
        c = random_config(rng, base=cfg)
        budget = derive_link_budget(c)
        sca = sca_solve(c, budget)
        ref = structural_solve(c, budget)
        tol = 1e-3 * (1.0 + abs(ref.objective))
        ok = abs(sca.objective - ref.objective) <= tol
        monotone = all(
            b >= a - 1e-8 * (1.0 + abs(a))
            for a, b in zip(sca.objective_trace, sca.objective_trace[1:])
        )
        status = "ok" if ok and monotone else "FAIL"
        print(
            f"[{i:3d}] {status} sca={sca.objective:.6g} exact={ref.objective:.6g} "
            f"monotone={monotone}"
        )
        if not (ok and monotone):
            failures += 1
    print(f"oracle-check: {args.n - failures}/{args.n} passed")
    return EXIT_OK if failures == 0 else EXIT_NO_CONVERGENCE


class _UsageError(Exception):
    """A rejected argv, whose usage and message are already on stderr."""


class _Parser(argparse.ArgumentParser):
    """A usage error prints argparse's usage and message and raises
    ``_UsageError``, which ``_run`` returns as ``EXIT_CONFIG``; argparse's
    own exit 2 would read as numerical non-convergence.  Subparsers
    inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="risthz",
        description="RIS-assisted THz mixed-criticality link simulator/optimizer",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, hlp, out=True, jobs=False, grid=None):
        """A subcommand taking ``--config``, optionally ``--out``, ``--jobs``
        and one ``start:step:end`` grid ``(flag, default, parameter)``."""
        p = sub.add_parser(name, help=hlp)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value config file")
        if out:
            p.add_argument("--out", help="output path (manifest written alongside)")
        if jobs:
            p.add_argument("--jobs", type=int, default=_usable_cores(),
                           help="worker processes; only queue-sim starts them")
        if grid:
            flag, default, param = grid
            p.add_argument(flag, default=default, help=f"{param} grid start:step:end")
        return p

    p = command("config", cmd_config, "show resolved or default configuration", out=False)
    p.add_argument("--show-defaults", action="store_true")

    p = command("solve", cmd_solve, "solve the power allocation at one alpha")
    p.add_argument("--trace", action="store_true",
                   help="emit per-iteration solver diagnostics on stderr")
    p.add_argument("--alpha", type=float)

    for name, sweep, hlp, grid in (
        ("feasibility", "feasibility_region", "max arrival rate over the alpha grid",
         ("--alpha-grid", "0:0.05:1", "alpha")),
        ("blockage-sweep", "blockage_sweep", "throughput vs direct blockage",
         ("--qd-grid", "0:0.1:0.5", "q_d")),
        ("misalignment-sweep", "misalignment_sweep", "throughput vs pointing error",
         ("--sigma-grid", "0.02:0.04:0.3", "sigma_m")),
    ):
        grid_dest = grid[0][2:].replace("-", "_")
        # feasibility's --jobs has no effect; the benchmark still passes it
        command(name, partial(cmd_sweep, sweep, grid_dest), hlp,
                jobs=name == "feasibility", grid=grid)

    p = command("strict-hc", cmd_strict_hc, "beamwidth-adapted strict-HC comparison",
                grid=("--sigma-grid", "0.04:0.05:0.14", "sigma_m"))
    p.add_argument("--alpha-min", type=float, default=STRICT_HC_ALPHA_MIN)
    p.add_argument("--target", type=float, default=STRICT_HC_TARGET)

    p = command("queue-sim", cmd_queue_sim, "queueing delay/peak sweep", jobs=True,
                grid=("--alpha-grid", "0:0.05:1", "alpha"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheme", choices=[*SCHEMES, "both"], default="mcsc")
    p.add_argument("--slots", type=int, default=DEFAULT_N_SLOTS)
    p.add_argument("--reps", type=int, default=1)

    p = command("oracle-check", cmd_oracle_check, "verify SCA against the exact solver",
                out=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=50)

    return parser


def run_from_manifest(manifest_path: str, out: str) -> int:
    """Re-execute the experiment recorded in a run manifest, writing its
    CSV to ``out``.  Given the same build, the output is byte-identical."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    argv = [manifest["experiment"], "--out", out]
    for key, value in manifest["args"].items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    # the resolved config as a key = value document: repr round-trips each value
    text = "".join(f"{k} = {v!r}\n" for k, v in manifest["config"].items())
    return _run(argv, text)


def _run(argv, config_text: str | None = None) -> int:
    """Parse ``argv`` and run its subcommand on its config, resolved
    once: from ``config_text`` when given, else ``--config`` over the
    defaults, then ``--alpha``; ``--jobs`` is checked before the handler
    runs.  A usage error prints argparse's usage and message, and a
    ``ConfigError`` one line; both return ``EXIT_CONFIG``."""
    try:
        args = build_parser().parse_args(argv)
    except _UsageError:
        return EXIT_CONFIG
    args._t0 = time.time()
    try:
        if config_text is not None:
            cfg = parse_config_text(config_text)
        else:
            cfg = load_config(args.config) if args.config else SystemConfig()
        if getattr(args, "alpha", None) is not None:
            cfg = cfg.with_(alpha=args.alpha)
        if "jobs" in vars(args):
            _require_at_least("--jobs", args.jobs, 1)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    return _run(argv)


if __name__ == "__main__":
    sys.exit(main())

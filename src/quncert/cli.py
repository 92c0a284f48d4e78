"""Command-line front end.

Subcommands: ``scenario`` writes one CSV row per sweep point, ``verify``
fuzzes the bound inequalities on random states, and ``info`` prints a full
bound report for a single state. Exit codes: 0 success, 1 usage error,
2 inequality violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .bounds import Observable, ObservableDimensionError, evaluate_bounds
from .correlations import OptimizerConfig
from .observables import ObservableFormatError, load_observable_file, pauli_observable
from .scenarios import (
    SCENARIO_NAMES,
    ScenarioError,
    ScenarioSpec,
    StateSpecError,
    parse_state_spec,
    run_scenario,
    scenario_defaults,
    verify,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NUMERICAL = 3

CSV_HEADER = "x,U,Ub1,Ub2,Ub3,Con,D,C,I"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return f"{value:.12g}"


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--sweep expects start:stop:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"cannot parse sweep {text!r}") from None


def _parse_params(items) -> dict[str, float]:
    out = {}
    for item in items or ():
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise _UsageError(f"--param expects key=value, got {item!r}")
        if key in out:
            raise _UsageError(f"--param {key!r} given twice")
        try:
            out[key] = float(val)
        except ValueError:
            raise _UsageError(f"cannot parse number in --param {item!r}") from None
        if not math.isfinite(out[key]):
            raise _UsageError(f"--param {key!r} must be finite, got {val.strip()!r}")
    return out


def _load_observables(args) -> tuple[Observable, Observable] | None:
    if args.obs_file:
        try:
            return load_observable_file(args.obs_file[0]), load_observable_file(args.obs_file[1])
        except (OSError, ObservableFormatError, ValueError) as exc:
            raise _UsageError(str(exc)) from None
    if args.obs:
        spec = args.obs.strip()
        if not spec.startswith("builtin:"):
            raise _UsageError(f"--obs expects builtin:i,j, got {spec!r}")
        try:
            i, j = (int(s) for s in spec[len("builtin:"):].split(","))
            return pauli_observable(i), pauli_observable(j)
        except ValueError as exc:
            raise _UsageError(f"bad --obs {spec!r}: {exc}") from None
    return None


def _obs_description(args) -> str:
    if args.obs_file:
        return f"files {args.obs_file[0]} {args.obs_file[1]}"
    if args.obs:
        return args.obs
    return "scenario default"


def _build_parser() -> _Parser:
    parser = _Parser(prog="quncert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"quncert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    optimizer = _Parser(add_help=False)
    optimizer.add_argument("--seed", type=int, default=0)
    optimizer.add_argument("--grid", type=int, default=16)
    optimizer.add_argument("--restarts", type=int, default=8)

    sc = sub.add_parser("scenario", parents=[optimizer], help="run a named sweep and emit CSV")
    sc.add_argument("name", choices=SCENARIO_NAMES)
    sc.add_argument("--sweep", help="start:stop:steps override")
    sc.add_argument("--param", action="append", metavar="K=V", help="parameter override")
    sc.add_argument("--obs", help="builtin:i,j Pauli pair override")
    sc.add_argument("--obs-file", nargs=2, metavar=("X", "Z"), help="observable matrix files")
    sc.add_argument("--out", help="output CSV path (default stdout)")

    ver = sub.add_parser(
        "verify", parents=[optimizer], help="fuzz the bound inequalities on random states"
    )
    ver.add_argument("--n", type=int, default=2000)
    ver.add_argument("--dims", default="2,2", help="dA,dB")

    info = sub.add_parser("info", parents=[optimizer], help="print the bound report of one state")
    info.add_argument("--state", required=True, help="state spec, e.g. werner:d=2,f=0.8")
    info.add_argument("--obs", default="builtin:1,3")
    info.add_argument("--obs-file", nargs=2, metavar=("X", "Z"))
    return parser


def _cfg_from(args) -> OptimizerConfig:
    try:
        return OptimizerConfig(grid_points=args.grid, restarts=args.restarts, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _check_writable(path: str):
    """Fail on an output path that cannot be written before any work, leaving no new file."""
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _cmd_scenario(args) -> int:
    cfg = _cfg_from(args)
    sweep_default, params_default, notes, sweep_label = scenario_defaults(args.name)
    sweep = _parse_sweep(args.sweep) if args.sweep else sweep_default
    params = dict(params_default)
    params.update(_parse_params(args.param))
    spec = ScenarioSpec(
        name=args.name, sweep=sweep, params=params, observables=_load_observables(args)
    )
    if args.out:
        _check_writable(args.out)
    rows = run_scenario(spec, cfg)

    lines = [
        f"# quncert {__version__}",
        f"# scenario: {args.name}",
        f"# sweep ({sweep_label}): {_fmt(sweep[0])}:{_fmt(sweep[1])}:{sweep[2]}",
        f"# params: {' '.join(f'{k}={_fmt(v)}' for k, v in sorted(params.items())) or '(none)'}",
        f"# observables: {_obs_description(args)}",
        f"# seed: {args.seed} grid: {args.grid} restarts: {args.restarts}",
    ]
    lines.extend(f"# note: {n}" for n in notes)
    lines.append(CSV_HEADER)
    bad = []
    for row in rows:
        r = row.report
        bad.extend(f"x={row.x:.6g}: {v}" for v in r.violations())
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    row.x, r.U, r.U_b1, r.U_b2, r.U_b3, r.concurrence,
                    r.discord, r.classical, r.mutual,
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    if bad:
        for b in bad:
            print(f"bound violation: {b}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        d_a, d_b = (int(s) for s in args.dims.split(","))
    except ValueError:
        raise _UsageError(f"--dims expects dA,dB, got {args.dims!r}") from None
    result = verify(args.n, (d_a, d_b), seed=args.seed, cfg=_cfg_from(args))
    print(f"verify: n={result.n_states} dims={result.dims} seed={result.seed}")
    for key in ("U_b1", "U_b2", "U_b3", "single"):
        print(
            f"  {key:7s} min slack {result.min_slacks[key]: .6e}"
            f"  (tolerance {result.tolerances[key]:g})"
        )
    if result.ok:
        print("  no violations")
        return EXIT_OK
    print(f"  {len(result.violations)} violation(s):")
    for v in result.violations[:20]:
        print(f"    {v}")
    if result.worst_state is not None:
        print("  worst state:")
        for row in result.worst_state:
            print("    " + " ".join(f"{z.real:+.17g}{z.imag:+.17g}i" for z in row))
    return EXIT_VIOLATION


def _cmd_info(args) -> int:
    cfg = _cfg_from(args)
    rho = parse_state_spec(args.state)
    obs = _load_observables(args)
    if obs is None:
        obs = (pauli_observable(1), pauli_observable(3))
    report = evaluate_bounds(rho, obs[0], obs[1], cfg)
    print(f"state: {args.state}")
    print(f"observables: {_obs_description(args)}")
    for name in (
        "U", "U_b1", "U_b2", "U_b3", "c", "S_AB", "S_B", "S_cond",
        "mutual", "classical", "discord",
    ):
        print(f"  {name:10s} {getattr(report, name):.9f}")
    con = "n/a (memory is not a qubit)" if report.concurrence is None else f"{report.concurrence:.9f}"
    print(f"  {'concurrence':10s} {con}")
    print(f"tightest bound: {report.tightest()}")
    if report.violations():
        for v in report.violations():
            print(f"bound violation: {v}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_info(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, StateSpecError, ObservableFormatError, ObservableDimensionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands map one-to-one onto the library: ``solve`` (parameter solving),
``sweep`` (phase-diagram grids), ``fixed-points``, ``nlo`` (finite-width
correction trajectories and their envelope), ``simulate`` / ``correlate``
(Monte Carlo), ``jacobian`` and ``train``.

Everything emitted is data: JSON documents (with a ``schema_version`` field,
and null for a non-finite number) and CSV tables (which write ``inf`` and
``nan``).  ``sweep``, ``nlo``, ``simulate`` and ``correlate`` write their
table to ``--out`` and a JSON run header, naming the command and that path,
to stdout; every other command writes its JSON document to ``--out``, or to
stdout when ``--out`` is not given.  Plotting is left to external tools.
All commands are deterministic given their flags; any randomness is behind
an explicit ``--seed``.

Exit codes: 0 success, 1 usage or configuration error (or an allocation the
machine refuses), 2 infeasible target, 3 runtime divergence.

A JSON file passed via ``--config`` stands for flags of the subcommand:
each key, a flag's destination name, becomes that flag with the value's
command-line text, parsed with the command line and placed before it, so
explicit flags win and a bad value gets the error that names its flag.

A flag that is not a switch is None until given, on the command line or as
a ``--config`` key, so a run flag left out takes its field's default in
``SimConfig`` or ``TrainConfig``, and an unread flag is refused when given.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from . import finite_width, gaussian, jacobian, maps, simulator, solver, trainer
from ._moments import _Kernel
from .activations import CRELU, CST, KINDS, RELU, _check_shape
from .solver import (
    EocInit,
    InfeasibleTargetError,
    find_fixed_points,
    init_from_m,
    relu_init,
    solve_init,
    sparsity_threshold,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGED = 3

SWEEP_QUANTITIES = ("Vprime", "Vprimeprime", "chi1prime", "nlo_bound", "vmap_curve")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _emit_json(doc: dict, path: str | None = None) -> None:
    # JSON (RFC 8259) has no NaN or Infinity: one round trip turns each
    # non-finite float, at any depth, into null; every other value, floats
    # included, reads back exactly as it was written
    doc = json.loads(json.dumps(doc), parse_constant=lambda token: None)
    text = json.dumps(doc, indent=2) + "\n"
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_CSV_CHUNK = 4096  # lines joined per write


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """Write ``rows``, each a tuple of formatted text, under ``header``.

    Lines are joined and written ``_CSV_CHUNK`` at a time, so neither a list
    of every line nor the whole file's text is ever held.
    """
    lines = map(",".join, rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(lines, _CSV_CHUNK)):
            chunk.append("")
            fh.write("\n".join(chunk))


def _publish(args, doc: dict, table=None) -> None:
    """Write a command's results under the schema header.

    ``table``, a ``(header, rows)`` pair, goes to ``--out`` as CSV and
    ``doc`` to stdout, between the command's name and that path; without a
    table ``doc`` goes to ``--out``, or to stdout when it is not given.
    """
    if table is None:
        _emit_json({"schema_version": SCHEMA_VERSION, **doc}, args.out)
        return
    _write_csv(args.out, *table)
    _emit_json({"schema_version": SCHEMA_VERSION, "command": args.command, **doc, "out": args.out})


def _check_writable(*paths) -> None:
    """Open each output path that is not None for writing, so that one that
    cannot be written fails before any work; a file this creates is removed."""
    for path in (p for p in paths if p is not None):
        existed = os.path.exists(path)
        with open(path, "a"):
            pass
        if not existed:
            os.remove(path)


def _check_distinct(args, outputs, inputs) -> None:
    """Refuse an output flag whose path names the same file as an input or
    an earlier output flag, which writing it would replace."""
    flags = {a.dest: a.option_strings[0] for a in args.parser._actions}
    seen = {}
    for dest in (*inputs, *outputs):
        path = getattr(args, dest, None)
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen and dest in outputs:
            raise ValueError(f"{flags[dest]} {path!r} names the same file as {seen[real]}")
        seen.setdefault(real, flags[dest])


# --------------------------------------------------------------------------
# shared flags
# --------------------------------------------------------------------------

def _add_init_flags(sub, with_m: bool = True):
    sub.add_argument("--activation", choices=KINDS, help="activation family")
    sub.add_argument("--sparsity", "-s", type=float,
                     help="target zero-activation rate in (0, 1)")
    sub.add_argument("--qstar", type=float, help="fixed-point variance q*")
    sub.add_argument("--vprime", type=float,
                     help="target slope of the variance map at q*, in (0, 1)")
    if with_m:
        sub.add_argument("--m", type=float,
                         help="clip level given directly instead of --vprime")


def _add_run_flags(sub):
    sub.add_argument("--depth", type=int)
    sub.add_argument("--width", type=int)
    sub.add_argument("--batch", type=int)
    sub.add_argument("--seed", type=int)


def _check_flags(args, names, given, problem):
    """Refuse the ``names`` whose flags are given (are missing, if not ``given``)."""
    found = [n for n in names if (getattr(args, n, None) is not None) == given]
    if found:
        flags = {a.dest: a.option_strings[0] for a in args.parser._actions}
        raise ValueError(f"{problem}: " + ", ".join(flags[n] for n in found))


def _require(args, names):
    _check_flags(args, names, False, "missing required flag(s)")


def _build_init(args) -> EocInit:
    _require(args, ["activation", "qstar"])
    if args.activation == RELU:
        _check_flags(args, ["sparsity", "vprime", "m"], True, "flag(s) not read by relu")
        return relu_init(args.qstar)
    _require(args, ["sparsity"])
    m = getattr(args, "m", None)
    if m is not None:
        _check_flags(args, ["vprime"], True, "flag(s) not read with --m")
        return init_from_m(args.activation, args.sparsity, args.qstar, m)
    _require(args, ["vprime"])
    return solve_init(args.activation, args.sparsity, args.qstar, args.vprime)


def _run_config(cls, args):
    """A run config of class ``cls``: the initialisation the flags give,
    and every other field from the flag of the same name.  A flag is None
    until given, so a field whose flag is not given (or that the command
    has no flag for) takes the field's default."""
    given = {f.name: v for f in fields(cls) if (v := getattr(args, f.name, None)) is not None}
    return cls(init=_build_init(args), **given)


def _range_triple(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ranges are lo:hi:steps, two numbers and an integer, got {text}"
        ) from None
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"lo, hi and hi - lo must be finite, got {text}")
    if not (lo < hi) or steps < 2:
        raise argparse.ArgumentTypeError("need lo < hi and steps >= 2")
    return lo, hi, steps


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated numbers, got {text}") from None
    if not values:
        raise argparse.ArgumentTypeError("need at least one value")
    return values


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    init = _build_init(args)
    diag = maps.diagnostics(init.spec, init.sw2, init.sb2, init.q_star)
    bound = float(finite_width._envelope(_Kernel.at(init.spec, init.q_star), init.sw2))
    _publish(args, {"init": init.to_dict(), "diagnostics": diag.to_dict(), "nlo_bound": bound})
    return EXIT_OK


# kernel method of each sweep quantity that needs only the critical gain
_GAIN_QUANTITIES = {"Vprime": "v_prime", "Vprimeprime": "v_prime2", "chi1prime": "chi1_prime"}


def _sweep_block(quantity, kind, tau, q_grid, m_grid, anchor):
    """The cell values of one sparsity's block of a sweep, in CSV row order.

    Every cell is a critical initialisation: ``tau``, checked, is the
    sparsity's threshold down the q* axis (at ``anchor`` for vmap_curve,
    whose axes are (m, q) instead of (q*, m)) and the gain is re-solved at
    the cell's q*.  A cell whose gain does not exist reads nan; so does a
    cell the solver's verdict refuses, for the quantities that need the
    whole initialisation.

    The values are yielded as lists of floats, a chunk of rows of the
    leading axis at a time (``_CSV_CHUNK`` cells, or one row if longer).
    Every operation is elementwise: they are one whole-block evaluation's.
    """
    vmap = quantity == "vmap_curve"
    lead, cols = (m_grid, q_grid) if vmap else (q_grid, m_grid)
    step = max(1, _CSV_CHUNK // cols.size)
    for i in range(0, lead.size, step):
        rows = lead[i:i + step, None]
        t, m, q_star = (tau, rows, anchor) if vmap else (tau[i:i + step], m_grid, rows)
        k = _Kernel(kind, t, m, q_star)
        sw2, sb2, verdict = solver._critical(k)
        with np.errstate(divide="ignore", invalid="ignore"):
            if quantity in _GAIN_QUANTITIES:
                values = getattr(k, _GAIN_QUANTITIES[quantity])(sw2)
                infeasible = verdict == solver._SATURATED
            elif quantity == "nlo_bound":
                values = finite_width._envelope(k, sw2)
                infeasible = verdict >= 0
            else:
                values = _Kernel(kind, t, m, q_grid).v(sw2, sb2)
                infeasible = verdict >= 0
            yield np.where(infeasible, np.nan, values).ravel().tolist()


class _GridRows:
    """The rows of a sweep CSV as text columns, sized but never built.

    Each axis value is formatted once, as text; a row is its coordinates
    (the product of the axes, last axis fastest) zipped with the repr of its
    cell value.  The values come from ``chunks``, lists of them in row
    order, so the rows can be iterated once.
    """

    def __init__(self, axes, chunks):
        self._axes, self._chunks = axes, chunks

    def __len__(self):
        return math.prod(map(len, self._axes))

    def __iter__(self):
        coords = map(",".join, itertools.product(*self._axes))
        return zip(coords, map(repr, itertools.chain.from_iterable(self._chunks)))


def _cmd_sweep(args) -> int:
    _require(args, ["quantity", "activation", "s_list", "qstar_range", "m_range", "out"])
    vmap = args.quantity == "vmap_curve"
    if not vmap:
        _check_flags(args, ["qstar"], True, "flag(s) read only by --quantity vmap_curve")
    kind = args.activation
    q_grid, m_grid = np.linspace(*args.qstar_range), np.linspace(*args.m_range)
    anchor = args.qstar if args.qstar is not None else 1.0

    # every input is checked before the output file is opened, so a bad
    # one leaves no partial file behind
    gaussian._check_q(q_grid)
    taus = [sparsity_threshold(kind, s, anchor if vmap else q_grid[:, None]) for s in args.s_list]
    _check_shape(taus, m_grid)
    chunks = (chunk for tau in taus
              for chunk in _sweep_block(args.quantity, kind, tau, q_grid, m_grid, anchor))
    s_txt = [repr(s) for s in args.s_list]
    q_txt = [repr(q) for q in q_grid.tolist()]
    m_txt = [repr(m) for m in m_grid.tolist()]
    if vmap:
        header = ("activation", "s", "anchor_q_star", "m", "q", "value")
        axes = ([kind], s_txt, [repr(anchor)], m_txt, q_txt)
    else:
        header = ("activation", "s", "q_star", "m", "value")
        axes = ([kind], s_txt, q_txt, m_txt)
    doc = {
        "quantity": args.quantity,
        "activation": kind,
        "s_list": args.s_list,
        "q_star_range": list(args.qstar_range),
        "m_range": list(args.m_range),
        "anchor_q_star": anchor if vmap else None,
        "gain_resolved_per_cell": True,
    }
    _publish(args, doc, (header, _GridRows(axes, chunks)))
    return EXIT_OK


def _cmd_fixed_points(args) -> int:
    init = _build_init(args)
    report = find_fixed_points(init, lo=args.lo, hi=args.hi)
    _publish(args, {"init": init.to_dict(), "report": report.to_dict()})
    return EXIT_OK


def _cmd_nlo(args) -> int:
    _require(args, ["depth", "out"])
    init = _build_init(args)
    states = finite_width.nlo_trajectory(init, args.depth)
    bound = finite_width.theorem1_bound(init)
    header = (*(f.name for f in fields(finite_width.NloState)), "bound")
    rows = [tuple(map(_fmt, (*astuple(st), bound))) for st in states]
    doc = {
        "init": init.to_dict(),
        "depth": args.depth,
        "bound": bound,
        "log_bound": finite_width.log_theorem1_bound(init),
        "trajectory_max_abs_q1": max(abs(st.q1) for st in states),
        # the weight gain is re-solved from the criticality condition at
        # every (s, q*) requested, never held fixed across q*
        "gain_resolved_per_init": True,
    }
    _publish(args, doc, (header, rows))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    _require(args, ["depth", "width", "out"])
    config = _run_config(simulator.SimConfig, args)
    stats = simulator.run_backward(config) if args.backward else simulator.run_forward(config)
    rows = [tuple(map(_fmt, astuple(st))) for st in stats]
    _publish(args, {"config": config.to_dict(), "backward": args.backward},
             (simulator.CSV_COLUMNS, rows))
    return EXIT_OK


def _cmd_correlate(args) -> int:
    _require(args, ["depth", "width", "rho0", "out"])
    config = _run_config(simulator.SimConfig, args)
    stats = simulator.run_correlation(config, args.rho0)
    rows = [tuple(map(_fmt, astuple(st))) for st in stats]
    _publish(args, {"config": config.to_dict(), "rho0": args.rho0},
             (simulator.CSV_COLUMNS, rows))
    return EXIT_OK


def _cmd_jacobian(args) -> int:
    _require(args, ["depth"])
    init = _build_init(args)
    moments = jacobian.jacobian_moments(init, args.depth)
    _publish(args, {"init": init.to_dict(), "moments": moments.to_dict()})
    return EXIT_OK


def _cmd_train(args) -> int:
    _require(args, ["depth", "width", "epochs", "lr", "batch"])
    if args.dataset == trainer.SMALL_DIGITS:
        _check_flags(args, ["n_samples"], True, "flag(s) read only by --dataset synthetic-blobs")
    config = _run_config(trainer.TrainConfig, args)
    report = trainer.train(config)
    if args.log_csv is not None:
        rows = [tuple(map(_fmt, row)) for row in report.log_rows()]
        _write_csv(args.log_csv, trainer.LOG_COLUMNS, rows)
    _publish(args, {"config": config.to_dict(), "report": report.to_dict()})
    return EXIT_DIVERGED if report.diverged else EXIT_OK


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------

_CSV_OUT = "CSV output path"
_JSON_OUT = "write the JSON document here instead of stdout"


def _add_command(subs, name, func, summary, out_help):
    """The parser of one subcommand, with its --out and --config flags.

    The parsed arguments carry this parser, for --config and for errors
    that name its flags.
    """
    sp = subs.add_parser(name, help=summary, allow_abbrev=False)
    sp.add_argument("--out", help=out_help)
    sp.add_argument("--config", help="JSON file of values for these flags")
    sp.set_defaults(func=func, parser=sp)
    return sp


def build_parser() -> _Parser:
    parser = _Parser(prog="eoc-lab", description=__doc__.splitlines()[0], allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", metavar="command")

    sp = _add_command(subs, "solve", _cmd_solve, "solve a full initialisation", _JSON_OUT)
    _add_init_flags(sp, with_m=False)

    sp = _add_command(subs, "sweep", _cmd_sweep, "evaluate a diagnostic over a (q*, m) grid",
                      _CSV_OUT)
    sp.add_argument("--quantity", choices=SWEEP_QUANTITIES)
    sp.add_argument("--activation", choices=(CRELU, CST))
    sp.add_argument("--sparsity", type=_float_list, dest="s_list",
                    help="comma-separated sparsity levels")
    sp.add_argument("--qstar-range", type=_range_triple,
                    help="lo:hi:steps grid of q* (the q axis for vmap_curve)")
    sp.add_argument("--m-range", type=_range_triple, help="lo:hi:steps grid of clip levels")
    sp.add_argument("--qstar", type=float, help="anchor q* for vmap_curve (default 1.0)")

    sp = _add_command(subs, "fixed-points", _cmd_fixed_points,
                      "all fixed points of the variance map", _JSON_OUT)
    _add_init_flags(sp)
    sp.add_argument("--lo", type=float, help="lower end of the search interval")
    sp.add_argument("--hi", type=float, help="upper end of the search interval")

    sp = _add_command(subs, "nlo", _cmd_nlo, "finite-width correction trajectory and bound",
                      _CSV_OUT)
    _add_init_flags(sp)
    sp.add_argument("--depth", type=int)

    sp = _add_command(subs, "simulate", _cmd_simulate,
                      "finite-width Monte Carlo forward/backward run", _CSV_OUT)
    _add_init_flags(sp)
    _add_run_flags(sp)
    sp.add_argument("--backward", action="store_true",
                    help="also measure the backpropagated error moment")
    sp.add_argument("--input-variance", type=float,
                    help="draw inputs at this variance instead of q*")

    sp = _add_command(subs, "correlate", _cmd_correlate, "two-input correlation trajectory",
                      _CSV_OUT)
    _add_init_flags(sp)
    _add_run_flags(sp)
    sp.add_argument("--rho0", type=float, help="initial correlation in [-1, 1]")

    sp = _add_command(subs, "jacobian", _cmd_jacobian,
                      "spectral moments of the depth-L Jacobian", _JSON_OUT)
    _add_init_flags(sp)
    sp.add_argument("--depth", type=int, help="number of layers L")

    sp = _add_command(subs, "train", _cmd_train, "desk-scale MLP training demo",
                      "write the JSON report here instead of stdout")
    _add_init_flags(sp)
    _add_run_flags(sp)
    sp.add_argument("--dataset", choices=trainer.DATASETS)
    sp.add_argument("--data-csv", help="digit CSV path for small-digits")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--n-samples", type=int)
    sp.add_argument("--input-dim", type=int)
    sp.add_argument("--n-classes", type=int)
    sp.add_argument("--log-csv", help="per-step CSV training log path")

    return parser


def _config_flags(sub, path) -> list[str]:
    """The flags a --config file stands for, for the subcommand parser
    ``sub``: each key's option, ``=`` and the value's command-line text (a
    string as written, a number as its JSON text).  A switch's key is its
    option for true and nothing for false; null is nothing."""
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("--config must contain a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = set(loaded) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in loaded.items():
        option = actions[key].option_strings[0]
        if actions[key].nargs == 0:
            if value is not None and not isinstance(value, bool):
                raise ValueError(f"--config key {key!r}: expected true or false")
            if value:
                flags.append(option)
        elif value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            flags.append(f"{option}={text}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.config is not None:
            # after the command name and before the user's flags, so that
            # an explicit flag wins as the last occurrence
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(args.parser, args.config),
                                      *argv[at:]])
        _check_distinct(args, ("out", "log_csv"), ("config", "data_csv"))
        _check_writable(args.out, getattr(args, "log_csv", None))
        return args.func(args)
    except InfeasibleTargetError as exc:
        error = {"type": "infeasible_target", "message": str(exc)}
        _emit_json({"schema_version": SCHEMA_VERSION, "error": error})
        return EXIT_INFEASIBLE
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

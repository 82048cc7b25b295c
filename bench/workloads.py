"""Seeded inputs and output checks of the benchmark workloads.

A workload is a list of operations; each operation is one eoc-lab CLI
command (its argv without the program name) plus what its check needs.
The inputs come from ``random.Random(seed)`` only, so the same seed always
gives the same flags, and the program sees nothing but those flags.

Input ranges are narrow on purpose: the seed moves every target a little
but keeps the amount of work per run the same, so run-to-run spread
measures the program and not the draw.  ``crelu`` sparsities stay at or
above 0.5, where its threshold is nonnegative.

The checks import eoc_lab lazily: this module is also imported by the
orchestrating process before the package is known to exist.
"""

from __future__ import annotations

import json
import math
import os
import random

SWEEP_GRID = "sweep-grid"
MC_SIM = "mc-sim"
TRAIN_DEMO = "train-demo"
CLI_COLD = "cli-cold"
WORKLOADS = (SWEEP_GRID, MC_SIM, TRAIN_DEMO, CLI_COLD)

# what one unit of ``work`` is, per workload
WORK_UNITS = {
    SWEEP_GRID: "cells",
    MC_SIM: "preacts",
    TRAIN_DEMO: "steps",
    CLI_COLD: "commands",
}

SWEEP_SAMPLE = 100          # sampled cells re-evaluated per sweep
SWEEP_REL_TOL = 1e-12
MC_Q_REL_TOL = 0.05         # layer-averaged q_hat against q*
MC_SPARSITY_TOL = 0.02      # layer-averaged sparsity_hat against s
MC_BURN_IN = 4              # layers skipped before averaging, as in the acceptance test
FIXED_POINT_TOL = 1e-9      # |V(q*) - q*| recomputed from a command's document


def _num(x: float) -> str:
    return f"{x:.4f}"


def _grid(lo: float, hi: float, steps: int) -> tuple[float, float, int]:
    return float(_num(lo)), float(_num(hi)), steps


def _grid_flag(grid) -> str:
    lo, hi, steps = grid
    return f"{_num(lo)}:{_num(hi)}:{steps}"


def _init_flags(kind: str, s: float, q: float, vprime: float | None = None) -> list[str]:
    flags = ["--activation", kind, "--qstar", _num(q)]
    if kind != "relu":
        flags += ["-s", _num(s)]
        if vprime is not None:
            flags += ["--vprime", _num(vprime)]
    return flags


def ops(workload: str, seed: int, workdir: str) -> list[dict]:
    """The operations of one repetition of ``workload`` at ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    u = rng.uniform
    if workload == SWEEP_GRID:
        out = []
        # Vprimeprime on crelu over 2 x 300 x 300 cells; nlo_bound on cst over
        # 200 x 200 cells whose low-q* corner is infeasible (nan cells)
        for quantity, kind, s_list, q_grid, steps in (
            ("Vprimeprime", "crelu", [u(0.60, 0.70), u(0.85, 0.90)], (u(0.45, 0.55), u(2.9, 3.1)), 300),
            ("nlo_bound", "cst", [u(0.75, 0.85)], (u(0.09, 0.11), u(2.9, 3.1)), 200),
        ):
            s_list = [float(_num(s)) for s in s_list]
            q_grid = _grid(*q_grid, steps)
            m_grid = _grid(u(0.45, 0.55), u(2.9, 3.1), steps)
            path = os.path.join(workdir, f"{quantity}.csv")
            out.append({
                "argv": ["sweep", "--quantity", quantity, "--activation", kind,
                         "--sparsity", ",".join(_num(s) for s in s_list),
                         "--qstar-range", _grid_flag(q_grid), "--m-range", _grid_flag(m_grid),
                         "--out", path],
                "work": len(s_list) * steps * steps,
                "quantity": quantity, "kind": kind, "s_list": s_list,
                "q_grid": q_grid, "m_grid": m_grid, "out": path,
            })
        return out
    if workload == MC_SIM:
        # The check is a statistical one: at finite width the layer-averaged
        # q_hat is unbiased but scatters from seed to seed.  The scatter is
        # shared by the whole batch (the biases, which carry 70-90 % of q*
        # here, are common to every row), so batch size does not reduce it;
        # it falls with width x depth and with a smaller V'(q*), the rate at
        # which a layer's fluctuation decays.  At V' in (0.30, 0.45) and
        # depth 20-30 the spread was 1.0-1.8 %, and 5 % is only 3 sigma; at
        # V' in (0.10, 0.20) and the depths below it is 0.7-0.8 % (measured
        # over 40-50 seeds per command), which puts 5 % at about 6 sigma.
        s, vprime, q = float(_num(u(0.82, 0.88))), u(0.10, 0.20), float(_num(u(0.8, 2.0)))
        out = []
        for command, kind, depth, width, batch, extra in (
            ("simulate", "crelu", 60, 1000, 64, ["--backward"]),
            ("simulate", "crelu", 40, 1500, 64, []),
            ("correlate", "cst", 30, 2000, 16, ["--rho0", _num(u(0.2, 0.8))]),
        ):
            path = os.path.join(workdir, f"{command}{len(out)}.csv")
            rows = 2 * batch if command == "correlate" else batch
            out.append({
                "argv": [command, *_init_flags(kind, s, q, vprime),
                         "--depth", str(depth), "--width", str(width), "--batch", str(batch),
                         "--seed", str(rng.randrange(2**31)), *extra, "--out", path],
                "work": rows * width * depth,
                "s": s, "q_star": q, "depth": depth, "out": path,
            })
        return out
    if workload == TRAIN_DEMO:
        epochs, n_samples, batch = 60, 1000, 32
        # the trainer holds out 20 % for test, then 10 % of the rest for validation
        n_test = round(0.2 * n_samples)
        n_train = n_samples - n_test - round(0.1 * (n_samples - n_test))
        steps = epochs * math.ceil(n_train / batch)
        path = os.path.join(workdir, "train_log.csv")
        return [{
            "argv": ["train", *_init_flags("crelu", u(0.83, 0.87), u(2.5, 3.5), u(0.65, 0.75)),
                     "--dataset", "synthetic-blobs", "--depth", "30", "--width", "64",
                     "--epochs", str(epochs), "--lr", "0.002", "--batch", str(batch),
                     "--seed", str(rng.randrange(2**31)), "--n-samples", str(n_samples),
                     "--log-csv", path],
            "work": steps, "epochs": epochs, "log": path,
        }]
    if workload == CLI_COLD:
        def draw():
            return u(0.6, 0.9), u(0.5, 3.0), u(0.5, 0.9)

        out = []
        for command, kind in (
            ("solve", "crelu"), ("solve", "cst"),
            ("fixed-points", "crelu"), ("fixed-points", "cst"),
            ("jacobian", "relu"), ("jacobian", "cst"),
            ("nlo", "crelu"), ("nlo", "cst"),
        ):
            s, q, vprime = draw()
            argv = [command, *_init_flags(kind, s, q, vprime)]
            if command in ("jacobian", "nlo"):
                argv += ["--depth", str(rng.randint(10, 50))]
            if command == "nlo":
                argv += ["--out", os.path.join(workdir, f"nlo{len(out)}.csv")]
            out.append({"argv": argv, "work": 1})
        return out
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def check(workload: str, seed: int, op: dict, rc: int, stdout: str) -> dict:
    """Check one operation's outputs.

    Returns ``{"ok": bool, "why": str, "nan_cells": int}``; ``why`` names
    the first failed condition.
    """
    result = {"ok": False, "why": "", "nan_cells": 0}
    if rc != 0:
        result["why"] = f"exit code {rc}"
        return result
    try:
        doc = json.loads(stdout)
        if workload == SWEEP_GRID:
            why, result["nan_cells"] = _check_sweep(op, random.Random(f"check:{seed}:{op['quantity']}"))
        elif workload == MC_SIM:
            why = _check_mc(op)
        elif workload == TRAIN_DEMO:
            why = _check_train(op, doc)
        else:
            why = _check_fixed_point(doc)
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        why = f"{type(exc).__name__}: {exc}"
    result["ok"] = not why
    result["why"] = why
    return result


def _fresh_cell(quantity: str, kind: str, s: float, q: float, m: float) -> float:
    """One sweep cell recomputed by direct scalar library calls."""
    from eoc_lab import ActivationSpec, finite_width, maps, solver

    spec = ActivationSpec(kind, solver.sparsity_threshold(kind, s, q), m)
    try:
        sw2 = solver.critical_gain(spec, q)
        if quantity == "Vprimeprime":
            return maps.v_prime2(spec, sw2, q)
        return finite_width.theorem1_bound(solver.init_from_m(kind, s, q, m))
    except ValueError:  # InfeasibleTargetError is a ValueError
        return math.nan


def _check_sweep(op: dict, rng: random.Random) -> tuple[str, int]:
    import numpy as np

    q_grid, m_grid = np.linspace(*op["q_grid"]), np.linspace(*op["m_grid"])
    n_q, n_m = len(q_grid), len(m_grid)
    sample = set(rng.sample(range(op["work"]), SWEEP_SAMPLE))
    rows = nan_cells = 0
    with open(op["out"]) as fh:
        if next(fh).strip() != "activation,s,q_star,m,value":
            return "unexpected CSV header", 0
        for i, line in enumerate(fh):
            rows += 1
            fields = line.rstrip("\n").split(",")
            if fields[-1] == "nan":
                nan_cells += 1
            if i not in sample:
                continue
            kind, s, q, m, value = fields[0], *map(float, fields[1:])
            si, rest = divmod(i, n_q * n_m)
            qi, mi = divmod(rest, n_m)
            if (kind, s, q, m) != (op["kind"], op["s_list"][si], float(q_grid[qi]), float(m_grid[mi])):
                return f"row {i} has coordinates {fields[:4]}", nan_cells
            fresh = _fresh_cell(op["quantity"], kind, s, q, m)
            if math.isnan(fresh) != math.isnan(value) or (
                not math.isnan(fresh) and abs(value - fresh) > SWEEP_REL_TOL * abs(fresh)
            ):
                return f"row {i}: {value!r} but a fresh call gives {fresh!r}", nan_cells
    if rows != op["work"]:
        return f"{rows} rows for {op['work']} cells", nan_cells
    return "", nan_cells


def _check_mc(op: dict) -> str:
    with open(op["out"]) as fh:
        header = next(fh).strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    if len(rows) != op["depth"]:
        return f"{len(rows)} layers for depth {op['depth']}"
    tail = rows[MC_BURN_IN:]
    q_avg = sum(float(r["q_hat"]) for r in tail) / len(tail)
    s_avg = sum(float(r["sparsity_hat"]) for r in tail) / len(tail)
    if abs(q_avg / op["q_star"] - 1.0) > MC_Q_REL_TOL:
        return f"layer-averaged q_hat {q_avg:.4g} is not within 5 % of q* = {op['q_star']}"
    if abs(s_avg - op["s"]) > MC_SPARSITY_TOL:
        return f"layer-averaged sparsity_hat {s_avg:.4g} is not within 0.02 of s = {op['s']}"
    return ""


def _check_train(op: dict, doc: dict) -> str:
    report = doc["report"]
    losses = report["train_losses"]
    if report["diverged"]:
        return "training diverged"
    if report["epochs_run"] * report["steps_per_epoch"] != op["work"]:
        return f"ran {report['epochs_run']} x {report['steps_per_epoch']} steps, expected {op['work']}"
    if not losses[-1] < losses[0]:
        return f"final epoch loss {losses[-1]:.4g} is not below the first {losses[0]:.4g}"
    with open(op["log"]) as fh:
        logged = sum(1 for _ in fh) - 1
    if logged != op["work"]:
        return f"training log has {logged} steps, expected {op['work']}"
    return ""


def _check_fixed_point(doc: dict) -> str:
    from eoc_lab import EocInit, maps

    init = EocInit.from_dict(doc["init"])
    resid = abs(maps.v_map(init.spec, init.sw2, init.sb2, init.q_star) - init.q_star)
    if not resid <= FIXED_POINT_TOL:
        return f"|V(q*) - q*| = {resid:.3g} exceeds {FIXED_POINT_TOL}"
    return ""

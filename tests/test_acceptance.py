"""Acceptance gate: one test per contract criterion, each printing a
PASS/FAIL line (run with -s to see them).

Where the golden grid itself is internally inconsistent (its curvature
column carries two kinds of print defects, detailed in reference_tables),
the affected cells are verified against an explicit defect model and the
duplicate reference column instead of being silently skipped; everything
else is asserted directly at the stated tolerance.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from eoc_lab.activations import ActivationSpec
from eoc_lab.finite_width import nlo_trajectory, theorem1_bound
from eoc_lab.jacobian import jacobian_moments
from eoc_lab.maps import chi1, chi1_prime, v_map, v_prime, v_prime2
from eoc_lab.simulator import SimConfig, run_forward
from eoc_lab.solver import find_fixed_points, init_from_m, solve_init
from eoc_lab.trainer import TrainConfig, train

import reference_tables as tables
from oracles import kinks, lemma_q1_closed_form, lemma_r_closed_form


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


# --------------------------------------------------------------------------
# solver golden grids
# --------------------------------------------------------------------------

def test_one_sided_golden_clip_levels():
    """All 45 one-sided clip levels reproduce to +-0.01 in under 5 s."""
    t0 = time.perf_counter()
    bad = []
    for (s, v, q), (m_ref, _) in tables.ONE_SIDED.items():
        init = solve_init("crelu", s, q, v)
        if abs(init.spec.m - m_ref) > tables.GOLDEN_TOL:
            bad.append((s, v, q, init.spec.m, m_ref))
    elapsed = time.perf_counter() - t0
    _report(
        "one-sided golden clip levels (45 cells, +-0.01)",
        not bad and elapsed < 5.0,
        f"{45 - len(bad)}/45 cells, {elapsed:.2f}s",
    )


def test_one_sided_golden_curvature():
    """Curvature column: direct +-0.01 on every self-consistent cell; the
    documented defective cells are pinned to their defect model (printed
    value equals half the closed form) and to the duplicate column."""
    direct, modelled, bad = 0, 0, []
    for (s, v, q), (_, vpp_ref) in tables.ONE_SIDED.items():
        cell = (s, v, q)
        init = solve_init("crelu", s, q, v)
        vpp = v_prime2(init.spec, init.sw2, q)
        cross = tables.CROSS_CHECK_VPP.get(cell)
        if cell in tables.BOGUS_VPP:
            # the print is unexplainable; the duplicate column is the value
            if abs(vpp - cross) > tables.GOLDEN_TOL:
                bad.append((cell, vpp, cross))
            modelled += 1
        elif cell in tables.HALVED_VPP:
            if abs(0.5 * vpp - vpp_ref) > tables.GOLDEN_TOL:
                bad.append((cell, 0.5 * vpp, vpp_ref))
            if cross is not None and abs(vpp - cross) > tables.GOLDEN_TOL:
                bad.append((cell, vpp, cross))
            modelled += 1
        else:
            if abs(vpp - vpp_ref) > tables.GOLDEN_TOL:
                bad.append((cell, vpp, vpp_ref))
            direct += 1
    _report(
        "one-sided golden curvature (+-0.01; defect cells via model + duplicate column)",
        not bad,
        f"{direct} direct, {modelled} defect-modelled, {len(bad)} mismatches",
    )


def test_two_sided_golden_grid():
    """All 36 two-sided (clip level, curvature) pairs reproduce to +-0.01."""
    bad = []
    for (s, v, q), (m_ref, vpp_ref) in tables.TWO_SIDED.items():
        init = solve_init("cst", s, q, v)
        vpp = v_prime2(init.spec, init.sw2, q)
        if abs(init.spec.m - m_ref) > tables.GOLDEN_TOL or abs(vpp - vpp_ref) > tables.GOLDEN_TOL:
            bad.append((s, v, q, init.spec.m, m_ref, vpp, vpp_ref))
    _report("two-sided golden grid (36 cells, m and V'' +-0.01)", not bad, f"{len(bad)} mismatches")


# --------------------------------------------------------------------------
# variance-map structure
# --------------------------------------------------------------------------

def test_fixed_point_structure():
    """Wide clip (m = 2.0) at s = 0.85, q* = 1: an extra fixed point sits at
    3.5 +- 0.3; narrow clip (m = 1.2) has exactly one fixed point in
    (0.1, 10].  Under 1 s."""
    t0 = time.perf_counter()
    wide = init_from_m("crelu", 0.85, 1.0, 2.0)
    wide_report = find_fixed_points(wide, lo=0.1, hi=10.0)
    outer = [p.q for p in wide_report.points if abs(p.q - 3.5) <= 0.3]
    narrow = init_from_m("crelu", 0.85, 1.0, 1.2)
    narrow_report = find_fixed_points(narrow, lo=0.1, hi=10.0)
    elapsed = time.perf_counter() - t0
    ok = len(outer) == 1 and len(narrow_report.points) == 1 and elapsed < 1.0
    _report(
        "variance-map fixed-point structure",
        ok,
        f"outer at {outer[0]:.3f}, narrow has {len(narrow_report.points)} point(s), {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# finite-width envelope
# --------------------------------------------------------------------------

def test_width_correction_envelope():
    """On 50 randomized valid initialisations: the 200-layer recursion never
    exceeds the envelope, and the closed forms match the recursion to
    relative 1e-9.  Under 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    checked = 0
    while checked < 50:
        s = float(rng.uniform(0.55, 0.95))
        v = float(rng.uniform(0.1, 0.95))
        q = float(rng.uniform(0.5, 4.0))
        kind = "cst" if checked % 3 == 2 else "crelu"
        init = solve_init(kind, s, q, v)
        if not 0.0 < init.v_prime_at_fp < 1.0:
            continue
        checked += 1
        bound = theorem1_bound(init)
        states = nlo_trajectory(init, 200)
        peak = max(abs(st.q1) for st in states)
        if peak > bound * (1 + 1e-12):
            failures.append(("bound", s, v, q, peak, bound))
        for layer in (2, 17, 200):
            if not math.isclose(
                lemma_r_closed_form(init, layer), states[layer - 1].r, rel_tol=1e-9, abs_tol=1e-12
            ):
                failures.append(("lemma-r", s, v, q, layer))
        for layer in (3, 17, 200):
            if not math.isclose(
                lemma_q1_closed_form(init, layer), states[layer - 1].q1, rel_tol=1e-9, abs_tol=1e-12
            ):
                failures.append(("lemma-q1", s, v, q, layer))
    elapsed = time.perf_counter() - t0
    _report(
        "width-correction envelope and closed forms (50 inits, 200 layers)",
        not failures and elapsed < 10.0,
        f"{len(failures)} failures, {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# derivative consistency
# --------------------------------------------------------------------------

def test_derivative_consistency():
    """Closed forms of V', V'' and chi1' match central finite differences to
    relative 1e-5 on a 100-point randomized (tau, m, q) grid, and the
    slope/curvature offset identities hold to 1e-10 for both families."""
    rng = np.random.default_rng(515)
    failures = []
    for trial in range(100):
        kind = "cst" if trial % 2 else "crelu"
        tau = float(rng.uniform(0.05, 1.8))
        m = float(rng.uniform(0.2, 2.8))
        sw2 = float(rng.uniform(0.5, 8.0))
        q = float(rng.uniform(0.2, 4.0))
        spec = ActivationSpec(kind, tau, m)

        h = 1e-5 * q
        fd1 = (v_map(spec, sw2, 0.0, q + h) - v_map(spec, sw2, 0.0, q - h)) / (2 * h)
        if not math.isclose(v_prime(spec, sw2, q), fd1, rel_tol=1e-5, abs_tol=1e-7):
            failures.append(("v_prime", trial))

        # 5-point stencil at a wider step: the O(h^4) truncation affords a
        # step large enough to keep subtraction roundoff below the target
        # even where the moment assembles from cancelling small terms
        h2 = 1e-3 * q
        fd2 = (
            -v_map(spec, sw2, 0.0, q + 2 * h2)
            + 16 * v_map(spec, sw2, 0.0, q + h2)
            - 30 * v_map(spec, sw2, 0.0, q)
            + 16 * v_map(spec, sw2, 0.0, q - h2)
            - v_map(spec, sw2, 0.0, q - 2 * h2)
        ) / (12 * h2 * h2)
        if not math.isclose(v_prime2(spec, sw2, q), fd2, rel_tol=1e-5, abs_tol=1e-6):
            failures.append(("v_prime2", trial))

        fdc = (chi1(spec, sw2, q + h) - chi1(spec, sw2, q - h)) / (2 * h)
        if not math.isclose(chi1_prime(spec, sw2, q), fdc, rel_tol=1e-5, abs_tol=1e-7):
            failures.append(("chi1_prime", trial))

        factor = 2.0 if kind == "cst" else 1.0
        tm = tau + m
        clip1 = factor * sw2 * m / math.sqrt(2 * math.pi * q) * math.exp(-(tm ** 2) / (2 * q))
        if abs(chi1(spec, sw2, q) - v_prime(spec, sw2, q) - clip1) > 1e-10 * max(
            1.0, chi1(spec, sw2, q)
        ):
            failures.append(("identity-slope", trial))
        clip2 = clip1 * (-1.0 / (2 * q) + tm ** 2 / (2 * q * q))
        if abs(chi1_prime(spec, sw2, q) - v_prime2(spec, sw2, q) - clip2) > 1e-10 * max(
            1.0, abs(chi1_prime(spec, sw2, q))
        ):
            failures.append(("identity-curvature", trial))
    _report(
        "derivative closed forms vs finite differences (100-point grid)",
        not failures,
        f"{len(failures)} failures",
    )


# --------------------------------------------------------------------------
# Monte Carlo agreement
# --------------------------------------------------------------------------

def test_monte_carlo_agreement():
    """Width-1000 depth-20 forward runs at (s=0.85, V'=0.7, q* in {1,2,3}):
    layer-averaged variance within 5 percent of q*, zero fraction within
    0.02 of s; unit first spectral moment at criticality to 1e-9.  Under
    60 s."""
    t0 = time.perf_counter()
    failures = []
    for q_star in (1.0, 2.0, 3.0):
        init = solve_init("crelu", 0.85, q_star, 0.7)
        stats = run_forward(
            SimConfig(init=init, depth=20, width=1000, batch=64, seed=1)
        )
        q_avg = float(np.mean([st.q_hat for st in stats[4:]]))
        s_avg = float(np.mean([st.sparsity_hat for st in stats[4:]]))
        if abs(q_avg / q_star - 1.0) > 0.05:
            failures.append(("q_hat", q_star, q_avg))
        if abs(s_avg - 0.85) > 0.02:
            failures.append(("sparsity", q_star, s_avg))
        for depth in (1, 10, 100):
            if abs(jacobian_moments(init, depth).m1 - 1.0) > 1e-9:
                failures.append(("m1", q_star, depth))
    elapsed = time.perf_counter() - t0
    _report(
        "Monte Carlo agreement at width 1000 + unit spectral moment",
        not failures and elapsed < 60.0,
        f"{len(failures)} failures, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# trainability (substitute for full-scale accuracy tables)
# --------------------------------------------------------------------------

def test_trainability_gradient_check():
    """(a) analytic gradients match central differences to relative 1e-4."""
    init = solve_init("crelu", 0.85, 1.0, 0.7)
    config = TrainConfig(
        init=init, depth=3, width=5, epochs=1, lr=0.01, batch=8, seed=7,
        dataset="synthetic-blobs", n_samples=32, input_dim=6, n_classes=3,
    )
    from eoc_lab.trainer import (
        forward,
        init_params,
        loss_and_grads,
        make_blobs,
        normalize_inputs,
    )

    x_raw, y = make_blobs(config.seed, config.n_samples, config.input_dim, config.n_classes)
    x = normalize_inputs(x_raw, init.q_star)[:16]
    y = y[:16]
    params = init_params(config)
    h_list = [h for h, _ in forward(params, init.spec, x)]
    margin = min(
        float(np.min(np.abs(h[:, :, None] - np.array(kinks(init.spec))[None, None, :])))
        for h in h_list[:-1]
    )
    assert margin > 1e-4, "finite differences need clearance from the kinks"

    _, grads = loss_and_grads(params, init.spec, x, y)
    rng = np.random.default_rng(11)
    step = 1e-6
    worst = 0.0
    for _ in range(50):
        layer = int(rng.integers(0, config.depth))
        pick_bias = bool(rng.integers(0, 2))
        target = params[layer][1] if pick_bias else params[layer][0]
        idx = tuple(int(rng.integers(0, s)) for s in target.shape)

        def perturbed(sign):
            clone = [(w.copy(), b.copy()) for w, b in params]
            tgt = clone[layer][1] if pick_bias else clone[layer][0]
            tgt[idx] += sign * step
            return loss_and_grads(clone, init.spec, x, y)[0]

        fd = (perturbed(+1.0) - perturbed(-1.0)) / (2 * step)
        analytic = (grads[layer][1] if pick_bias else grads[layer][0])[idx]
        denom = max(abs(fd), 1e-9)
        worst = max(worst, abs(analytic - fd) / denom)
    _report("trainability (a): gradient check", worst <= 1e-4, f"worst rel err {worst:.2e}")


def steps_to_loss(report, threshold: float) -> int | None:
    """First cumulative step count at which the epoch-mean training loss is
    at or below the threshold; None if never reached."""
    for epoch, loss in enumerate(report.train_losses, start=1):
        if math.isfinite(loss) and loss <= threshold:
            return epoch * report.steps_per_epoch
    return None


def _comparative_run(q_star: float, seed: int):
    init = solve_init("crelu", 0.85, q_star, 0.7)
    config = TrainConfig(
        init=init, depth=30, width=64, epochs=300, lr=0.002, batch=32, seed=seed,
        dataset="synthetic-blobs", n_samples=1000, input_dim=64, n_classes=10,
    )
    report = train(config)
    steps = steps_to_loss(report, 1.0)
    censored = (report.epochs_run + 1) * report.steps_per_epoch
    return (steps if steps is not None else censored), report


def test_trainability_comparative():
    """(b) depth-30 width-64 at s=0.85, V'=0.7, five shared seeds: the mean
    step count to reach training loss 1.0 at q*=3 is at most that of q*=1
    (runs never reaching it are censored at the full budget), and no q*=3
    seed diverges.  (c) observed sparsity at initialisation within 0.02 of
    the target.  Budget 20 minutes.

    At fixed (s, V') the initialisation is the same in units of q*, so the
    q* = 3 run is the q* = 1 run with its logits scaled by sqrt(3) and its
    bias learning rate by 1/3 (``test_trainer.py::
    test_larger_qstar_is_a_logit_scale``).  At this fixed lr the contrast is
    a logit-scale contrast: the logit factor alone recovers the gain, and
    so does about twice the lr at q* = 1, so it does not show that a
    larger q* helps at a tuned lr (the table of ROADMAP.md, item 7)."""
    t0 = time.perf_counter()
    steps = {1.0: [], 3.0: []}
    diverged3 = []
    sparsity_checked = False
    for q_star in (1.0, 3.0):
        for seed in range(5):
            count, report = _comparative_run(q_star, seed)
            steps[q_star].append(count)
            if q_star == 3.0:
                diverged3.append(report.diverged)
            if q_star == 1.0 and seed == 1:
                sparsity_checked = abs(report.sparsity_at_init - 0.85) <= 0.02
    mean1 = float(np.mean(steps[1.0]))
    mean3 = float(np.mean(steps[3.0]))
    med1 = float(np.median(steps[1.0]))
    med3 = float(np.median(steps[3.0]))
    elapsed = time.perf_counter() - t0
    ok = mean3 <= mean1 and not any(diverged3) and sparsity_checked and elapsed < 1200.0
    _report(
        "trainability (b)+(c): larger q* trains faster at high sparsity",
        ok,
        f"steps q*=3 mean {mean3:.0f} / median {med3:.0f} vs "
        f"q*=1 mean {mean1:.0f} / median {med1:.0f}; "
        f"divergences: {sum(diverged3)}; {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# CLI determinism
# --------------------------------------------------------------------------

def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "eoc_lab"] + args, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_determinism(tmp_path):
    """Every command, run twice with identical flags and seeds, produces
    byte-identical stdout and output files."""
    cases = {
        "solve": ["solve", "--activation", "crelu", "-s", "0.85", "--qstar", "2",
                   "--vprime", "0.7"],
        "fixed-points": ["fixed-points", "--activation", "crelu", "-s", "0.85",
                          "--qstar", "1", "--m", "2.0"],
        "jacobian": ["jacobian", "--activation", "cst", "-s", "0.7", "--qstar", "1",
                      "--vprime", "0.7", "--depth", "12"],
        "sweep": ["sweep", "--quantity", "Vprimeprime", "--activation", "crelu",
                   "--sparsity", "0.85,0.9", "--qstar-range", "0.5:3:5",
                   "--m-range", "0.5:2.5:5", "--out", None],
        "nlo": ["nlo", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                 "--vprime", "0.9", "--depth", "40", "--out", None],
        "simulate": ["simulate", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                      "--vprime", "0.7", "--depth", "5", "--width", "64",
                      "--batch", "8", "--seed", "7", "--backward", "--out", None],
        "correlate": ["correlate", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                       "--vprime", "0.7", "--depth", "5", "--width", "64",
                       "--batch", "8", "--seed", "7", "--rho0", "0.5", "--out", None],
        "train": ["train", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                   "--vprime", "0.7", "--dataset", "synthetic-blobs", "--depth", "3",
                   "--width", "8", "--epochs", "2", "--lr", "0.01", "--batch", "8",
                   "--seed", "3", "--n-samples", "64", "--input-dim", "8",
                   "--n-classes", "3", "--log-csv", None],
    }
    mismatches = []
    for name, args in cases.items():
        concrete = list(args)
        file_path = None
        for i, token in enumerate(concrete):
            if token is None:
                # same path both runs so the echoed config is identical too
                file_path = tmp_path / f"{name}.out"
                concrete[i] = str(file_path)
        outputs = []
        for _ in (0, 1):
            stdout = _run_cli(concrete)
            payload = stdout + (file_path.read_text() if file_path else "")
            outputs.append(payload)
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    _report(
        "CLI determinism (byte-identical reruns)",
        not mismatches,
        f"{len(cases)} commands, mismatches: {mismatches or 'none'}",
    )

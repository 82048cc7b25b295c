"""Tests of the command-line surface: flag handling, output schemas,
exit codes and determinism."""

import argparse
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from oracles import write_csv_rowwise

import eoc_lab
from eoc_lab import cli, finite_width, maps, simulator, solver
from eoc_lab._moments import _Kernel
from eoc_lab.activations import ActivationSpec
from eoc_lab.solver import (
    InfeasibleTargetError,
    critical_gain,
    init_from_m,
    relu_init,
    solve_init,
    sparsity_threshold,
)

SOLVE = [sys.executable, "-m", "eoc_lab"]


def run_cli(args, **kwargs):
    return subprocess.run(
        SOLVE + args, capture_output=True, text=True, timeout=600, **kwargs
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reject_constant(token):
    """parse_constant for json.loads: NaN and Infinity are not JSON."""
    raise ValueError(f"{token} is not JSON")


def _run_in_process(argv, tmp_path, capsys):
    """The stdout document of one command run by ``cli.main``, and the rows
    of its table with numbers parsed (None without ``tmp_path``, for the
    commands that write no table)."""
    out = [] if tmp_path is None else ["--out", str(tmp_path / "out.csv")]
    capsys.readouterr()
    assert cli.main([*argv, *out]) == 0
    doc = json.loads(capsys.readouterr().out)
    if tmp_path is None:
        return doc, None
    return doc, [{key: float(v) if v and key != "activation" else v for key, v in row.items()}
                 for row in read_csv(out[1])]


# the power of 2^k by which each output scales under q* -> 4^k q*: lengths
# by 2^k, variances by 4^k, r by 16^k, V'' and chi1' by 4^-k; every other
# output is unchanged
_POWER = {
    "tau": 1, "m": 1, "m_range": 1, "q_star": 2, "q": 2, "sb2": 2, "V": 2, "q_hat": 2,
    "anchor_q_star": 2, "q_star_range": 2, "search_interval": 2, "nlo_bound": 2, "bound": 2,
    "q1": 2, "trajectory_max_abs_q1": 2, "r": 4, "Vprimeprime": -2, "chi1prime": -2,
}


def assert_covariant(new, old, k, key=None, power=_POWER):
    """``new``, a command's output at q* = 4^k q0, is ``old``, the output
    at q0, with every number scaled by its power of 2^k exactly.  A value
    beyond the float range reads inf (null in JSON).  A subnormal one is
    rounded at its own step, so it may be a step or two off; log_bound is
    a logarithm, shifted by 2k log 2 up to its rounding."""
    if isinstance(old, dict):
        assert list(new) == list(old)
        for name in old:
            assert_covariant(new[name], old[name], k, name, power)
    elif isinstance(old, (list, tuple)):
        assert len(new) == len(old), key
        for a, b in zip(new, old):
            assert_covariant(a, b, k, key, power)
    elif key == "log_bound" and old is not None:
        assert new == pytest.approx(old + 2 * k * math.log(2.0), rel=1e-14, abs=1e-14)
    elif isinstance(old, float) and key in power:
        try:
            expected = math.ldexp(old, power[key] * k)
        except OverflowError:
            expected = math.copysign(math.inf, old)
        if new is None:  # JSON's null for a non-finite number
            assert not math.isfinite(expected), key
        elif abs(expected) < sys.float_info.min:
            assert abs(new - expected) <= 2 * math.ulp(0.0), key
        else:
            assert repr(new) == repr(expected), key
    else:
        assert repr(new) == repr(old), key


class TestSolve:
    def test_solve_matches_golden_cell(self):
        proc = run_cli(["solve", "--activation", "crelu", "-s", "0.85",
                        "--qstar", "3", "--vprime", "0.7"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["schema_version"] == "1"
        assert doc["init"]["activation"]["m"] == pytest.approx(2.03, abs=0.01)
        assert doc["diagnostics"]["Vprimeprime"] == pytest.approx(0.01, abs=0.01)
        assert doc["nlo_bound"] is not None

    @pytest.mark.parametrize("command", [["solve"], ["jacobian", "--depth", "10"]])
    def test_subnormal_qstar_is_the_q0_run(self, command, capsys):
        """A subnormal q* is an exact value whose q0 is normal: the command
        exits 0 with no warning, and its document is the q0 document
        scaled (it exited 1 naming the smallest normal float)."""
        relu = ["--activation", "relu"]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "eoc_lab", *command,
             *relu, "--qstar", "5e-309"],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["init"]["sb2"] == 0.0
        k = (math.frexp(5e-309)[1] - 1) // 2
        q0_doc, _ = _run_in_process([*command, *relu, "--qstar", repr(math.ldexp(5e-309, -2 * k))],
                                    None, capsys)
        assert_covariant(doc, q0_doc, k)

    def test_solve_median_sparsity_zero_threshold(self):
        proc = run_cli(["solve", "--activation", "crelu", "-s", "0.5",
                        "--qstar", "1", "--vprime", "0.7"])
        doc = json.loads(proc.stdout)
        assert doc["init"]["activation"]["tau"] == 0.0

    def test_solve_two_sided_family_cell(self):
        proc = run_cli(["solve", "--activation", "cst", "-s", "0.85",
                        "--qstar", "1", "--vprime", "0.9"])
        doc = json.loads(proc.stdout)
        assert doc["init"]["activation"]["m"] == pytest.approx(1.74, abs=0.01)
        assert doc["diagnostics"]["Vprimeprime"] == pytest.approx(1.05, abs=0.01)

    def test_missing_flags_usage_error(self):
        proc = run_cli(["solve", "--activation", "crelu"])
        assert proc.returncode == 1

    def test_abbreviated_flag_is_rejected(self):
        proc = run_cli(["solve", "--activation", "crelu", "-s", "0.85",
                        "--qstar", "1", "--vprime", "0.7", "--q", "2"])
        assert proc.returncode == 1
        assert "unrecognized arguments: --q 2" in proc.stderr
        assert proc.stdout == ""

    def test_bad_flag_value(self):
        proc = run_cli(["solve", "--activation", "crelu", "-s", "1.5",
                        "--qstar", "1", "--vprime", "0.7"])
        assert proc.returncode == 1

    def test_relu_solve_reports_canonical_init(self):
        proc = run_cli(["solve", "--activation", "relu", "--qstar", "2"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["init"]["sw2"] == 2.0
        assert doc["nlo_bound"] is None

    def test_infeasible_target_exit_code(self):
        # a slope this close to 0 needs a clip level m / sqrt(q*) of about
        # 1e-8, below the solver's bracket: a real infeasible-target outcome
        proc = run_cli(["solve", "--activation", "crelu", "-s", "0.6",
                        "--qstar", "1", "--vprime", "1e-9"])
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert doc["error"]["type"] == "infeasible_target"

    def test_clip_level_scales_with_sqrt_q_star(self):
        """The slope equation depends on m only through m / sqrt(q*), so the
        solve succeeds at every q* and gives the same ratio."""
        ratios = []
        for q_star in ("1e-4", "1", "1e4"):
            proc = run_cli(["solve", "--activation", "crelu", "-s", "0.5",
                            "--qstar", q_star, "--vprime", "0.5"])
            assert proc.returncode == 0, proc.stdout + proc.stderr
            init = json.loads(proc.stdout)["init"]
            ratios.append(init["activation"]["m"] / math.sqrt(init["q_star"]))
        assert ratios[1] == pytest.approx(1.39998527687, abs=1e-10)
        for ratio in ratios:
            assert ratio == pytest.approx(ratios[1], rel=1e-10)

    def test_crelu_sparsity_floor_named(self):
        proc = run_cli(["solve", "--activation", "crelu", "-s", "0.3",
                        "--qstar", "1", "--vprime", "0.5"])
        assert proc.returncode == 1
        assert "crelu needs sparsity s >= 0.5, got s=0.3" in proc.stderr

    def test_invalid_values_are_usage_errors(self):
        proc = run_cli(["solve", "--activation", "relu", "--qstar", "-1"])
        assert proc.returncode == 1
        proc = run_cli(["fixed-points", "--activation", "crelu", "-s", "0.85",
                        "--qstar", "1", "--m", "2.0", "--lo", "5", "--hi", "10"])
        assert proc.returncode == 1


class TestSweep:
    def test_curvature_grid_contains_both_signs(self, tmp_path):
        out = tmp_path / "grid.csv"
        proc = run_cli(["sweep", "--quantity", "Vprimeprime", "--activation", "crelu",
                        "--sparsity", "0.85", "--qstar-range", "0.5:3:6",
                        "--m-range", "0.5:3:6", "--out", str(out)])
        assert proc.returncode == 0
        rows = read_csv(out)
        assert len(rows) == 36
        values = [float(r["value"]) for r in rows]
        assert min(values) < 0.0 < max(values)

    def test_grid_cells_match_library(self, tmp_path):
        from eoc_lab.maps import chi1_prime
        from eoc_lab.solver import critical_gain, sparsity_threshold
        from eoc_lab.activations import ActivationSpec

        out = tmp_path / "grid.csv"
        run_cli(["sweep", "--quantity", "chi1prime", "--activation", "crelu",
                 "--sparsity", "0.85", "--qstar-range", "1:3:3",
                 "--m-range", "1:2:3", "--out", str(out)])
        for row in read_csv(out):
            q, m = float(row["q_star"]), float(row["m"])
            tau = sparsity_threshold("crelu", 0.85, q)
            spec = ActivationSpec("crelu", tau, m)
            expected = chi1_prime(spec, critical_gain(spec, q), q)
            assert float(row["value"]) == pytest.approx(expected, rel=1e-12)

    def test_vmap_curve_diagonal_crossings(self, tmp_path):
        out = tmp_path / "curves.csv"
        proc = run_cli(["sweep", "--quantity", "vmap_curve", "--activation", "crelu",
                        "--sparsity", "0.85", "--qstar", "1.0",
                        "--qstar-range", "0.1:5:400", "--m-range", "1.2:2.0:5",
                        "--out", str(out)])
        assert proc.returncode == 0
        rows = read_csv(out)
        assert len(rows) == 400 * 5
        by_m = {}
        for r in rows:
            by_m.setdefault(float(r["m"]), []).append((float(r["q"]), float(r["value"])))
        crossings = {}
        for m, pts in by_m.items():
            pts.sort()
            resid = [v - q for q, v in pts]
            crossings[m] = sum(
                1 for a, b in zip(resid, resid[1:]) if a == 0.0 or a * b < 0
            )
        assert crossings[1.2] == 1
        assert crossings[2.0] >= 2

    @pytest.mark.parametrize("quantity,kind,q_range", [
        ("Vprime", "crelu", "0.5:3:4"),
        ("Vprimeprime", "crelu", "0.5:3:4"),
        ("chi1prime", "cst", "0.5:3:4"),
        # at the low-q* corner of this grid V'(q*) rounds to 1.0 (m >= 2.5)
        # or to within 5.1e-13 of it (m = 2), while the bound stays finite
        ("nlo_bound", "cst", "0.09:3:6"),
        ("vmap_curve", "crelu", "0.1:5:7"),
    ])
    def test_array_sweep_matches_scalar_calls(self, tmp_path, capsys, quantity, kind, q_range):
        """Every cell of the whole-grid sweep equals the scalar public calls
        to 1e-12 relative, its nan cells are exactly the infeasible ones, and
        these grids have none."""
        out = tmp_path / "grid.csv"
        anchor = ["--qstar", "1.3"] if quantity == "vmap_curve" else []
        rc = cli.main(["sweep", "--quantity", quantity, "--activation", kind,
                       "--sparsity", "0.6,0.8", "--qstar-range", q_range,
                       "--m-range", "0.5:3:6", *anchor, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0

        def scalar(s, q, m, anchor):
            if quantity == "vmap_curve":
                try:
                    init = init_from_m(kind, s, anchor, m)
                except InfeasibleTargetError:
                    return math.nan
                return maps.v_map(init.spec, init.sw2, init.sb2, q)
            if quantity == "nlo_bound":
                try:
                    return finite_width.theorem1_bound(init_from_m(kind, s, q, m))
                except ValueError:
                    return math.nan
            spec = ActivationSpec(kind, sparsity_threshold(kind, s, q), m)
            try:
                sw2 = critical_gain(spec, q)
            except InfeasibleTargetError:
                return math.nan
            fn = {"Vprime": maps.v_prime, "Vprimeprime": maps.v_prime2,
                  "chi1prime": maps.chi1_prime}[quantity]
            return fn(spec, sw2, q)

        rows = read_csv(out)
        assert len(rows) == 2 * 6 * int(q_range.split(":")[2])
        nan_cells = 0
        for row in rows:
            s, m, value = float(row["s"]), float(row["m"]), float(row["value"])
            if quantity == "vmap_curve":
                expected = scalar(s, float(row["q"]), m, float(row["anchor_q_star"]))
            else:
                expected = scalar(s, float(row["q_star"]), m, None)
            assert math.isnan(value) == math.isnan(expected), row
            if math.isnan(value):
                nan_cells += 1
            else:
                assert value == pytest.approx(expected, rel=1e-12, abs=0.0), row
        assert nan_cells == 0

    def test_usage_error_on_missing_range(self):
        proc = run_cli(["sweep", "--quantity", "Vprime", "--activation", "crelu",
                        "--sparsity", "0.85"])
        assert proc.returncode == 1

    def test_missing_flags_named_by_option_string(self):
        proc = run_cli(["sweep", "--quantity", "Vprime", "--activation", "crelu"])
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: missing required flag(s): --sparsity, --qstar-range, --m-range, --out\n"
        )

    def test_empty_sparsity_list_is_usage_error(self, tmp_path):
        out = tmp_path / "grid.csv"
        proc = run_cli(["sweep", "--quantity", "Vprime", "--activation", "crelu",
                        "--sparsity", ",", "--qstar-range", "0.5:3:3",
                        "--m-range", "1:2:2", "--out", str(out)])
        assert proc.returncode == 1
        assert "--sparsity: need at least one value" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--qstar-range", "--m-range"])
    @pytest.mark.parametrize("bounds", ["0.5:inf:3", "nan:3:3", "-1e308:1e308:3"])
    def test_non_finite_range_is_named_usage_error(self, tmp_path, flag, bounds):
        """A range whose bounds or width are not finite would fill the grid
        with nan behind a numpy warning."""
        out = tmp_path / "grid.csv"
        ranges = {"--qstar-range": "0.5:3:3", "--m-range": "1:2:2", flag: bounds}
        proc = run_cli(["sweep", "--quantity", "Vprime", "--activation", "crelu",
                        "--sparsity", "0.85", *(f"{k}={v}" for k, v in ranges.items()),
                        "--out", str(out)])
        assert proc.returncode == 1
        assert f"argument {flag}: lo, hi and hi - lo must be finite, got {bounds}" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("bounds, message", [
        ("0:5:4", "positive and finite, got 0.0"),
        ("-1:5:4", "positive and finite, got -1.0"),
    ], ids=["zero", "negative"])
    def test_vmap_curve_q_axis_is_checked(self, tmp_path, bounds, message):
        """vmap_curve's q axis passes the variance check of every kernel."""
        out = tmp_path / "vm.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "eoc_lab", "sweep",
             "--quantity", "vmap_curve", "--activation", "crelu", "--sparsity", "0.85",
             "--qstar", "1.0", f"--qstar-range={bounds}", "--m-range", "1.2:2.0:2",
             "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: variance must be {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    def test_vmap_curve_below_the_threshold_is_sb2(self, tmp_path, kind):
        """At a subnormal q the threshold a = tau / sqrt(q) passes 1e154 and
        the segment has no mass in float: V(q) reads sb2, with no warning
        (the q axis was refused; at 2.3e-308 a^2 overflowed into nan)."""
        out = tmp_path / "vm.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "eoc_lab", "sweep",
             "--quantity", "vmap_curve", "--activation", kind, "--sparsity", "0.85",
             "--qstar", "1.0", "--qstar-range=1e-309:5:4", "--m-range", "1.2:2.0:2",
             "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        rows = read_csv(out)
        assert len(rows) == 8
        for row in rows:
            if row["q"] == "1e-309":
                init = init_from_m(kind, 0.85, 1.0, float(row["m"]))
                assert float(row["value"]) == init.sb2

    @pytest.mark.parametrize("key, flag, text, form", [
        ("s_list", "--sparsity", "0.85,x", "comma-separated numbers"),
        ("qstar_range", "--qstar-range", "a:b:3", "lo:hi:steps"),
        ("m_range", "--m-range", "1:2:2.5", "lo:hi:steps"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_unparsable_value_names_the_form(self, tmp_path, key, flag, text, form, route):
        """A value that is not a number is reported with the form the flag
        takes, not with the name of the function that parses it."""
        out = tmp_path / "grid.csv"
        given = {"--sparsity": "0.85", "--qstar-range": "0.5:3:3", "--m-range": "1:2:2"}
        if route == "flag":
            given[flag] = text
        else:
            del given[flag]
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: text}))
            given["--config"] = str(cfg)
        proc = run_cli(["sweep", "--quantity", "Vprime", "--activation", "crelu",
                        *(f"{k}={v}" for k, v in given.items()), "--out", str(out)])
        assert proc.returncode == 1
        assert form in proc.stderr and text in proc.stderr
        assert "_float_list" not in proc.stderr and "_range_triple" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("quantity, sparsity, q_range, m_range, message", [
        ("Vprime", "0.7,0.3", "0.5:3:3", "1:2:2", "crelu needs sparsity s >= 0.5, got s=0.3"),
        ("Vprime", "0.7,0.8", "0.5:3:3", "-1:2:4", "m must be a finite positive clip level"),
        ("nlo_bound", "0.7", "-1:3:5", "1:2:2", "variance must be positive and finite, got -1.0"),
        ("vmap_curve", "0.7", "0:5:4", "1:2:2", "variance must be positive and finite, got 0.0"),
    ], ids=["late-sparsity", "m-axis", "qstar-axis", "vmap-q-axis"])
    def test_bad_input_leaves_no_file(self, tmp_path, capsys, quantity, sparsity, q_range,
                                      m_range, message):
        """Every input is checked before the file is opened: a bad one exits
        1, names the problem and leaves no file."""
        out = tmp_path / "grid.csv"
        rc = cli.main(["sweep", "--quantity", quantity, "--activation", "crelu",
                       "--sparsity", sparsity, f"--qstar-range={q_range}",
                       f"--m-range={m_range}", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("quantity", [q for q in cli.SWEEP_QUANTITIES if q != "vmap_curve"])
    def test_qstar_is_read_only_by_vmap_curve(self, tmp_path, capsys, quantity):
        """--qstar anchors vmap_curve; no other quantity reads it, so giving
        it is a usage error, not a header value that no cell used."""
        out = tmp_path / "grid.csv"
        rc = cli.main(["sweep", "--quantity", quantity, "--activation", "crelu",
                       "--sparsity", "0.85", "--qstar-range", "0.5:3:3", "--m-range", "1:2:2",
                       "--qstar", "7", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: flag(s) read only by --quantity vmap_curve: --qstar\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("quantity, anchor", [("vmap_curve", 1.0), ("Vprime", None)])
    def test_header_reports_the_anchor_used(self, tmp_path, capsys, quantity, anchor):
        """Without --qstar, vmap_curve anchors at q* = 1.0 and its header
        says so, as every row does; no other quantity has an anchor."""
        out = tmp_path / "grid.csv"
        assert cli.main(["sweep", "--quantity", quantity, "--activation", "crelu",
                         "--sparsity", "0.85", "--qstar-range", "0.5:3:3", "--m-range", "1:2:2",
                         "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["anchor_q_star"] == anchor
        if anchor is not None:
            assert {row["anchor_q_star"] for row in read_csv(out)} == {repr(anchor)}

    @pytest.mark.parametrize("quantity", cli.SWEEP_QUANTITIES)
    def test_rows_are_sized_as_written(self, tmp_path, monkeypatch, capsys, quantity):
        """The rows handed to _write_csv report, before and after they are
        written, the number of rows the CSV then holds: 12291, four chunks
        of lines.  The benchmark's tracer counts rows written as this len()
        after each write."""
        sizes = []
        write_csv = cli._write_csv

        def sized(path, header, rows):
            before = len(rows)
            write_csv(path, header, rows)
            sizes.append((before, len(rows)))

        monkeypatch.setattr(cli, "_write_csv", sized)
        out = tmp_path / "grid.csv"
        assert cli.main(["sweep", "--quantity", quantity, "--activation", "cst",
                         "--sparsity", "0.6,0.7,0.8", "--qstar-range", "0.1:5:17",
                         "--m-range", "0.5:3:241", "--out", str(out)]) == 0
        capsys.readouterr()
        assert sizes == [(len(read_csv(out)),) * 2] == [(3 * 17 * 241,) * 2]

    @pytest.mark.parametrize("quantity,kind,sparsity,q_range,m_range,has_nan", [
        # 2 x 32 x 64 = 4096 rows: exactly one chunk of lines
        *[(q, "crelu", "0.6,0.8", (0.1, 5.0, 32), (0.5, 3.0, 64), False)
          for q in cli.SWEEP_QUANTITIES],
        # 17 x 241 = 4097 rows: one chunk and one line
        *[(q, "cst", "0.7", (0.1, 5.0, 17), (0.5, 3.0, 241), False)
          for q in cli.SWEEP_QUANTITIES],
        # the q* = 0.01 cells read nan
        ("nlo_bound", "crelu", "0.6,0.85", (0.01, 1.0, 4), (4.0, 8.0, 4), True),
    ])
    def test_bytes_match_rowwise_oracle(self, tmp_path, capsys, quantity, kind, sparsity,
                                        q_range, m_range, has_nan):
        """The streamed CSV is byte for byte the one a row-at-a-time writer
        makes from the same cell values."""
        out, expected = tmp_path / "grid.csv", tmp_path / "expected.csv"
        anchor = ["--qstar", "1.3"] if quantity == "vmap_curve" else []
        rc = cli.main(["sweep", "--quantity", quantity, "--activation", kind,
                       "--sparsity", sparsity, *anchor,
                       "--qstar-range", ":".join(map(str, q_range)),
                       "--m-range", ":".join(map(str, m_range)), "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        s_list = [float(s) for s in sparsity.split(",")]
        q_grid, m_grid = np.linspace(*q_range), np.linspace(*m_range)
        tau_at = 1.3 if quantity == "vmap_curve" else q_grid[:, None]
        blocks = (cli._sweep_block(quantity, kind, sparsity_threshold(kind, s, tau_at),
                                   q_grid, m_grid, 1.3) for s in s_list)
        values = [v for block in blocks for chunk in block for v in chunk]
        if quantity == "vmap_curve":
            header = ("activation", "s", "anchor_q_star", "m", "q", "value")
            coords = itertools.product([kind], s_list, [1.3], m_grid, q_grid)
        else:
            header = ("activation", "s", "q_star", "m", "value")
            coords = itertools.product([kind], s_list, q_grid, m_grid)
        write_csv_rowwise(expected, header, [(*c, v) for c, v in zip(coords, values)])
        written = out.read_bytes()
        assert written == expected.read_bytes()
        assert (b",nan\n" in written) == has_nan

    def test_overflowing_bound_is_a_quiet_inf_cell(self, tmp_path):
        """Where 1 - V'(q*) is below about 1e-154 the envelope exceeds the
        float range: the cell reads inf and nothing is printed."""
        out = tmp_path / "inf.csv"
        proc = run_cli(["sweep", "--quantity", "nlo_bound", "--activation", "cst",
                        "--sparsity", "0.85", "--qstar-range", "0.01:50:40",
                        "--m-range", "0.01:20:40", "--out", str(out)])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert [r["value"] for r in read_csv(out)].count("inf") == 3

    @pytest.mark.parametrize("quantity", cli.SWEEP_QUANTITIES)
    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    @pytest.mark.parametrize("rows, cols", [(17, 241), (3, 5000)])
    def test_chunks_match_whole_block(self, quantity, kind, rows, cols):
        """A block evaluated a chunk of rows at a time holds, bit for bit,
        the values of one whole-grid evaluation: 17 rows of 241 cells are a
        chunk of 16 rows and a ragged one of 1, and a row of 5000 cells,
        longer than a chunk, is a chunk of its own.  The leading axis is q*,
        or m for vmap_curve."""
        lead, other = np.linspace(0.01, 5.0, rows), np.linspace(0.05, 8.0, cols)
        q_grid, m_grid = (other, lead) if quantity == "vmap_curve" else (lead, other)
        tau = sparsity_threshold(kind, 0.8, 1.3 if quantity == "vmap_curve" else q_grid[:, None])
        block = np.array([v for chunk in cli._sweep_block(quantity, kind, tau, q_grid, m_grid, 1.3)
                          for v in chunk])
        whole = _whole_block(quantity, kind, 0.8, q_grid, m_grid, 1.3)
        assert np.isfinite(whole).any()
        assert block.tobytes() == whole.tobytes()

    def test_peak_memory_per_cell(self, tmp_path, capsys):
        """A sweep holds the temporaries, values and lines of one chunk, and
        its axes as text.  At 2 x 300 x 300 and 2 x 500 x 500 cells the
        traced peak is at most 2.5 MiB (2.01 and 2.07 measured), and
        between them it grows by at most 1 byte a cell (0.17 measured).
        Holding every value before writing grew 8.1 bytes a cell (2.66 and
        5.13 MiB); evaluating each block whole, 60; building a list of every
        row before writing, 192."""
        def argv(steps):
            return ["sweep", "--quantity", "Vprimeprime", "--activation", "crelu",
                    "--sparsity", "0.65,0.87", "--qstar-range", f"0.5:3:{steps}",
                    "--m-range", f"0.5:3:{steps}", "--out", str(tmp_path / "grid.csv")]

        cli.main(argv(10))  # untraced: the modules a first run imports are not state
        peaks = {}
        for steps in (300, 500):
            tracemalloc.start()
            try:
                rc = cli.main(argv(steps))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rc == 0
            cells = 2 * steps * steps
            assert peak <= 2.5 * 2**20, steps
            peaks[cells] = peak
        capsys.readouterr()
        (small, peak_small), (large, peak_large) = sorted(peaks.items())
        assert peak_large - peak_small <= large - small


def _whole_block(quantity, kind, s, q_grid, m_grid, anchor):
    """One sparsity's sweep block from one kernel evaluation over the whole
    grid, flat in CSV row order."""
    if quantity == "vmap_curve":
        q_star, m = anchor, m_grid[:, None]
    else:
        q_star, m = q_grid[:, None], m_grid
    tau = sparsity_threshold(kind, s, q_star)
    k = _Kernel(kind, tau, m, q_star)
    sw2, sb2, verdict = solver._critical(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        if quantity == "Vprime":
            values, infeasible = k.v_prime(sw2), verdict == solver._SATURATED
        elif quantity == "Vprimeprime":
            values, infeasible = k.v_prime2(sw2), verdict == solver._SATURATED
        elif quantity == "chi1prime":
            values, infeasible = k.chi1_prime(sw2), verdict == solver._SATURATED
        elif quantity == "nlo_bound":
            values, infeasible = finite_width._envelope(k, sw2), verdict >= 0
        else:
            values, infeasible = _Kernel(kind, tau, m, q_grid).v(sw2, sb2), verdict >= 0
        return np.where(infeasible, np.nan, values).ravel()


class TestFixedPointsCommand:
    def test_reports_outer_fixed_point(self):
        proc = run_cli(["fixed-points", "--activation", "crelu", "-s", "0.85",
                        "--qstar", "1", "--m", "2.0", "--lo", "0.1", "--hi", "10"])
        doc = json.loads(proc.stdout)
        qs = [p["q"] for p in doc["report"]["points"]]
        assert any(abs(q - 3.5) < 0.3 for q in qs)

    def test_relu_degenerate_flag(self):
        proc = run_cli(["fixed-points", "--activation", "relu", "--qstar", "1"])
        doc = json.loads(proc.stdout)
        assert doc["report"]["degenerate_line"] is True

    def test_infinite_hi_is_named_usage_error(self):
        proc = run_cli(["fixed-points", "--activation", "crelu", "-s", "0.85",
                        "--qstar", "1", "--m", "2.0", "--hi", "inf"])
        assert proc.returncode == 1
        assert proc.stderr == "error: hi must be finite, got inf\n"

    def test_huge_hi_raises_no_warning(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "eoc_lab", "fixed-points",
             "--activation", "crelu", "-s", "0.85", "--qstar", "1", "--m", "2.0",
             "--hi", "1e308"],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["report"]["search_interval"] == [0.05, 1e308]

    def test_negative_bias_variance_near_the_float_limit_raises_no_warning(self):
        """At q* = 9.47e307 the required sb2 is negative beyond the float
        range: exit 2 naming it, with no overflow warning."""
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "eoc_lab", "fixed-points",
             "--activation", "crelu", "-s", "0.999957011756169",
             "--qstar", "9.468370075054572e+307", "--m", "1.5446700032248734e+142"],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        message = json.loads(proc.stdout)["error"]["message"]
        assert message.startswith("required bias variance is negative"), message


class TestNlo:
    def test_row_count_matches_depth(self, tmp_path):
        out = tmp_path / "nlo.csv"
        proc = run_cli(["nlo", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                        "--vprime", "0.9", "--depth", "50", "--out", str(out)])
        assert proc.returncode == 0
        rows = read_csv(out)
        assert len(rows) == 50
        assert list(rows[0]) == ["layer", "q", "r", "q1", "bound"]
        doc = json.loads(proc.stdout)
        assert doc["gain_resolved_per_init"] is True
        assert doc["trajectory_max_abs_q1"] <= doc["bound"] * (1 + 1e-12)

    def test_overflowed_bound_is_null_in_strict_json(self, tmp_path):
        """JSON has no Infinity: the bound is null there, the CSV says inf."""
        out = tmp_path / "nlo.csv"
        proc = run_cli(["nlo", "--activation", "cst", "-s", "0.85", "--qstar", "0.01",
                        "--m", "2.57", "--depth", "10", "--out", str(out)])
        doc = json.loads(proc.stdout, parse_constant=_reject_constant)
        assert doc["bound"] is None
        assert doc["log_bound"] == pytest.approx(722.2245961562998, rel=1e-13)
        assert {row["bound"] for row in read_csv(out)} == {"inf"}

    def test_huge_q_star_runs_without_warning(self, tmp_path):
        """The bound at q* = 1e200 is 1.9e199: it is computed in units of q*,
        and only r, which scales like q*^2, reads inf."""
        out = tmp_path / "big.csv"
        proc = subprocess.run(
            [*SOLVE[:1], "-W", "error::RuntimeWarning", *SOLVE[1:], "nlo", "--activation",
             "crelu", "-s", "0.85", "--qstar", "1e200", "--vprime", "0.7", "--depth", "5",
             "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout, parse_constant=_reject_constant)
        assert doc["bound"] == pytest.approx(0.188270379027554e200, rel=1e-12)
        assert [row["r"] for row in read_csv(out)] == ["0.0"] + ["inf"] * 4


class TestSimulateAndCorrelate:
    def test_simulate_csv_schema(self, tmp_path):
        out = tmp_path / "sim.csv"
        proc = run_cli(["simulate", "--activation", "crelu", "-s", "0.85",
                        "--qstar", "1", "--vprime", "0.7", "--depth", "4",
                        "--width", "64", "--batch", "8", "--seed", "7",
                        "--out", str(out)])
        assert proc.returncode == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert list(rows[0]) == ["layer", "q_hat", "sparsity_hat", "chi1_hat",
                                 "v_hat", "rho_hat"]
        assert rows[0]["v_hat"] == "" and rows[0]["rho_hat"] == ""

    def test_backward_populates_v_hat(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_cli(["simulate", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                 "--vprime", "0.7", "--depth", "4", "--width", "64", "--batch", "8",
                 "--seed", "7", "--backward", "--out", str(out)])
        rows = read_csv(out)
        assert all(r["v_hat"] != "" for r in rows)

    def test_backward_keeps_forward_columns(self, tmp_path):
        """The backward run draws its forward pass exactly as the forward
        run does, so for one seed the forward columns match byte for byte."""
        columns = {}
        for extra in ([], ["--backward"]):
            out = tmp_path / f"sim{len(extra)}.csv"
            proc = run_cli(["simulate", "--activation", "crelu", "-s", "0.85",
                            "--qstar", "1", "--vprime", "0.7", "--depth", "5",
                            "--width", "64", "--batch", "8", "--seed", "7",
                            "--out", str(out)] + extra)
            assert proc.returncode == 0
            lines = out.read_text().splitlines()
            columns[bool(extra)] = [line.split(",")[:4] for line in lines]
        assert columns[True] == columns[False]

    def test_measured_subnormal_variance_is_the_q0_run(self, tmp_path, capsys):
        """A run whose measured variances are subnormal is the q0 run with
        q_hat scaled by 4^k, each rounded once (it exited 1 naming layer 1's
        subnormal q_hat)."""
        flags = ["simulate", "--activation", "relu", "--depth", "4", "--width", "8",
                 "--batch", "4", "--seed", "1"]
        doc, rows = _run_in_process([*flags, "--qstar", "2.3e-308"], tmp_path, capsys)
        assert rows[0]["q_hat"] == 2.0151092290560814e-308
        assert 0.0 < rows[0]["q_hat"] < sys.float_info.min
        k = (math.frexp(2.3e-308)[1] - 1) // 2
        q0 = repr(math.ldexp(2.3e-308, -2 * k))
        assert_covariant((doc, rows), _run_in_process([*flags, "--qstar", q0], tmp_path, capsys), k)

    @pytest.mark.parametrize("command", [["simulate"], ["simulate", "--backward"],
                                         ["correlate", "--rho0", "0.5"]])
    def test_huge_qstar_is_the_scaled_run(self, tmp_path, command):
        """At q* = 1e308 the Gram matrices and squares would overflow (the
        run wrote a dead network: q_hat 0.0, sparsity 1.0).  It is computed
        in lengths scaled by a power of two, so with no warning it is the
        run at q0 = 1e308 / 4^511 with q_hat scaled by 4^511, bit for bit.
        Seed 3's largest layer sample is 1.61 q*, inside the float range."""
        out = tmp_path / "s.csv"
        flags = ["--activation", "relu", "--depth", "4", "--width", "8", "--batch", "4",
                 "--seed", "3"]
        proc = run_cli([*command, *flags, "--qstar", "1e308", "--out", str(out)],
                       env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
        assert proc.returncode == 0 and proc.stderr == ""
        config = simulator.SimConfig(init=relu_init(math.ldexp(1e308, -1022)), depth=4,
                                     width=8, batch=4, seed=3)
        if command[0] == "correlate":
            expected = simulator.run_correlation(config, 0.5)
        else:
            run = simulator.run_backward if "--backward" in command else simulator.run_forward
            expected = run(config)
        for row, st in zip(read_csv(out), expected, strict=True):
            assert float(row["q_hat"]) == math.ldexp(st.q_hat, 1022)
            assert float(row["sparsity_hat"]) == st.sparsity_hat
            assert float(row["chi1_hat"]) == st.chi1_hat
            for column in ("v_hat", "rho_hat"):
                value = getattr(st, column)
                assert row[column] == ("" if value is None else repr(value))

    def test_qstar_beyond_the_float_range_is_named(self, tmp_path):
        """A layer whose measured variance exceeds the largest float exits 1
        naming that layer, and writes no file: at q* = 1.7e308, and at 1e308,
        where seed 1's layer-2 sample is 2.10 q*."""
        out = tmp_path / "s.csv"
        for qstar in ("1.7e308", "1e308"):
            proc = run_cli(["simulate", "--activation", "relu", "--qstar", qstar,
                            "--depth", "4", "--width", "8", "--batch", "4", "--seed", "1",
                            "--out", str(out)],
                           env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
            assert proc.returncode == 1
            assert proc.stderr == ("error: layer 2's measured variance exceeds the largest"
                                   " float 1.7976931348623157e+308\n")
            assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--backward"]], ids=["forward", "backward"])
    def test_variances_too_far_apart_are_named(self, tmp_path, extra):
        """Inputs at 1e308 into q* = 1e-300: scaling the inputs into range
        would take q* out of it, and unscaled the first Gram matrix
        overflowed (layer 1 read as dead, exit 0).  The run exits 1 naming
        both variances, with no warning and no file."""
        out = tmp_path / "s.csv"
        proc = run_cli(["simulate", "--activation", "crelu", "-s", "0.85", "--vprime", "0.7",
                        "--qstar", "1e-300", "--input-variance", "1e308", "--depth", "4",
                        "--width", "8", "--batch", "4", "--seed", "1", "--out", str(out),
                        *extra],
                       env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: q* = 1e-300 and the input variance 1e+308 are too far"
                               " apart for one run to keep both in the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("variance", ["-1", "inf"])
    def test_bad_input_variance_is_usage_error(self, tmp_path, variance):
        out = tmp_path / "sim.csv"
        proc = run_cli(["simulate", "--activation", "crelu", "-s", "0.85",
                        "--qstar", "1", "--vprime", "0.7", "--depth", "4",
                        "--width", "64", "--batch", "8", "--seed", "7",
                        "--input-variance", variance, "--out", str(out)])
        assert proc.returncode == 1
        assert f"variance must be positive and finite, got {float(variance)}" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "correlate", "train"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551617"])
    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, command, seed):
        """A seed keys a 64-bit stream; one outside [0, 2**64) is refused
        rather than reduced to another seed's streams."""
        out = tmp_path / "run.csv"
        args = {
            "simulate": ["--depth", "4", "--width", "64", "--batch", "8", "--out", str(out)],
            "correlate": ["--depth", "4", "--width", "64", "--batch", "8", "--rho0", "0.5",
                          "--out", str(out)],
            "train": ["--depth", "3", "--width", "16", "--epochs", "1", "--lr", "0.1",
                      "--batch", "16", "--n-samples", "64", "--out", str(out)],
        }[command]
        proc = run_cli([command, "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                        "--vprime", "0.7", "--seed", seed] + args)
        assert proc.returncode == 1
        assert f"error: seed must be an integer in [0, 2**64), got {seed}" in proc.stderr
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "sim.csv"
        proc = run_cli(["simulate", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                        "--vprime", "0.7", "--depth", "4", "--width", "64", "--batch", "8",
                        "--seed", str(2 ** 64 - 1), "--out", str(out)])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["config"]["seed"] == 2 ** 64 - 1

    def test_backward_reported_at_top_level(self, tmp_path):
        """Whether the run pulled an error down is the command's choice, not
        a field of the simulation config: the document carries it next to
        ``config``."""
        for extra in ([], ["--backward"]):
            proc = run_cli(["simulate", "--activation", "crelu", "-s", "0.85",
                            "--qstar", "1", "--vprime", "0.7", "--depth", "3",
                            "--width", "16", "--batch", "4", "--seed", "7",
                            "--out", str(tmp_path / "sim.csv")] + extra)
            assert proc.returncode == 0
            doc = json.loads(proc.stdout)
            assert list(doc) == ["schema_version", "command", "config", "backward", "out"]
            assert doc["backward"] is bool(extra)
            assert "measure_backward" not in doc["config"]

    def test_correlate_populates_rho(self, tmp_path):
        out = tmp_path / "cor.csv"
        proc = run_cli(["correlate", "--activation", "crelu", "-s", "0.85",
                        "--qstar", "1", "--vprime", "0.7", "--depth", "4",
                        "--width", "64", "--batch", "8", "--seed", "7",
                        "--rho0", "0.5", "--out", str(out)])
        assert proc.returncode == 0
        rows = read_csv(out)
        assert all(r["rho_hat"] != "" for r in rows)

    @pytest.mark.parametrize("command", ["nlo", "simulate", "correlate"])
    def test_bytes_match_rowwise_oracle(self, tmp_path, capsys, command):
        """The few rows of these commands, empty v_hat/rho_hat cells
        included, are written as a row-at-a-time writer writes them."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        flags = ["--activation", "crelu", "-s", "0.85", "--qstar", "1", "--vprime", "0.7"]
        out, expected = tmp_path / "out.csv", tmp_path / "expected.csv"
        if command == "nlo":
            flags += ["--depth", "12"]
            bound = finite_width.theorem1_bound(init)
            header = ("layer", "q", "r", "q1", "bound")
            rows = [(st.layer, st.q, st.r, st.q1, bound)
                    for st in finite_width.nlo_trajectory(init, 12)]
        else:
            flags += ["--depth", "4", "--width", "32", "--batch", "8", "--seed", "7"]
            config = simulator.SimConfig(init=init, depth=4, width=32, batch=8, seed=7)
            if command == "simulate":
                stats = simulator.run_forward(config)
            else:
                flags += ["--rho0", "0.5"]
                stats = simulator.run_correlation(config, 0.5)
            header, rows = simulator.CSV_COLUMNS, [astuple(st) for st in stats]
        assert cli.main([command, *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        write_csv_rowwise(expected, header, rows)
        assert out.read_bytes() == expected.read_bytes()


class TestJacobianCommand:
    def test_moments_document(self):
        proc = run_cli(["jacobian", "--activation", "relu", "--qstar", "1",
                        "--depth", "10"])
        doc = json.loads(proc.stdout)
        assert doc["moments"]["m1"] == pytest.approx(1.0)
        assert doc["moments"]["sigma_jjt"] == pytest.approx(20.0)
        assert doc["moments"]["s1"] == -1.0


_CRELU = ["--activation", "crelu", "-s", "0.85", "--vprime", "0.7"]
_CST = ["--activation", "cst", "-s", "0.85", "--vprime", "0.7"]
_RUN = ["--depth", "5", "--width", "16", "--batch", "4", "--seed", "2"]

# name -> (writes a table, argv from the texts of a variance q(x) and a
# length l(x) at q* = 4^k q0, and the power of a sweep's value column)
_COVARIANT_COMMANDS = {
    "solve-crelu": (False, lambda q, l: ["solve", *_CRELU, "--qstar", q(1.7)]),
    "solve-cst": (False, lambda q, l: ["solve", *_CST, "--qstar", q(1.7)]),
    "fixed-points": (False, lambda q, l: ["fixed-points", "--activation", "crelu", "-s", "0.85",
                                          "--qstar", q(1.7), "--m", l(2.6)]),
    "nlo": (True, lambda q, l: ["nlo", *_CST, "--qstar", q(1.7), "--depth", "6"]),
    "jacobian": (False, lambda q, l: ["jacobian", *_CRELU, "--qstar", q(1.7), "--depth", "10"]),
    "simulate": (True, lambda q, l: ["simulate", *_CRELU, "--qstar", q(1.7), *_RUN]),
    "simulate-backward": (True, lambda q, l: ["simulate", *_CST, "--qstar", q(1.7), *_RUN,
                                              "--backward"]),
    "correlate": (True, lambda q, l: ["correlate", *_CRELU, "--qstar", q(1.7), *_RUN,
                                      "--rho0", "0.5"]),
    **{
        f"sweep-{quantity}": (True, lambda q, l, quantity=quantity: [
            "sweep", "--quantity", quantity, "--activation", "crelu", "--sparsity", "0.7,0.85",
            f"--qstar-range={q(0.5)}:{q(3.0)}:4", f"--m-range={l(0.5)}:{l(3.0)}:3",
            *(["--qstar", q(1.7)] if quantity == "vmap_curve" else [])], power)
        for quantity, power in (("Vprime", 0), ("Vprimeprime", -2), ("chi1prime", -2),
                                ("nlo_bound", 2), ("vmap_curve", 2))
    },
}


class TestQStarIsAUnit:
    @pytest.mark.parametrize("k", [-500, -250, -1, 1, 250, 500])
    @pytest.mark.parametrize("name", list(_COVARIANT_COMMANDS))
    def test_outputs_are_the_q0_outputs_scaled(self, tmp_path, capsys, name, k):
        """Every command computes at q0 = q* / 4^k in [1, 4) and scales once,
        so its output at q* = 4^k q0 is its output at q0 with each number
        scaled by its power of 2^k, bit for bit (``assert_covariant``)."""
        table, argv, *value_power = _COVARIANT_COMMANDS[name]
        tmp = tmp_path if table else None

        def run(k):
            return _run_in_process(argv(lambda x: repr(math.ldexp(x, 2 * k)),
                                        lambda x: repr(math.ldexp(x, k))), tmp, capsys)

        power = {**_POWER, "value": value_power[0]} if value_power else _POWER
        assert_covariant(run(k), run(0), k, power=power)


@pytest.mark.parametrize("command", ["simulate", "correlate", "sweep", "nlo"])
def test_unwritable_table_output_fails_before_any_work(tmp_path, monkeypatch, capsys,
                                                       command):
    """Every table command, like train, checks --out before it computes:
    exit 1 with a message naming the path, and no file left behind."""
    for module, name in ((cli.simulator, "run_forward"), (cli.simulator, "run_correlation"),
                         (cli.finite_width, "nlo_trajectory"), (cli, "_sweep_block")):
        monkeypatch.setattr(module, name, lambda *a: pytest.fail("computed"))
    init = ["--activation", "crelu", "-s", "0.85", "--qstar", "1", "--vprime", "0.7"]
    run = [*init, "--depth", "5", "--width", "64", "--batch", "8", "--seed", "7"]
    flags = {
        "simulate": run,
        "correlate": [*run, "--rho0", "0.5"],
        "sweep": ["--quantity", "nlo_bound", "--activation", "cst", "--sparsity", "0.8",
                  "--qstar-range", "0.09:3:6", "--m-range", "0.5:3:6"],
        "nlo": [*init, "--depth", "10"],
    }[command]
    for out in (str(tmp_path / "missing" / "t.csv"), ""):
        assert cli.main([command, *flags, "--out", out]) == 1
        captured = capsys.readouterr()
        assert repr(out) in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--activation", "crelu", "-s", "0.85", "--qstar", "1", "--vprime", "0.7",
               "--out"]),
    ("train", ["--activation", "relu", "--qstar", "1", "--depth", "6", "--width", "16",
               "--epochs", "3", "--lr", "0.1", "--batch", "16", "--log-csv"]),
], ids=["solve", "train"])
def test_empty_output_path_fails_before_any_work(monkeypatch, capsys, command, flags):
    """An empty output path is a path that cannot be written, not stdout or
    "no log": exit 1 before any work, naming it, with nothing on stdout."""
    monkeypatch.setattr(cli.maps, "diagnostics", lambda *a: pytest.fail("solved"))
    monkeypatch.setattr(cli.trainer, "train", lambda config: pytest.fail("trained"))
    assert cli.main([command, *flags, ""]) == 1
    captured = capsys.readouterr()
    assert "No such file or directory: ''" in captured.err and captured.out == ""


_TRAIN_RUN = ["--depth", "2", "--width", "8", "--epochs", "1", "--lr", "0.1", "--batch", "16"]

# the flags each command needs besides the init flags, to reach its init
_INIT_COMMANDS = {
    "solve": [],
    "fixed-points": [],
    "nlo": ["--depth", "5"],
    "simulate": _RUN,
    "correlate": [*_RUN, "--rho0", "0.5"],
    "jacobian": ["--depth", "5"],
    "train": _TRAIN_RUN,
}
_INIT_OPTIONS = {"activation": "--activation", "sparsity": "-s", "vprime": "--vprime", "m": "--m"}
_UNREAD_INITS = {
    "vprime-with-m": ({"activation": "crelu", "sparsity": 0.85, "m": 2.0, "vprime": 0.3},
                      "flag(s) not read with --m: --vprime"),
    "relu-sparsity-vprime": ({"activation": "relu", "sparsity": 0.3, "vprime": 0.5},
                             "flag(s) not read by relu: --sparsity, --vprime"),
    "relu-m": ({"activation": "relu", "m": 2.0}, "flag(s) not read by relu: --m"),
}


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("command, init, message", [
    pytest.param(command, init, message, id=f"{command}-{name}")
    for command in _INIT_COMMANDS for name, (init, message) in _UNREAD_INITS.items()
    if command != "solve" or "m" not in init  # solve has no --m
])
def test_unread_init_flags_are_usage_errors(tmp_path, capsys, command, init, message, route):
    """An init flag that is given, on the command line or as a --config
    key, but never read is a usage error naming it, not silently dropped:
    exit 1 before any work, and no output."""
    if route == "flag":
        given = [text for key, value in init.items() for text in (_INIT_OPTIONS[key], str(value))]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(init))
        given = ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    argv = [command, *given, "--qstar", "1", *_INIT_COMMANDS[command], "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, defaults", [
    ("simulate", [*_CRELU, "--qstar", "1", "--depth", "4", "--width", "32"],
     ["--batch", "64", "--seed", "0"]),
    ("correlate", [*_CST, "--qstar", "1", "--depth", "3", "--width", "32", "--rho0", "0.5"],
     ["--batch", "64", "--seed", "0"]),
    ("train", ["--activation", "relu", "--qstar", "1", *_TRAIN_RUN],
     ["--seed", "0", "--dataset", "synthetic-blobs", "--n-samples", "2000",
      "--input-dim", "64", "--n-classes", "10"]),
])
def test_omitted_run_flags_take_the_library_defaults(tmp_path, capsys, command, flags,
                                                     defaults):
    """A run flag left out takes its field's default in SimConfig or
    TrainConfig: the same stdout and CSV, byte for byte, as with those
    defaults spelled out."""
    out = tmp_path / "out.csv"
    table = "--log-csv" if command == "train" else "--out"
    written = []
    for argv in ([command, *flags], [command, *flags, *defaults]):
        assert cli.main([*argv, table, str(out)]) == 0
        written.append((capsys.readouterr(), out.read_bytes()))
    assert written[0] == written[1]


@pytest.mark.parametrize("argv", [
    ["solve", *_CRELU, "--qstar", "3"],
    ["fixed-points", "--activation", "crelu", "-s", "0.85", "--qstar", "1", "--m", "2.0"],
    ["jacobian", "--activation", "relu", "--qstar", "1", "--depth", "10"],
    ["train", "--activation", "relu", "--qstar", "1", *_TRAIN_RUN, "--n-samples", "64"],
], ids=["solve", "fixed-points", "jacobian", "train"])
def test_out_takes_the_whole_document(tmp_path, capsys, argv):
    """--out takes the JSON document that stdout gets without it, strict
    JSON, and stdout stays empty."""
    out = tmp_path / "doc.json"
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == printed
    json.loads(printed, parse_constant=_reject_constant)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, holds", [
    # V'' and chi1' where 2 q* would overflow
    (["solve", *_CRELU, "--qstar", "1e308"],
     lambda doc: doc["diagnostics"]["Vprimeprime"] != 0.0),
    (["solve", "--activation", "relu", "--qstar", "3e-308"],
     lambda doc: doc["init"]["sb2"] == 0.0),
    # the default search interval's lower end, q*/20, is subnormal
    (["fixed-points", "--activation", "relu", "--qstar", "3e-308"],
     lambda doc: 0.0 < doc["report"]["search_interval"][0] < sys.float_info.min),
    # a clip with no mass in float is no clip: a finite sb2
    (["fixed-points", "--activation", "crelu", "-s", "0.85", "--qstar", "1", "--m", "1e200"],
     lambda doc: doc["init"]["sb2"] is not None),
], ids=["solve-1e308", "solve-relu-3e-308", "fixed-points-relu-3e-308", "fixed-points-1e200"])
def test_ends_of_the_float_range_raise_no_warning(capsys, argv, holds):
    """Commands at the ends of the float range exit 0 with no numeric
    warning, and their documents hold finite, meaningful values."""
    doc, _ = _run_in_process(argv, None, capsys)
    assert holds(doc), doc


@pytest.mark.parametrize("argv, module, name", [
    (["sweep", "--quantity", "Vprime", "--activation", "crelu", "--sparsity", "0.7",
      "--qstar-range", "1:2:2", "--m-range", "1:2:2"], cli, "_sweep_block"),
    (["simulate", *_CRELU, "--qstar", "1", *_RUN], cli.simulator, "run_forward"),
    (["train", "--activation", "relu", "--qstar", "1", *_TRAIN_RUN], cli.trainer, "train"),
], ids=["sweep", "simulate", "train"])
def test_refused_allocation_is_a_one_line_error(tmp_path, monkeypatch, capsys, argv, module,
                                                name):
    """An allocation the machine refuses (numpy's MemoryError, which names
    the size) exits 1 with that message on one line, not a traceback, and
    nothing on stdout.  A run that computes before it writes leaves no
    file (a sweep opens --out before it evaluates its first chunk)."""
    message = ("Unable to allocate 1.46 TiB for an array with shape (200000000000,)"
               " and data type float64")

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    if argv[0] != "sweep":
        assert not out.exists()


class TestTrainCommand:
    def test_sanity_run_reports_accuracy(self, tmp_path):
        log = tmp_path / "log.csv"
        proc = run_cli(["train", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                        "--vprime", "0.7", "--dataset", "synthetic-blobs",
                        "--depth", "2", "--width", "8", "--epochs", "50",
                        "--lr", "0.1", "--batch", "16", "--seed", "0",
                        "--n-samples", "400", "--input-dim", "8", "--n-classes", "2",
                        "--log-csv", str(log)])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["report"]["test_accuracy"] >= 0.95
        assert log.read_text().splitlines()[0] == "epoch,step,loss,val_acc,sparsity"

    def test_divergence_exit_code(self):
        proc = run_cli(["train", "--activation", "relu", "--qstar", "1",
                        "--dataset", "synthetic-blobs", "--depth", "6",
                        "--width", "16", "--epochs", "3", "--lr", "1e6",
                        "--batch", "16", "--seed", "7", "--n-samples", "128",
                        "--input-dim", "8", "--n-classes", "3"])
        assert proc.returncode == 3
        doc = json.loads(proc.stdout, parse_constant=_reject_constant)
        assert doc["report"]["diverged"] is True
        assert doc["report"]["train_losses"][-1] is None

    @pytest.mark.parametrize("bad", ["out", "log_csv"])
    def test_unwritable_output_fails_before_the_first_step(self, tmp_path, monkeypatch,
                                                            capsys, bad):
        """An output path that cannot be written exits 1 with a message
        naming it, before any training, and leaves no file behind."""
        monkeypatch.setattr(cli.trainer, "train", lambda config: pytest.fail("trained"))
        paths = {"out": tmp_path / "r.json", "log_csv": tmp_path / "l.csv"}
        paths[bad] = tmp_path / "missing" / paths[bad].name
        rc = cli.main(["train", "--activation", "relu", "--qstar", "1", "--depth", "6",
                       "--width", "16", "--epochs", "3", "--lr", "0.1", "--batch", "16",
                       "--out", str(paths["out"]), "--log-csv", str(paths["log_csv"])])
        assert rc == 1
        assert str(paths[bad]) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--out", "{dir}/r.txt", "--log-csv", "r.txt"],
         "--log-csv 'r.txt' names the same file as --out"),
        (["--dataset", "small-digits", "--data-csv", "{dir}/d.csv", "--out", "./d.csv"],
         "--out './d.csv' names the same file as --data-csv"),
    ], ids=["log-csv", "data-csv"])
    def test_output_naming_another_path_is_refused(self, tmp_path, monkeypatch, capsys,
                                                   flags, message):
        """An output path naming the file of another output or of the input,
        however it is spelled, would replace it: exit 1 naming the path,
        before any training, with the input untouched and no report."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.trainer, "train", lambda config: pytest.fail("trained"))
        (tmp_path / "d.csv").write_text("label\n")
        flags = [f.format(dir=tmp_path) for f in flags]
        assert cli.main(["train", "--activation", "relu", "--qstar", "1", *_TRAIN_RUN,
                         *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
        assert (tmp_path / "d.csv").read_text() == "label\n"

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_n_samples_is_read_only_by_synthetic_blobs(self, tmp_path, monkeypatch, capsys,
                                                       route):
        """small-digits takes its samples from the file: --n-samples given
        with it, as a flag or a --config key, is a usage error naming it,
        before any training, and no report is written."""
        monkeypatch.setattr(cli.trainer, "train", lambda config: pytest.fail("trained"))
        digits = tmp_path / "digits.csv"
        digits.write_text("label," + ",".join(f"pixel_{i}" for i in range(64)) + "\n"
                          + "".join(f"{i % 10}," + ",".join(["3"] * 64) + "\n"
                                    for i in range(20)))
        if route == "flag":
            given = ["--n-samples", "500"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n_samples": 500}))
            given = ["--config", str(cfg)]
        out = tmp_path / "report.json"
        assert cli.main(["train", *given, "--activation", "relu", "--qstar", "1",
                         "--dataset", "small-digits", "--data-csv", str(digits), *_TRAIN_RUN,
                         "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: flag(s) read only by --dataset synthetic-blobs: --n-samples\n")
        assert not out.exists()

    @pytest.mark.parametrize("dataset, message", [
        ([], "data_csv '' is read only by dataset 'small-digits', got dataset 'synthetic-blobs'"),
        (["--dataset", "small-digits"], "[Errno 2] No such file or directory: ''"),
    ], ids=["synthetic-blobs", "small-digits"])
    def test_empty_data_csv_counts_as_given(self, tmp_path, capsys, dataset, message):
        """An empty --data-csv is a path like any other: refused with
        synthetic-blobs, and a file that cannot be read with small-digits."""
        out = tmp_path / "report.json"
        assert cli.main(["train", "--activation", "relu", "--qstar", "1", *dataset,
                         "--data-csv", "", *_TRAIN_RUN, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, lr):
        proc = run_cli(["train", "--activation", "relu", "--qstar", "1",
                        "--dataset", "synthetic-blobs", "--depth", "6",
                        "--width", "16", "--epochs", "3", "--lr", lr,
                        "--batch", "16", "--seed", "7", "--n-samples", "128",
                        "--input-dim", "8", "--n-classes", "3"])
        assert proc.returncode == 1
        assert "learning rate must be positive and finite" in proc.stderr

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--input-dim", "0", "input_dim"),
            ("--n-samples", "2", "n_samples"),
            ("--n-classes", "1", "n_classes"),
        ],
    )
    def test_degenerate_dataset_shape_is_usage_error(self, flag, value, field):
        """A zero-width input, a sample count that leaves a split empty and a
        single class are rejected up front instead of crashing or reporting
        a meaningless accuracy."""
        args = {"--n-samples": "128", "--input-dim": "8", "--n-classes": "3"}
        args[flag] = value
        proc = run_cli(["train", "--activation", "relu", "--qstar", "1",
                        "--dataset", "synthetic-blobs", "--depth", "3",
                        "--width", "8", "--epochs", "1", "--lr", "0.1",
                        "--batch", "8", "--seed", "0",
                        *[item for pair in args.items() for item in pair]])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {field} must")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case, cause", [
        ("three_rows", "digit CSV data rows must be at least 7 so that the train,"
                       " validation and test splits are nonempty, got 3"),
        ("header_only", "digit CSV data rows must be at least 7 so that the train,"
                        " validation and test splits are nonempty, got 0"),
        ("blank_row", "digit CSV line 5 is blank"),
        ("empty_file", "digit CSV header does not match label,pixel_0..pixel_63"),
        ("label_past_n_classes", "digit label 9 needs n_classes of at least 10,"
                                 " config says 3"),
        ("nan_pixel", "digit pixels must lie in [0, 16]"),
        ("word_pixel", "digit CSV line 5 has a field that is not a number"),
    ])
    def test_malformed_digit_csv_is_usage_error(self, tmp_path, case, cause):
        """The digit file gets the checks the synthetic data gets from its
        flags: enough samples for three nonempty splits, labels below
        --n-classes, and no row the parser cannot read."""
        header = "label," + ",".join(f"pixel_{i}" for i in range(64)) + "\n"

        def rows(count, classes=3):
            return "".join(f"{i % classes}," + ",".join(["3"] * 64) + "\n"
                           for i in range(count))

        text = {
            "three_rows": header + rows(3),
            "header_only": header,
            "blank_row": header + rows(3) + "\n" + rows(9),
            "empty_file": "",
            "label_past_n_classes": header + rows(20, classes=10),
            "nan_pixel": header + rows(9) + "1,nan" + ",3" * 63 + "\n" + rows(9),
            "word_pixel": header + rows(3) + "1,three" + ",3" * 63 + "\n" + rows(9),
        }[case]
        path = tmp_path / "digits.csv"
        path.write_text(text)
        out = tmp_path / "report.json"
        proc = run_cli(["train", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
                        "--vprime", "0.7", "--dataset", "small-digits",
                        "--data-csv", str(path), "--depth", "3", "--width", "8",
                        "--epochs", "1", "--lr", "0.1", "--batch", "8", "--n-classes", "3",
                        "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr == f"error: {cause}\n"
        assert not out.exists()


def _key_paths(doc, path="."):
    """The keys of every JSON object in ``doc``, in document order, by
    their path; a list contributes its first element as ``path[]``."""
    if isinstance(doc, list):
        return _key_paths(doc[0], path + "[]") if doc and isinstance(doc[0], dict) else {}
    if not isinstance(doc, dict):
        return {}
    paths = {path: list(doc)}
    for key, value in doc.items():
        paths.update(_key_paths(value, key if path == "." else f"{path}.{key}"))
    return paths


_INIT = {"init": ["activation", "q_star", "sw2", "sb2", "s", "v_prime_at_fp"],
         "init.activation": ["kind", "tau", "m"]}


def _nested(prefix, paths):
    return {f"{prefix}.{key}": keys for key, keys in paths.items()}


class TestOutputSchemas:
    """Every document's keys and every CSV header, in order, pinned
    literally rather than read back from the dataclasses that write them."""

    INIT = ["--activation", "crelu", "-s", "0.85", "--qstar", "1", "--vprime", "0.7"]
    RUN = ["--depth", "3", "--width", "16", "--batch", "4", "--seed", "7"]

    @pytest.mark.parametrize("argv,keys", [
        (["solve", *INIT], {
            ".": ["schema_version", "init", "diagnostics", "nlo_bound"],
            **_INIT,
            "diagnostics": ["q", "V", "Vprime", "Vprimeprime", "chi1", "chi1prime"],
        }),
        (["solve", "--activation", "crelu", "-s", "0.6", "--qstar", "1", "--vprime", "1e-9"], {
            ".": ["schema_version", "error"],
            "error": ["type", "message"],
        }),
        (["sweep", "--quantity", "Vprime", "--activation", "crelu", "--sparsity", "0.85",
          "--qstar-range", "0.5:3:3", "--m-range", "1:2:2", "--out", "{out}"], {
            ".": ["schema_version", "command", "quantity", "activation", "s_list",
                  "q_star_range", "m_range", "anchor_q_star", "gain_resolved_per_cell", "out"],
        }),
        (["fixed-points", *INIT], {
            ".": ["schema_version", "init", "report"],
            **_INIT,
            "report": ["points", "search_interval", "degenerate_line"],
            "report.points[]": ["q", "slope", "stable"],
        }),
        (["nlo", *INIT, "--depth", "5", "--out", "{out}"], {
            ".": ["schema_version", "command", "init", "depth", "bound", "log_bound",
                  "trajectory_max_abs_q1", "gain_resolved_per_init", "out"],
            **_INIT,
        }),
        (["simulate", *INIT, *RUN, "--out", "{out}"], {
            ".": ["schema_version", "command", "config", "backward", "out"],
            "config": ["init", "depth", "width", "batch", "seed", "input_variance"],
            **_nested("config", _INIT),
        }),
        (["correlate", *INIT, *RUN, "--rho0", "0.5", "--out", "{out}"], {
            ".": ["schema_version", "command", "config", "rho0", "out"],
            "config": ["init", "depth", "width", "batch", "seed", "input_variance"],
            **_nested("config", _INIT),
        }),
        (["jacobian", *INIT, "--depth", "4"], {
            ".": ["schema_version", "init", "moments"],
            **_INIT,
            "moments": ["mu1", "mu2", "m1", "m2", "sigma_jjt", "s1", "depth"],
        }),
        (["train", *INIT, "--depth", "3", "--width", "8", "--epochs", "1", "--lr", "0.1",
          "--batch", "16", "--n-samples", "64", "--log-csv", "{out}"], {
            ".": ["schema_version", "config", "report"],
            "config": ["init", "depth", "width", "epochs", "lr", "batch", "seed", "dataset",
                       "data_csv", "n_samples", "input_dim", "n_classes"],
            **_nested("config", _INIT),
            "report": ["train_losses", "val_accuracies", "test_accuracy", "sparsity_at_init",
                       "sparsity_final", "diverged", "epochs_run", "steps_per_epoch"],
        }),
    ], ids=["solve", "infeasible", "sweep", "fixed-points", "nlo", "simulate", "correlate",
            "jacobian", "train"])
    def test_json_key_order(self, tmp_path, capsys, argv, keys):
        out = str(tmp_path / "out.csv")
        assert cli.main([arg.replace("{out}", out) for arg in argv]) in (0, 2)
        assert _key_paths(json.loads(capsys.readouterr().out)) == keys

    @pytest.mark.parametrize("argv,header", [
        (["sweep", "--quantity", "Vprime", "--activation", "crelu", "--sparsity", "0.85",
          "--qstar-range", "0.5:3:3", "--m-range", "1:2:2", "--out", "{out}"],
         "activation,s,q_star,m,value"),
        (["sweep", "--quantity", "vmap_curve", "--activation", "crelu", "--sparsity", "0.85",
          "--qstar-range", "0.5:3:3", "--m-range", "1:2:2", "--out", "{out}"],
         "activation,s,anchor_q_star,m,q,value"),
        (["nlo", *INIT, "--depth", "5", "--out", "{out}"], "layer,q,r,q1,bound"),
        (["simulate", *INIT, *RUN, "--out", "{out}"],
         "layer,q_hat,sparsity_hat,chi1_hat,v_hat,rho_hat"),
        (["correlate", *INIT, *RUN, "--rho0", "0.5", "--out", "{out}"],
         "layer,q_hat,sparsity_hat,chi1_hat,v_hat,rho_hat"),
        (["train", *INIT, "--depth", "3", "--width", "8", "--epochs", "1", "--lr", "0.1",
          "--batch", "16", "--n-samples", "64", "--log-csv", "{out}"],
         "epoch,step,loss,val_acc,sparsity"),
    ], ids=["sweep", "sweep-vmap_curve", "nlo", "simulate", "correlate", "train"])
    def test_csv_header(self, tmp_path, capsys, argv, header):
        out = tmp_path / "out.csv"
        assert cli.main([arg.replace("{out}", str(out)) for arg in argv]) == 0
        capsys.readouterr()
        assert out.read_text().split("\n", 1)[0] == header


def test_public_api_is_pinned():
    """The package exports what a command runs and no test oracle."""
    assert sorted(eoc_lab.__all__) == [
        "ActivationSpec", "EocInit", "FixedPoint", "FixedPointReport", "InfeasibleTargetError",
        "JacobianMoments", "LayerStats", "MapDiagnostics", "NloState", "SimConfig",
        "TrainConfig", "TrainReport", "chi1", "chi1_prime", "critical_gain", "diagnostics",
        "erf_inv", "find_fixed_points", "init_from_m", "jacobian_moments", "log_theorem1_bound",
        "nlo_trajectory", "normal_cdf", "normal_quantile", "relu_init", "run_backward",
        "run_correlation", "run_forward", "solve_init", "sparsity_threshold", "theorem1_bound",
        "train", "v_map", "v_prime", "v_prime2",
    ]
    assert all(hasattr(eoc_lab, name) for name in eoc_lab.__all__)


_INIT_FLAGS = {
    ("--activation",): ("activation", None, ["relu", "crelu", "cst"]),
    ("--sparsity", "-s"): ("sparsity", None, None),
    ("--qstar",): ("qstar", None, None),
    ("--vprime",): ("vprime", None, None),
}
_M_FLAG = {("--m",): ("m", None, None)}
_OUT_FLAGS = {("--out",): ("out", None, None), ("--config",): ("config", None, None)}
_DEPTH = {("--depth",): ("depth", None, None)}
_SIM_FLAGS = {
    **_DEPTH,
    ("--width",): ("width", None, None),
    ("--batch",): ("batch", None, None),
    ("--seed",): ("seed", None, None),
}


class TestFlagSurface:
    """Every subcommand's option strings with their dest, default and
    choices, pinned literally (in no particular order)."""

    EXPECTED = {
        "solve": {**_INIT_FLAGS, **_OUT_FLAGS},
        "sweep": {
            ("--quantity",): ("quantity", None, ["Vprime", "Vprimeprime", "chi1prime",
                                                 "nlo_bound", "vmap_curve"]),
            ("--activation",): ("activation", None, ["crelu", "cst"]),
            ("--sparsity",): ("s_list", None, None),
            ("--qstar-range",): ("qstar_range", None, None),
            ("--m-range",): ("m_range", None, None),
            ("--qstar",): ("qstar", None, None),
            **_OUT_FLAGS,
        },
        "fixed-points": {
            **_INIT_FLAGS, **_M_FLAG, **_OUT_FLAGS,
            ("--lo",): ("lo", None, None),
            ("--hi",): ("hi", None, None),
        },
        "nlo": {**_INIT_FLAGS, **_M_FLAG, **_OUT_FLAGS, **_DEPTH},
        "simulate": {
            **_INIT_FLAGS, **_M_FLAG, **_OUT_FLAGS, **_SIM_FLAGS,
            ("--backward",): ("backward", False, None),
            ("--input-variance",): ("input_variance", None, None),
        },
        "correlate": {
            **_INIT_FLAGS, **_M_FLAG, **_OUT_FLAGS, **_SIM_FLAGS,
            ("--rho0",): ("rho0", None, None),
        },
        "jacobian": {**_INIT_FLAGS, **_M_FLAG, **_OUT_FLAGS, **_DEPTH},
        "train": {
            **_INIT_FLAGS, **_M_FLAG, **_OUT_FLAGS, **_DEPTH,
            ("--width",): ("width", None, None),
            ("--batch",): ("batch", None, None),
            ("--seed",): ("seed", None, None),
            ("--dataset",): ("dataset", None, ["synthetic-blobs", "small-digits"]),
            ("--data-csv",): ("data_csv", None, None),
            ("--epochs",): ("epochs", None, None),
            ("--lr",): ("lr", None, None),
            ("--n-samples",): ("n_samples", None, None),
            ("--input-dim",): ("input_dim", None, None),
            ("--n-classes",): ("n_classes", None, None),
            ("--log-csv",): ("log_csv", None, None),
        },
    }

    @staticmethod
    def _commands():
        parser = cli.build_parser()
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return subs.choices

    def test_command_names(self):
        assert list(self._commands()) == list(self.EXPECTED)

    @pytest.mark.parametrize("command", list(EXPECTED))
    def test_flags(self, command):
        flags = {
            tuple(a.option_strings): (a.dest, a.default,
                                      None if a.choices is None else list(a.choices))
            for a in self._commands()[command]._actions if a.dest != "help"
        }
        assert flags == self.EXPECTED[command]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "activation": "crelu", "sparsity": 0.85, "qstar": 3.0, "vprime": 0.7,
        }))
        proc = run_cli(["solve", "--config", str(cfg)])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["init"]["activation"]["m"] == pytest.approx(2.03, abs=0.01)

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "activation": "crelu", "sparsity": 0.85, "qstar": 3.0, "vprime": 0.7,
        }))
        proc = run_cli(["solve", "--config", str(cfg), "--qstar", "1"])
        doc = json.loads(proc.stdout)
        assert doc["init"]["q_star"] == 1.0
        assert doc["init"]["activation"]["m"] == pytest.approx(1.17, abs=0.01)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"qstarr": 3.0}))
        proc = run_cli(["solve", "--config", str(cfg), "--activation", "crelu",
                        "-s", "0.85", "--qstar", "1", "--vprime", "0.7"])
        assert proc.returncode == 1

    @pytest.mark.parametrize("key, value, error", [
        pytest.param("depth", 5.5, "argument --depth: invalid int value: '5.5'", id="depth-5.5"),
        pytest.param("seed", 1.5, "argument --seed: invalid int value: '1.5'", id="seed-1.5"),
        pytest.param("backward", "false", "--config key 'backward': expected true or false",
                     id="backward-false"),
    ])
    def test_wrongly_typed_value_is_usage_error(self, tmp_path, key, value, error):
        """Config values pass the flag's own type check, and get the error
        that names the flag, as flags do; a switch takes true or false."""
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "sim.csv"
        cfg.write_text(json.dumps({"depth": 4, "seed": 7, "out": str(out), key: value}))
        proc = run_cli(["simulate", "--config", str(cfg), "--activation", "crelu",
                        "-s", "0.85", "--qstar", "1", "--vprime", "0.7", "--width", "64"])
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == f"error: {error}"
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, config, flags", [
        ("simulate",
         {"activation": "crelu", "sparsity": 0.85, "qstar": 1, "vprime": 0.7, "depth": 4,
          "width": 32, "batch": 8, "seed": 7, "backward": True, "input_variance": None},
         ["--activation", "crelu", "-s", "0.85", "--qstar", "1", "--vprime", "0.7",
          "--depth", "4", "--width", "32", "--batch", "8", "--seed", "7", "--backward"]),
        ("correlate",
         {"activation": "cst", "sparsity": 0.85, "qstar": 2.5, "m": 1.5, "vprime": None,
          "depth": 3, "width": 32, "batch": 8, "seed": 3, "rho0": -0.5},
         ["--activation", "cst", "-s", "0.85", "--qstar", "2.5", "--m", "1.5",
          "--depth", "3", "--width", "32", "--batch", "8", "--seed", "3", "--rho0", "-0.5"]),
        ("sweep",
         {"quantity": "vmap_curve", "activation": "crelu", "s_list": "0.8,0.85",
          "qstar_range": "0.5:3:4", "m_range": "1:2:3", "qstar": None},
         ["--quantity", "vmap_curve", "--activation", "crelu", "--sparsity", "0.8,0.85",
          "--qstar-range", "0.5:3:4", "--m-range", "1:2:3"]),
    ], ids=["simulate", "correlate", "sweep"])
    def test_config_is_the_flags_it_stands_for(self, tmp_path, capsys, command, config,
                                                flags):
        """A config file and the same flags on the command line give the same
        stdout and CSV, byte for byte: a switch's true is its flag, null is
        no flag, and a value may start with '-'.  A help or config key is no
        flag of the file's and exits 1."""
        out, cfg = tmp_path / "out.csv", tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        written = []
        for argv in ([command, *flags], [command, "--config", str(cfg)]):
            assert cli.main([*argv, "--out", str(out)]) == 0
            written.append((capsys.readouterr(), out.read_bytes()))
        assert written[0] == written[1]
        for key, value in (("help", True), ("config", str(cfg))):
            cfg.write_text(json.dumps({**config, key: value}))
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr() == ("", f"error: unknown config keys: [{key!r}]\n")

    def test_value_outside_choices_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quantity": "Vprim"}))
        out = tmp_path / "grid.csv"
        proc = run_cli(["sweep", "--config", str(cfg), "--activation", "crelu",
                        "--sparsity", "0.85", "--qstar-range", "0.5:3:3",
                        "--m-range", "1:2:2", "--out", str(out)])
        assert proc.returncode == 1
        assert "error: argument --quantity: invalid choice: 'Vprim'" in proc.stderr
        assert not out.exists()


# runs each argv of the JSON list in sys.argv[1] through cli.main and prints
# the exit codes as a JSON list; every top-level module outside the standard
# library, numpy and eoc_lab fails to import, as if it were not installed
_NUMPY_ONLY = """
import contextlib, io, json, sys
from importlib.abc import MetaPathFinder


class NumpyOnly(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top not in ("numpy", "eoc_lab"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NumpyOnly())
from eoc_lab import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


class TestNumpyOnly:
    def test_commands_run_with_numpy_alone(self, tmp_path):
        init = ["--activation", "crelu", "-s", "0.85", "--qstar", "3", "--vprime", "0.7"]
        commands = [
            ["solve", *init],
            ["fixed-points", "--activation", "cst", "-s", "0.85", "--qstar", "1",
             "--vprime", "0.9"],
            ["nlo", *init, "--depth", "10", "--out", str(tmp_path / "nlo.csv")],
            ["sweep", "--quantity", "nlo_bound", "--activation", "cst", "--sparsity", "0.8",
             "--qstar-range", "0.09:3:6", "--m-range", "0.5:3:6",
             "--out", str(tmp_path / "sweep.csv")],
            ["simulate", *init, "--depth", "3", "--width", "50", "--batch", "8",
             "--out", str(tmp_path / "simulate.csv")],
            ["correlate", *init, "--depth", "3", "--width", "50", "--batch", "8",
             "--rho0", "0.5", "--out", str(tmp_path / "correlate.csv")],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_ONLY, json.dumps(commands)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0] * len(commands), proc.stderr

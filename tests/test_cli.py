import json
import math
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpencil import beam_closed_form, build_pencil, cli, config, interlacing, load_config
from quadpencil.errors import ConfigError
from quadpencil.cli import CSV_CHUNK_ROWS, _csv_chunks, main
from quadpencil.evolution import SimulationTrace, simulate
from quadpencil.pencil import VERIFY_TOL

from oracles import csv_rows_reference, trapezoid_error_bounds, trapezoid_reference

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SQRT7 = np.sqrt(7.0)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines()
        if "generated_at" not in line
    )


# Values at the edges of the CSV's %g kernel: signed zeros, non-finite values,
# the smallest subnormal, the doubles next to every power of ten the fixed-point
# form reaches, and exact halves, among them ties at 12 and at 16 digits.
CSV_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 0.5, 2.5, 100000000000.5,
             1000000000000000.5] + [float(np.nextafter(10.0**k, side))
                                     for k in range(-5, 18) for side in (math.inf, -math.inf)]
CSV_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from(CSV_EDGES), st.sampled_from(CSV_EDGES).map(lambda v: -v))


def assert_same_rows(got: list[str], want: list[str]) -> None:
    """Equal row lists; a failure names the first row that differs instead
    of diffing the whole text."""
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            pytest.fail(f"row {i} differs: {g!r} != {w!r}")
    if len(got) != len(want):
        pytest.fail(f"{len(got)} rows, expected {len(want)}")


class TestSpectrumCommand:
    def test_diag_fixture(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", str(CONFIGS / "dense_diag.json"), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"]
        values = sorted(
            (complex(e["re"], e["im"]) for e in doc["eigenvalues"]),
            key=lambda z: (z.real, z.imag),
        )
        expected = sorted([
            -3.0 - SQRT7, complex(-1.0, -SQRT7), complex(-1.0, SQRT7), -3.0 + SQRT7
        ], key=lambda z: (complex(z).real, complex(z).imag))
        for a, b in zip(values, expected):
            assert abs(a - complex(b)) < 1e-9
        assert doc["reports"]["structural"]["ok"]
        assert doc["reports"]["resolvent_regions"]["ok"]

    def test_beam_config_matches_closed_form(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", str(CONFIGS / "beam_const4.json"), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        values = [complex(e["re"], e["im"]) for e in doc["eigenvalues"]]
        lam1 = (-2.0 + np.sqrt(3.0)) * np.pi**2
        assert min(abs(v - lam1) for v in values) < 1e-7

    @pytest.mark.parametrize("name", ["dense_diag", "beam_sin", "random_dim4"])
    def test_entry_residual_is_its_pencil_check(self, tmp_path, name):
        # An entry holds its value and multiplicities; its one residual is
        # the backward error of the pencil check at the same index.
        out = tmp_path / "spec.json"
        assert main(["spectrum", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        rows = doc["eigenvalues"]
        checks = doc["reports"]["pencil_equivalence"]["checks"]
        assert all(sorted(e) == ["algebraic_multiplicity", "geometric_multiplicity", "im", "re"]
                   for e in rows)
        assert [c["label"] for c in checks] == ["eigenvalue_matches_pencil"] * len(rows)
        assert [c["eigenvalue"] for c in checks] == [{"re": e["re"], "im": e["im"]} for e in rows]
        assert [c["geometric_multiplicity"] for c in checks] == [
            e["geometric_multiplicity"] for e in rows]

    @pytest.mark.parametrize("name, sizes", [("beam_sin", [12, 12]), ("random_dim4", [8])])
    def test_block_sizes_reported_and_rerun_byte_identical(self, tmp_path, name, sizes):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["spectrum", str(CONFIGS / f"{name}.json")]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert json.loads(out1.read_text())["block_sizes"] == sizes
        assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())

    @pytest.mark.parametrize("n_modes", [150, 200])
    @pytest.mark.parametrize("damping", [
        {"profile": "constant", "params": {"value": 4.0}},
        {"profile": "four_plus_sin", "params": {}},
    ])
    def test_large_graded_beam_ok(self, tmp_path, n_modes, damping):
        # cond(A0) = n^4: no rank cut at a simple eigenvalue may call it double.
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "beam", "seed": 0,
            "beam": {"a0": 1.0, "damping": damping, "n_modes": n_modes},
        })
        out = tmp_path / "spec.json"
        assert main(["spectrum", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"]

    @pytest.mark.parametrize("command", ["spectrum", "variational", "beam-report"])
    def test_thousand_mode_beam_ok(self, tmp_path, command):
        # A0 = diag(k^4 pi^4) has cond n^4 = 1e12 at 1000 modes: it is read
        # exactly, so its positive diagonal proves it definite.
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "beam", "seed": 0,
            "beam": {"a0": 1.0, "damping": {"profile": "constant", "params": {"value": 4.0}},
                     "n_modes": 1000},
        })
        out = tmp_path / "out.json"
        assert main([command, cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"]

    def test_critically_damped_beam_ok(self, tmp_path):
        # a0 = 1, d = 2: every mode is a Jordan double eigenvalue, and the
        # graded kernel count does not take the low modes of T(lam), tiny
        # against |A0| = cond(A0) = 200^4, for kernel. The eigensolver
        # splits the high modes wider than the cluster tolerance, so they
        # come out as two simple eigenvalues each; the low ones are doubles.
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "beam", "seed": 0,
            "beam": {"a0": 1.0, "damping": {"profile": "constant", "params": {"value": 2.0}},
                     "n_modes": 200},
        })
        out = tmp_path / "spec.json"
        assert main(["spectrum", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ok"]
        rows = doc["eigenvalues"]
        assert sum(e["algebraic_multiplicity"] for e in rows) == 400
        assert all(e["algebraic_multiplicity"] <= 2 and e["geometric_multiplicity"] == 1
                   for e in rows)
        assert all(e["algebraic_multiplicity"] == 2 for e in rows[:100])

    @pytest.mark.parametrize("entry", [0.0, -1.0])
    def test_singular_or_negative_diagonal_stiffness_exits_2(self, tmp_path, capsys, entry):
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[1.0, 0.0], [0.0, entry]], "d": [[1.0, 0.0], [0.0, 1.0]]},
        })
        assert main(["spectrum", cfg]) == 2
        err = capsys.readouterr().err
        assert "not positive definite" in err and "Traceback" not in err

    def test_asymmetric_matrix_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema": 1,
            "source": "dense",
            "dense": {"a0": [[2.0, 1.0], [0.0, 8.0]], "d": [[0.0, 0.0], [0.0, 0.0]]},
        })
        assert main(["spectrum", cfg]) == 2

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["spectrum", str(path)]) == 2

    def test_wrong_schema_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 2, "source": "dense",
                                      "dense": {"a0": [[1.0]], "d": [[0.0]]}})
        assert main(["spectrum", cfg]) == 2

    def test_nan_matrix_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[2.0, 0.0], [0.0, float("nan")]], "d": [[1.0, 0.0], [0.0, 1.0]]},
        })
        assert main(["spectrum", cfg]) == 2
        err = capsys.readouterr().err
        assert "dense.a0 must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["spectrum"], ["variational"], ["beam-report"],
                                         ["simulate", "--t-final", "0.01", "--dt", "0.001"]])
    def test_overflowing_beam_damping_exits_2(self, tmp_path, capsys, command):
        # A damping level of 1e306 overflows the Galerkin damping matrix and
        # the squares in the beam bounds.
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "beam",
            "beam": {"a0": 1.0, "n_modes": 12,
                     "damping": {"profile": "constant", "params": {"value": 1e306}}},
        })
        with np.errstate(over="ignore"):
            assert main([command[0], cfg, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err

    def test_two_sources_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[1.0]], "d": [[0.0]]},
            "random": {"dim": 2},
        })
        assert main(["spectrum", cfg]) == 2

    def test_cluster_tol_flag_is_gone(self, capsys):
        # The cluster tolerance is the constant CLUSTER_REL_TOL * |A|.
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", str(CONFIGS / "dense_diag.json"), "--cluster-tol", "1e-6"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --cluster-tol 1e-6" in err
        assert "Traceback" not in err


class TestVariationalCommand:
    def test_diag_fixture(self, tmp_path):
        out = tmp_path / "var.json"
        code = main(["variational", str(CONFIGS / "dense_diag.json"), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] and doc["kappa"] == 0
        assert doc["n_found"] == 1
        assert doc["eigenvalues"][0]["value"] == pytest.approx(-3.0 + SQRT7, abs=1e-9)
        assert doc["alpha"] == pytest.approx((3.0 - np.sqrt(53.0)) / 2.0, abs=1e-8)
        lower, upper = doc["alpha_bracket"]
        assert lower <= upper == doc["alpha"]

    @pytest.mark.parametrize("damping", [
        {"profile": "constant", "params": {"value": 4.0}},
        {"profile": "four_plus_sin", "params": {}},
    ])
    def test_beam_100_minmax_ok(self, tmp_path, damping):
        # cond(A0) = 1e8; every min-max check holds, and under constant
        # damping the located eigenvalues are the closed-form ones in the
        # interval.
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "beam", "seed": 0,
            "beam": {"a0": 1.0, "damping": damping, "n_modes": 100},
        })
        out = tmp_path / "var.json"
        assert main(["variational", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        checks = doc["minmax_report"]["checks"]
        assert doc["ok"] and doc["n_found"] >= 1
        assert checks and all(c["ok"] for c in checks)
        if damping["profile"] == "constant":
            exact = beam_closed_form(load_config(cfg).beam).real
            exact = -np.sort(-exact[(doc["interval"]["lower"] < exact) & (exact <= 0.0)])
            found = [e["value"] for e in doc["eigenvalues"] for _ in range(e["multiplicity"])]
            assert found == pytest.approx(exact.tolist(), rel=1e-12)

    def test_delta_lower_below_alpha_exits_2(self):
        code = main(["variational", str(CONFIGS / "dense_diag.json"),
                     "--delta-lower", "-50.0"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["variational", str(CONFIGS / "dense_diag.json")],
        ["interlace", str(CONFIGS / "beam_const4.json"), str(CONFIGS / "beam_const5.json")],
    ], ids=["variational", "interlace"])
    @pytest.mark.parametrize("value", ["-2e0", "-5e0", "-inf", "-50.0"])
    def test_delta_lower_space_form_is_the_one_token_form(self, capsys, argv, value):
        # argparse alone takes "-2e0" after an option for another option.
        runs = []
        for form in (["--delta-lower", value], [f"--delta-lower={value}"],
                     ["--delta-l", value]):
            code = main([*argv, *form])
            out, err = capsys.readouterr()
            runs.append((code, strip_timestamp(out), err))
        assert runs[0] == runs[1] == runs[2]
        assert "expected one argument" not in runs[0][2]

    @pytest.mark.parametrize("count", ["5", "0", "-3"])
    def test_subspaces_flag_is_gone(self, capsys, count):
        # The clauses over every subspace are decided by inertia counts:
        # there is no subspace count to set, not even the vacuous 0.
        with pytest.raises(SystemExit) as exc:
            main(["variational", str(CONFIGS / "dense_diag.json"), "--subspaces", count])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: quadpencil")
        assert f"unrecognized arguments: --subspaces {count}" in err
        assert "Traceback" not in err

    def test_undamped_source_finds_nothing(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[2.0, 0.0], [0.0, 8.0]], "d": [[0.0, 0.0], [0.0, 0.0]]},
        })
        out = tmp_path / "var.json"
        code = main(["variational", cfg, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_found"] == 0
        assert doc["alpha"] is None
        assert doc["alpha_bracket"] is None
        # Every real eigenvalue has |lam| <= |D| = 0.
        assert doc["interval"]["lower"] == -1.0

    def test_rescaled_diag_fixture(self, tmp_path):
        # A0 * 1e12, D * 1e6: the same pencil with every eigenvalue times 1e6.
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[2e12, 0.0], [0.0, 8e12]], "d": [[6e6, 0.0], [0.0, 2e6]]},
        })
        out = tmp_path / "var.json"
        assert main(["variational", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["eigenvalues"][0]["value"] == pytest.approx(1e6 * (-3.0 + SQRT7), rel=1e-12)
        checks = doc["minmax_report"]["checks"]
        assert all(c["ok"] for c in checks)
        attainers = [c for c in checks if c["label"] in (
            "achievement_eigenvector_span", "achievement_spectral_subspace",
            "dual_spectral_subspace")]
        assert len(attainers) == 3 * doc["n_found"] == 3
        for c in attainers:
            assert c["margin"] > 0.0
            assert abs(c["p_plus"] - c["eigenvalue"]) <= VERIFY_TOL

    def test_critical_and_overdamped_modes(self, tmp_path):
        # D = diag(2, 10): mode 1 is critically damped (double root -1 = alpha),
        # so R^2 touches the cone's boundary in the exhaustion clause.
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[1.0, 0.0], [0.0, 1.0]], "d": [[2.0, 0.0], [0.0, 10.0]]},
        })
        out = tmp_path / "var.json"
        assert main(["variational", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_found"] == 1
        assert doc["eigenvalues"][0]["value"] == pytest.approx(-5.0 + np.sqrt(24.0), rel=1e-12)
        checks = {c["label"]: c for c in doc["minmax_report"]["checks"]}
        assert checks["exhaustion_above_n"]["ok"]
        assert checks["exhaustion_above_n"]["negative_count"] == 1

    @pytest.mark.parametrize("a0, d, double", [
        ([3.0, 3.0], [7.0, 7.0], (-7.0 + np.sqrt(37.0)) / 2.0),
        ([2.0, 2.0, 8.0], [6.0, 6.0, 2.0], -3.0 + SQRT7),
    ])
    def test_semisimple_double_eigenvalue(self, tmp_path, a0, d, double):
        # T(double) vanishes on a 2-D kernel, which the min-max checks must
        # measure against the size of T's terms, not against |T(double)|.
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": np.diag(a0).tolist(), "d": np.diag(d).tolist()},
        })
        out = tmp_path / "var.json"
        assert main(["variational", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        (entry,) = doc["eigenvalues"]
        assert entry["multiplicity"] == 2 and doc["n_found"] == 2
        assert entry["value"] == pytest.approx(double, rel=1e-12)
        lo, hi = entry["bracket"]
        assert lo == doc["interval"]["lower"] and hi == 0.0
        assert all(c["ok"] for c in doc["minmax_report"]["checks"])

    def test_roots_closer_than_companion_scale_stay_apart(self, tmp_path):
        # Upper roots -0.5 and -0.5 - 3e-8 are farther apart than the
        # default eigen tolerance 1e-8: two entries, both verified.
        r = np.array([-0.5, -0.5 - 3e-8])
        d = np.array([5.0, 6.0])
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": np.diag(-r * r - d * r).tolist(), "d": np.diag(d).tolist()},
        })
        out = tmp_path / "var.json"
        assert main(["variational", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [e["multiplicity"] for e in doc["eigenvalues"]] == [1, 1]
        assert np.allclose([e["value"] for e in doc["eigenvalues"]], r, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [3e9, 1e12])
    def test_heavily_damped_neighbours_stay_apart(self, tmp_path, d):
        # The 12-mode constant beam at d = 3e9: modes 1 and 2, -3.3e-9 and
        # -1.3e-8, lie 9.9e-9 apart, under the tolerance 1e-8 taken
        # absolutely but a factor 4 apart (at d = 1e12 all 12 lie in
        # [-1.5e-9, 0]): below modulus 1 the merge is relative, so all 12
        # eigenvalues are simple entries at the closed form, all verified.
        cfg = write_config(tmp_path, {"schema": 1, "source": "beam", "beam": {
            "a0": 1.0, "n_modes": 12,
            "damping": {"profile": "constant", "params": {"value": d}}}})
        out = tmp_path / "var.json"
        assert main(["variational", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [e["multiplicity"] for e in doc["eigenvalues"]] == [1] * 12
        exact = beam_closed_form(load_config(cfg).beam).real
        exact = -np.sort(-exact[(doc["interval"]["lower"] < exact) & (exact <= 0.0)])
        found = np.array([e["value"] for e in doc["eigenvalues"]])
        assert exact.size == 12
        assert np.max(np.abs(found - exact) / np.abs(exact)) <= 1e-13

    def test_rerun_byte_identical_except_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["variational", str(CONFIGS / "dense_diag.json")]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())
        assert out1.read_text() != "" and "generated_at" in out1.read_text()


class TestInterlaceCommand:
    def test_identical_configs(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(["interlace", str(CONFIGS / "dense_diag.json"),
                     str(CONFIGS / "dense_diag.json"), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] and doc["comparison"]["form_order_ok"]

    def test_beam_pair(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(["interlace", str(CONFIGS / "beam_const4.json"),
                     str(CONFIGS / "beam_const5.json"), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["comparison"]["n_left"] <= doc["comparison"]["n_right"]
        assert all(row["ok"] for row in doc["comparison"]["per_n"])

    def test_violation_fixture_exits_1(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(["interlace", str(CONFIGS / "interlace_violation_a.json"),
                     str(CONFIGS / "interlace_violation_b.json"), "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert not doc["ok"] and not doc["comparison"]["form_order_ok"]

    @pytest.mark.parametrize("pair, code", [
        (("interlace_violation_a", "interlace_violation_b"), 1),
        (("beam_const4", "beam_const5"), 0),
    ])
    def test_form_order_checked_once(self, tmp_path, monkeypatch, pair, code):
        calls = []
        original = interlacing.check_form_order

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(interlacing, "check_form_order", counting)
        argv = ["interlace", *(str(CONFIGS / f"{name}.json") for name in pair),
                "--out", str(tmp_path / "cmp.json")]
        assert main(argv) == code
        assert len(calls) == 1

    def test_empty_cones_take_the_larger_d_norm(self, tmp_path):
        # Both real-root cones are empty: the shared interval is (-(|D_hat| + 1), 0],
        # |D_hat| = 0.2 the larger |D|, and holds no real eigenvalue.
        p = write_config(tmp_path, {"schema": 1, "source": "dense", "dense": {
            "a0": [[2.0, 0.0], [0.0, 3.0]], "d": [[0.1, 0.0], [0.0, 0.1]]}}, "p.json")
        p_hat = write_config(tmp_path, {"schema": 1, "source": "dense", "dense": {
            "a0": [[1.0, 0.0], [0.0, 2.0]], "d": [[0.2, 0.0], [0.0, 0.2]]}}, "p_hat.json")
        out = tmp_path / "cmp.json"
        assert main(["interlace", p, p_hat, "--out", str(out)]) == 0
        comparison = json.loads(out.read_text())["comparison"]
        assert comparison["interval_lower"] == -1.2
        assert comparison["n_left"] == comparison["n_right"] == 0

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        cfg1 = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[1.0]], "d": [[0.0]]},
        }, "one.json")
        assert main(["interlace", cfg1, str(CONFIGS / "dense_diag.json")]) == 2
        err = capsys.readouterr().err
        assert "dimension mismatch: 1 vs 2" in err and "Traceback" not in err


class TestSimulateCommand:
    @pytest.mark.parametrize("t_final, dt", [("1e300", "1e-300"), ("1", "1e-320"),
                                             ("1e12", "1e-3")])
    def test_step_count_over_limit_exits_2(self, tmp_path, capsys, t_final, dt):
        out = tmp_path / "trace.csv"
        code = main(["simulate", str(CONFIGS / "dense_diag.json"),
                     "--t-final", t_final, "--dt", dt, "--out", str(out)])
        assert code == 2
        assert "exceeds the limit" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["simulate", str(CONFIGS / "dense_diag.json"),
                     "--t-final", "0.1", "--dt", "0.001", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated_at=")
        assert lines[1] == "time,energy,dissipation"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 101
        energies = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(energies) <= 1e-10 * energies[0])

    def test_csv_matches_reference_loop(self, tmp_path):
        # Within oracles.trapezoid_error_bounds, plus half a unit in the
        # 16th digit of the %.16g format.
        path = CONFIGS / "dense_diag.json"
        out = tmp_path / "trace.csv"
        assert main(["simulate", str(path), "--t-final", "10", "--dt", "0.001",
                     "--out", str(out)]) == 0
        pencil = build_pencil(load_config(path))
        energies, dissipation, _, _ = trapezoid_reference(
            pencil, [1.0, 0.0], [0.0, 0.0], 10000, 0.001)
        _, energy_bound, rate_bound = trapezoid_error_bounds(
            pencil, [1.0, 0.0], [0.0, 0.0], 10000, 0.001)
        lines = out.read_text().split("\n")
        assert lines[0].startswith("# generated_at=") and lines[-1] == ""
        assert lines[1] == "time,energy,dissipation"
        rows = [line.split(",") for line in lines[2:-1]]
        times = 0.001 * np.arange(10001)
        assert_same_rows([r[0] for r in rows], [f"{t:.12g}" for t in times])
        for column, want, bound in ((1, energies, energy_bound), (2, dissipation, rate_bound)):
            got = np.array([float(r[column]) for r in rows])
            off = np.flatnonzero(np.abs(got - want) > bound + 5e-16 * np.abs(want))
            assert off.size == 0, f"column {column} first off at row {off[0]}"

    @pytest.mark.parametrize("rows", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_stdout_matches_out_file(self, tmp_path, capsys, rows):
        dt = 1.0 / 1024.0  # binary, so t_final / dt is exactly rows - 1
        argv = ["simulate", str(CONFIGS / "dense_diag.json"),
                "--t-final", repr((rows - 1) * dt), "--dt", repr(dt)]
        out = tmp_path / "trace.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        stdout, text = capsys.readouterr().out, out.read_text()
        assert stdout.startswith("# generated_at=") and text.startswith("# generated_at=")
        assert_same_rows(stdout.split("\n")[1:], text.split("\n")[1:])
        assert text.endswith("\n") and text.count("\n") == rows + 2

    def test_chunks_match_row_wise_formatter(self):
        # Edge values of each format (signed zero, subnormal-adjacent and
        # large magnitudes, a sum with a long repr, times around the %.12g
        # switch to exponents) across a chunk boundary.
        rows = CSV_CHUNK_ROWS + 5
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1e-4, rows)
        energies, dissipation = rng.standard_normal((2, rows)) * 10.0 ** rng.integers(-20, 20, rows)
        special = [-0.0, 1e-300, 1e16, 0.1 + 0.2, -1e-300, 5e-324, 1.7976931348623157e308]
        for start in (0, CSV_CHUNK_ROWS - 3):
            energies[start:start + len(special)] = special
            dissipation[start:start + len(special)] = special[::-1]
        times[1:7] = [1e-5, 9.999999999999999e-06, 1.0000000000000001e-05, 1e-4, 0.0001000000000001, -0.0]
        trace = SimulationTrace(times, energies, dissipation, 0.0)
        got = "".join(_csv_chunks(trace))
        want = "time,energy,dissipation\n" + csv_rows_reference(times, energies, dissipation)
        assert_same_rows(got.split("\n"), want.split("\n"))

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.lists(CSV_VALUES, min_size=1, max_size=40), min_size=3, max_size=3),
           st.integers(0, CSV_CHUNK_ROWS))
    def test_chunks_match_percent_on_any_double(self, columns, shift):
        # Each drawn column repeats over a chunk and a bit, rolled so that
        # every value can land on either side of the chunk boundary.
        rows = CSV_CHUNK_ROWS + 3
        times, energies, dissipation = (np.roll(np.resize(np.array(c), rows), shift)
                                        for c in columns)
        got = "".join(_csv_chunks(SimulationTrace(times, energies, dissipation, 0.0)))
        want = "time,energy,dissipation\n" + csv_rows_reference(times, energies, dissipation)
        assert_same_rows(got.split("\n"), want.split("\n"))

    @staticmethod
    def spy_on_percent(monkeypatch):
        """The (precision, value) pairs the kernel leaves to Python's %."""
        calls, percent = [], cli._percent_g

        def spy(pair):
            calls.append(pair)
            return percent(pair)
        monkeypatch.setattr(cli, "_percent_g", spy)
        return calls

    def test_each_fallback_class_goes_to_percent(self, monkeypatch):
        classes = {
            "zero": [(12, 0.0), (16, -0.0)],
            "non-finite": [(16, math.inf), (16, -math.inf), (12, math.nan)],
            "exponent form": [(12, 1e-5), (16, -2.5e-7), (12, 1e12), (16, 3e17)],
            "rounds up to the exponent form": [(12, 999999999999.7), (12, -999999999999.9)],
            "log10 off by one": [(12, 999.9999999999999), (16, 0.09999999999999999)],
            "tie": [(12, 100000000000.5), (12, -123456789012.5), (16, 1000000000000000.5)],
        }
        pairs = [pair for members in classes.values() for pair in members]
        # One value a row, in the time column at 12 digits or the energy
        # column at 16; 1.5 fills the rest.
        times, energies = ([v if p == digits else 1.5 for p, v in pairs] for digits in (12, 16))
        columns = np.array(times), np.array(energies), np.full(len(pairs), 1.5)
        calls = self.spy_on_percent(monkeypatch)
        got = "".join(_csv_chunks(SimulationTrace(*columns, 0.0)))
        assert got == "time,energy,dissipation\n" + csv_rows_reference(*columns)
        assert sorted(map(repr, calls)) == sorted(map(repr, pairs))

    def test_cli_mix_trace_leaves_at_most_3_values_to_percent(self, monkeypatch):
        pencil = build_pencil(load_config(CONFIGS / "dense_diag.json"))
        trace = simulate(pencil, np.eye(2)[0], np.zeros(2), 10.0, 1e-3)
        calls = self.spy_on_percent(monkeypatch)
        assert "".join(_csv_chunks(trace)).count("\n") == 10002
        assert len(calls) <= 3

    def test_digit_tables_are_built_on_first_use(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import quadpencil.cli as cli; "
                "print(cli._csv_tables.cache_info().currsize)")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "0"

    def test_initial_data_from_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[2.0, 0.0], [0.0, 8.0]], "d": [[6.0, 0.0], [0.0, 2.0]]},
            "initial": {"z0": [0.0, 1.0], "w0": [0.0, 0.0]},
        })
        out = tmp_path / "trace.csv"
        assert main(["simulate", cfg, "--t-final", "0.01", "--dt", "0.001",
                     "--out", str(out)]) == 0
        first = out.read_text().splitlines()[2].split(",")
        assert float(first[1]) == pytest.approx(8.0)

    @pytest.mark.parametrize("z0, message", [
        (["a", 1.0], "initial.z0 is not a numeric array"),
        ([float("nan"), 1.0], "initial.z0 must be finite"),
    ])
    def test_malformed_initial_data_exits_2(self, tmp_path, capsys, z0, message):
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[2.0, 0.0], [0.0, 8.0]], "d": [[6.0, 0.0], [0.0, 2.0]]},
            "initial": {"z0": z0, "w0": [0.0, 0.0]},
        })
        assert main(["simulate", cfg, "--t-final", "0.01", "--dt", "0.001"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_initial_data_of_wrong_length_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": [[2.0, 0.0], [0.0, 8.0]], "d": [[6.0, 0.0], [0.0, 2.0]]},
            "initial": {"z0": [1.0, 0.0, 0.0], "w0": [0.0, 0.0, 0.0]},
        })
        assert main(["simulate", cfg, "--t-final", "0.01", "--dt", "0.001"]) == 2
        captured = capsys.readouterr()
        assert "do not match dimension 2" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("t_final, dt", [("nan", "0.001"), ("inf", "0.001"),
                                             ("1", "nan"), ("1", "inf")])
    def test_nonfinite_times_exit_2(self, capsys, t_final, dt):
        assert main(["simulate", str(CONFIGS / "dense_diag.json"),
                     "--t-final", t_final, "--dt", dt]) == 2
        captured = capsys.readouterr()
        assert "t_final and dt must be finite" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_rerun_identical_except_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", str(CONFIGS / "dense_diag.json"),
                "--t-final", "0.05", "--dt", "0.001"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert_same_rows(strip_timestamp(out1.read_text()).split("\n"),
                         strip_timestamp(out2.read_text()).split("\n"))

    def test_scaled_propagator_exits_1(self, tmp_path, monkeypatch, capsys):
        # Each step shrinks by 1 - 1e-8 more than the scheme: the energy
        # still decreases, but the per-step identity fails by about 4e-8
        # against its bound of 1e-10 E(0) = 2e-10.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: (1.0 - 1e-8) * solve(a, b))
        assert main(["simulate", str(CONFIGS / "dense_diag.json"), "--t-final", "10",
                     "--dt", "0.001", "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("energy law violated: per_step_identity")


class TestBeamReportCommand:
    def test_const4(self, tmp_path):
        out = tmp_path / "beam.json"
        code = main(["beam-report", str(CONFIGS / "beam_const4.json"),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"]
        assert doc["bounds"]["n_min_count"] == 2
        assert doc["bounds"]["applicable"]
        assert "closed_form" in doc

    def test_requires_beam_source(self):
        assert main(["beam-report", str(CONFIGS / "dense_diag.json")]) == 2

    def test_alpha_right_of_interval_is_a_failed_check(self, tmp_path, monkeypatch):
        # Negative control: an alpha above -d_min pi^2 / 2 fails the
        # hypothesis check, and the report ends there with exit 1.
        from quadpencil import beam
        from quadpencil.pencil import AlphaResult

        monkeypatch.setattr(beam, "alpha_brackets",
                            lambda pencil: iter([AlphaResult(-1.0, -1.0, None)]))
        out = tmp_path / "beam.json"
        code = main(["beam-report", str(CONFIGS / "beam_const4.json"),
                     "--out", str(out)])
        assert code == 1
        checks = json.loads(out.read_text())["report"]["checks"]
        assert checks[-1]["label"] == "alpha_below_interval"
        assert not checks[-1]["ok"] and checks[-1]["alpha"] == -1.0


class TestIllConditionedStiffness:
    """The rotated cond(A0) = 1e6 pencil: every command exits 0, `spectrum`
    with the rounding defect of the companion's closed-form inverse inside
    its bound, which grows with |A^{-1}|."""

    @pytest.fixture
    def cfg(self, tmp_path, rotated_pencil):
        return write_config(tmp_path, {
            "schema": 1, "source": "dense",
            "dense": {"a0": rotated_pencil.a0_matrix.tolist(),
                      "d": rotated_pencil.d_matrix.tolist()},
        })

    def test_variational_exits_0(self, tmp_path, cfg):
        out = tmp_path / "var.json"
        assert main(["variational", cfg, "--out", str(out)]) == 0
        found = [e["value"] for e in json.loads(out.read_text())["eigenvalues"]]
        assert found == pytest.approx([-(3.0 - np.sqrt(9.0 - 4e-6)) / 2.0,
                                       -(3.0 - np.sqrt(5.0)) / 2.0], rel=1e-8)

    def test_simulate_exits_0(self, tmp_path, cfg):
        out = tmp_path / "trace.csv"
        assert main(["simulate", cfg, "--t-final", "0.1", "--dt", "0.01",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 11

    def test_interlace_with_itself_exits_0(self, tmp_path, cfg):
        assert main(["interlace", cfg, cfg, "--out", str(tmp_path / "cmp.json")]) == 0

    def test_spectrum_reports_inverse_identity(self, tmp_path, cfg):
        out = tmp_path / "spec.json"
        assert main(["spectrum", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        checks = {c["label"]: c for c in doc["reports"]["structural"]["checks"]}
        check = checks["inverse_identity"]
        assert check["ok"] and check["defect"] <= check["bound"]


class TestDispatch:
    def test_consecutive_calls_with_different_subcommands(self, tmp_path, capsys):
        # One parser serves every call in the process; each call parses its
        # own arguments and runs its own command.
        spectrum, variational = tmp_path / "s.json", tmp_path / "v.json"
        cfg = str(CONFIGS / "dense_diag.json")
        assert main(["spectrum", cfg, "--out", str(spectrum)]) == 0
        assert main(["variational", cfg, "--out", str(variational)]) == 0
        assert main(["simulate", cfg, "--t-final", "0.1", "--dt", "0.05"]) == 0
        assert json.loads(spectrum.read_text())["command"] == "spectrum"
        doc = json.loads(variational.read_text())
        assert doc["command"] == "variational"
        assert doc["minmax_report"]["checks"][-1]["negative_count"] == 1
        assert capsys.readouterr().out.splitlines()[1] == "time,energy,dissipation"

    @pytest.mark.parametrize("argv", [
        ["spectrum", str(CONFIGS / "dense_diag.json")],
        ["variational", str(CONFIGS / "dense_diag.json")],
        ["interlace", str(CONFIGS / "beam_const4.json"), str(CONFIGS / "beam_const5.json")],
        ["simulate", str(CONFIGS / "dense_diag.json"), "--t-final", "0.01", "--dt", "0.001"],
        ["beam-report", str(CONFIGS / "beam_const4.json")],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out.txt"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"input error: cannot write {out}" in err and "Traceback" not in err

    def test_unknown_quadrature_rule_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "source": "beam",
            "beam": {"damping": {"profile": "constant", "params": {"value": 4.0}},
                     "quadrature": {"rule": "simpson"}},
        })
        assert main(["spectrum", cfg]) == 2
        assert "unknown quadrature rule 'simpson'" in capsys.readouterr().err


class TestNumericalFailureExit:
    def test_computation_error_exits_3(self, monkeypatch):
        import quadpencil.cli as cli_mod
        from quadpencil.errors import ComputationError

        def boom(args):
            raise ComputationError("synthetic breakdown", bracket=(0.0, 1.0))

        monkeypatch.setattr(cli_mod, "cmd_spectrum", boom)
        assert cli_mod.main(["spectrum", str(CONFIGS / "dense_diag.json")]) == 3


class TestSeedOverride:
    def test_env_seed_changes_random_source(self, tmp_path, monkeypatch):
        out1, out2, out3 = (tmp_path / n for n in ("s1.json", "s2.json", "s3.json"))
        argv = ["spectrum", str(CONFIGS / "random_dim4.json")]
        monkeypatch.setenv("QUADPENCIL_SEED", "11")
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        monkeypatch.setenv("QUADPENCIL_SEED", "12")
        assert main(argv + ["--out", str(out3)]) == 0
        assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())
        assert strip_timestamp(out1.read_text()) != strip_timestamp(out3.read_text())

    @pytest.mark.parametrize("name", sorted(c.stem for c in CONFIGS.glob("*.json")))
    def test_bad_env_seed_exits_2(self, monkeypatch, name):
        # Only random.seed is drawn from, but every config rejects it.
        monkeypatch.setenv("QUADPENCIL_SEED", "not-a-number")
        assert main(["spectrum", str(CONFIGS / f"{name}.json")]) == 2

    def test_negative_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("QUADPENCIL_SEED", "-4")
        assert main(["spectrum", str(CONFIGS / "random_dim4.json")]) == 2
        err = capsys.readouterr().err
        assert "QUADPENCIL_SEED must be >= 0" in err and "Traceback" not in err


class TestMalformedNumbers:
    @pytest.mark.parametrize("doc, message", [
        ({"source": "dense", "dense": {"a0": [[1.0]], "d": [[0.0]]}, "seed": "x"},
         "seed must be an integer"),
        ({"source": "random", "random": {"dim": 3, "seed": -1}},
         "random.seed must be >= 0"),
        ({"source": "random", "random": {"dim": 2.5}},
         "random.dim must be an integer"),
        ({"source": "dense", "dense": {"a0": [[1.0]], "d": [[0.0]]},
          "tolerances": {"eigen": "tight"}},
         "unknown config keys ['tolerances']"),
        ({"source": "dense", "dense": {"a0": [[1.0]], "d": [[0.0]]}, "sead": 3},
         "unknown config keys ['sead']"),
        ({"source": "beam", "beam": {"n_modes": 12.7, "damping": {"profile": "four_plus_sin"}}},
         "beam.n_modes must be an integer"),
        ({"source": "beam", "beam": {"a0": True, "damping": {"profile": "four_plus_sin"}}},
         "beam.a0 must be a finite number"),
        ({"source": "beam", "beam": {"damping": {"profile": "four_plus_sin"},
                                     "quadrature": {"points_per_mode_pair": 2.9}}},
         "beam.quadrature.points_per_mode_pair must be an integer"),
        ({"source": "beam",
          "beam": {"damping": {"profile": "constant", "params": {"value": True}}}},
         "beam.damping.params.value must be a finite number"),
        ({"source": "random", "random": {"dim": 3, "ensure_real_root_cone": "no"}},
         "random.ensure_real_root_cone must be true or false"),
        ({"source": "beam", "beam": {"damping": "constant"}},
         "beam.damping and beam.quadrature must be objects"),
        ({"source": "beam", "beam": {"damping": {"profile": "four_plus_sin"}, "quadrature": 8}},
         "beam.damping and beam.quadrature must be objects"),
        ({"source": "beam", "beam": {"damping": {"profile": "four_plus_sin"}, "n_mode": 3}},
         "unknown config keys ['n_mode'] in beam"),
        ({"source": "dense", "dense": {"a0": [[1.0]], "d": [[0.0]], "D": [[1.0]]}},
         "unknown config keys ['D'] in dense"),
        ({"source": "random", "random": {"dim": 3, "sed": 1}},
         "unknown config keys ['sed'] in random"),
        ({"source": "dense", "dense": {"a0": [[1.0]], "d": [[0.0]]},
          "initial": {"z0": [1.0], "w0": [0.0], "v0": [0.0]}},
         "unknown config keys ['v0'] in initial"),
        ({"source": "beam", "beam": {"damping": {"profile": "four_plus_sin", "param": {}}}},
         "unknown config keys ['param'] in beam.damping"),
        ({"source": "beam", "beam": {"damping": {"profile": "four_plus_sin"},
                                     "quadrature": {"points": 4}}},
         "unknown config keys ['points'] in beam.quadrature"),
        ({"source": "dense", "dense": {"a0": [[True]], "d": [[False]]}},
         "dense.a0 must hold numbers, not booleans"),
        ({"source": "dense", "dense": {"a0": [[1.0]], "d": [[True]]}},
         "dense.d must hold numbers, not booleans"),
        ({"source": "dense", "dense": {"a0": [[1.0]], "d": [[0.0]]},
          "initial": {"z0": [1.0], "w0": [False]}},
         "initial.w0 must hold numbers, not booleans"),
        ({"source": "beam", "beam": {"damping": {"profile": "samples",
                                                 "params": {"values": [4.0, True, 4.0, 4.0]}}}},
         "beam.damping.params.values must hold numbers, not booleans"),
        # Each damping profile takes only the parameters it reads.
        ({"source": "beam", "beam": {"damping": {"profile": "constant",
                                                 "params": {"value": 4.0, "valeu": 5.0}}}},
         "unknown params ['valeu'] for damping profile 'constant'"),
        ({"source": "beam", "beam": {"damping": {"profile": "affine",
                                                 "params": {"intercept": 4.0, "slop": 1.0}}}},
         "unknown params ['slop'] for damping profile 'affine'"),
        ({"source": "beam", "beam": {"damping": {"profile": "four_plus_sin",
                                                 "params": {"value": 4.0}}}},
         "unknown params ['value'] for damping profile 'four_plus_sin'"),
        ({"source": "beam", "beam": {"damping": {"profile": "samples", "params": {
            "values": [4.0, 4.5, 4.5, 4.0], "value": 4.0}}}},
         "unknown params ['value'] for damping profile 'samples'"),
        # and needs each but affine's slope.
        ({"source": "beam", "beam": {"damping": {"profile": "constant"}}},
         "missing params ['value'] for damping profile 'constant'"),
        ({"source": "beam", "beam": {"damping": {"profile": "affine",
                                                 "params": {"slope": 1.0}}}},
         "missing params ['intercept'] for damping profile 'affine'"),
        ({"source": "beam", "beam": {"damping": {"profile": "samples", "params": {}}}},
         "missing params ['values'] for damping profile 'samples'"),
        # A number is a JSON number; only integers (QUADPENCIL_SEED) may be strings.
        ({"source": "beam", "beam": {"a0": "2.5", "damping": {"profile": "four_plus_sin"}}},
         "beam.a0 must be a finite number"),
        ({"source": "beam",
          "beam": {"damping": {"profile": "constant", "params": {"value": "4.0"}}}},
         "beam.damping.params.value must be a finite number"),
        ({"source": "random", "random": {"dim": 3, "damping_scale": "4.0"}},
         "random.damping_scale must be a finite number"),
        ({"source": "dense", "dense": {"a0": [["2.0"]], "d": [[1.0]]}},
         "dense.a0 must hold numbers, not booleans or strings"),
        ({"source": "dense", "dense": {"a0": [[2.0]], "d": [["1"]]}},
         "dense.d must hold numbers, not booleans or strings"),
        ({"source": "beam", "beam": {"damping": {"profile": "samples",
                                                 "params": {"values": [4.0, "4.5", 4.5, 4.0]}}}},
         "beam.damping.params.values must hold numbers, not booleans or strings"),
    ])
    def test_exits_2_without_traceback(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, {"schema": 1, **doc})
        assert main(["spectrum", cfg]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["spectrum", "variational", "beam-report", "simulate"])
    @pytest.mark.parametrize("source", ["beam", "random"])
    def test_size_over_the_limit_exits_2(self, tmp_path, capsys, command, source):
        # 10^8 modes would exhaust memory; the parse rejects them before
        # anything is allocated.
        section = ({"n_modes": 10**8, "damping": {"profile": "four_plus_sin"}}
                   if source == "beam" else {"dim": 10**8})
        cfg = write_config(tmp_path, {"schema": 1, "source": source, source: section})
        extra = ["--t-final", "1", "--dt", "0.1"] if command == "simulate" else []
        assert main([command, cfg, *extra]) == 2
        err = capsys.readouterr().err
        name = "beam.n_modes" if source == "beam" else "random.dim"
        assert f"{name} must be <= {config.MAX_DIM}, got 100000000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["spectrum", "variational", "beam-report", "simulate"])
    def test_quadrature_density_over_the_limit_exits_2(self, tmp_path, capsys, command):
        # 10^15 points per mode pair would fill (2n + 1) x 10^15 n / 8
        # tables; the parse rejects them before anything is allocated.
        section = {"n_modes": 12, "damping": {"profile": "four_plus_sin"},
                   "quadrature": {"rule": "gauss", "points_per_mode_pair": 10**15}}
        cfg = write_config(tmp_path, {"schema": 1, "source": "beam", "beam": section})
        extra = ["--t-final", "1", "--dt", "0.1"] if command == "simulate" else []
        tracemalloc.start()
        try:
            assert main([command, cfg, *extra]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 22
        err = capsys.readouterr().err
        assert (f"points_per_mode_pair * n_modes must be <= {8 * config.MAX_DIM}, "
                f"got {12 * 10**15}") in err
        assert "Traceback" not in err

    def test_quadrature_density_limit_admits_the_default_at_max_dim(self):
        def doc(n_modes, points):
            return {"schema": 1, "source": "beam", "beam": {
                "n_modes": n_modes, "damping": {"profile": "four_plus_sin"},
                "quadrature": {"rule": "gauss", "points_per_mode_pair": points}}}

        config.parse_config(doc(config.MAX_DIM, 8))
        config.parse_config(doc(1, 8 * config.MAX_DIM))
        with pytest.raises(ConfigError, match="points_per_mode_pair \\* n_modes must be <="):
            config.parse_config(doc(1, 8 * config.MAX_DIM + 1))

    @pytest.mark.parametrize("source", ["beam", "random"])
    def test_size_limit_admits_n_200(self, source):
        key = "n_modes" if source == "beam" else "dim"
        assert config.MAX_DIM >= 200
        for n, ok in ((200, True), (config.MAX_DIM, True), (config.MAX_DIM + 1, False)):
            doc = {"schema": 1, "source": source, source: {key: n}}
            if source == "beam":
                doc["beam"]["damping"] = {"profile": "four_plus_sin"}
            if ok:
                config.parse_config(doc)
            else:
                with pytest.raises(ConfigError, match="must be <="):
                    config.parse_config(doc)

"""A verdict ledger: the exit code of every run of a fixed table of valid
inputs through cli.main, in process.

Every input is a valid pencil, so every run should exit 0. The runs that do
not are the known false alarms, listed by name with the exit code they give
today; a new false alarm, or a changed code, fails its case. The list only
shrinks as the alarms are mended. Every JSON output is strict JSON: no NaN
or Infinity.
"""
import json

import pytest

from quadpencil.cli import main

PROFILES = ("constant", "four_plus_sin")
BEAM_MODES = (12, 50, 100, 150, 200)
# The 2x2 pencil A0 = [[1, .2], [.2, 3]], D = [[1, .1], [.1, 4]], scaled by
# lam -> c lam (A0 -> c^2 A0, D -> c D), and the Jordan pencil, whose -1 is a
# defective double eigenvalue.
PAIR_SCALES = (1e-10, 1e-9, 1e-6, 1.0, 1e6)


def _beam(profile, n_modes, d=4.0):
    params = {"value": d} if profile == "constant" else {}
    return {"schema": 1, "source": "beam", "beam": {
        "a0": 1.0, "damping": {"profile": profile, "params": params}, "n_modes": n_modes}}


def _dense(a0, d):
    return {"schema": 1, "source": "dense", "dense": {"a0": a0, "d": d}}


INPUTS = {
    **{f"{profile}_{n}": _beam(profile, n) for profile in PROFILES for n in BEAM_MODES},
    "constant_12_d1e9": _beam("constant", 12, 1e9),
    **{f"pair_c{c:g}": _dense([[c * c, 0.2 * c * c], [0.2 * c * c, 3.0 * c * c]],
                              [[c, 0.1 * c], [0.1 * c, 4.0 * c]]) for c in PAIR_SCALES},
    "jordan": _dense([[1.0, 1.0], [1.0, 3.0]], [[2.0, 1.0], [1.0, 2.0]]),
}
RUNS = [(command, name) for name in INPUTS
        for command in ("spectrum", "variational", "beam-report")
        if command != "beam-report" or INPUTS[name]["source"] == "beam"]
KNOWN_FALSE_ALARMS = {
    # Heavy damping: spectrum fails zero_not_eigenvalue, an open disc of the
    # resolvent regions and eigenvalue_matches_pencil; beam-report fails
    # count_at_least_guaranteed, which asks the 12-mode pencil for the
    # infinite beam's 707106781 eigenvalues (ROADMAP item 5).
    ("spectrum", "constant_12_d1e9"): 1,
    ("beam-report", "constant_12_d1e9"): 1,
    # achievement_eigenvector_span and achievement_spectral_subspace fail:
    # mu = lambda -+ VERIFY_TOL, absolute, lies far from an eigenvalue of
    # about -1e-9 (ROADMAP item 8).
    ("variational", "pair_c1e-10"): 1,
    ("variational", "pair_c1e-09"): 1,
}


# interlace on ordered pairs (p, p_hat): beams of damping d = 4 against a
# stronger one, and a pair whose real-root cones are both empty.
PAIR_INPUTS = {
    **INPUTS,
    **{f"constant_d5_{n}": _beam("constant", n, 5.0) for n in (12, 50, 100)},
    "empty_cone": _dense([[2.0, 0.0], [0.0, 3.0]], [[0.1, 0.0], [0.0, 0.1]]),
    "empty_cone_hat": _dense([[1.0, 0.0], [0.0, 2.0]], [[0.2, 0.0], [0.0, 0.2]]),
}
INTERLACE_RUNS = [(f"constant_{n}", f"{hat}_{n}") for hat in ("four_plus_sin", "constant_d5")
                  for n in (12, 50, 100)] + [("empty_cone", "empty_cone_hat")]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_the_table_has_45_runs():
    assert len(RUNS) == 45
    assert set(KNOWN_FALSE_ALARMS) <= set(RUNS)


@pytest.mark.parametrize("command, name", RUNS, ids=lambda v: v)
def test_exit_code(tmp_path, command, name):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(INPUTS[name]))
    out = tmp_path / "out"
    code = main([command, str(config), "--out", str(out)])
    assert code == KNOWN_FALSE_ALARMS.get((command, name), 0)
    if code in (0, 1):
        _strict_json(out.read_text())


@pytest.mark.parametrize("pair", INTERLACE_RUNS, ids="-".join)
def test_interlace_exit_code(tmp_path, pair):
    configs = [tmp_path / f"{name}.json" for name in pair]
    for path, name in zip(configs, pair):
        path.write_text(json.dumps(PAIR_INPUTS[name]))
    out = tmp_path / "out"
    assert main(["interlace", *map(str, configs), "--out", str(out)]) == 0
    comparison = _strict_json(out.read_text())["comparison"]
    if pair[0] == "empty_cone":  # (-(|D_hat| + 1), 0], |D_hat| = 0.2 the larger |D|
        assert comparison["interval_lower"] == -1.2


# simulate on every beam of the table: 1000 trapezoidal steps of dt = 1e-4.
# None is a known false alarm today.
SIMULATE_RUNS = [f"{profile}_{n}" for profile in PROFILES for n in BEAM_MODES]


@pytest.mark.parametrize("name", SIMULATE_RUNS)
def test_simulate_exit_code(tmp_path, name):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(INPUTS[name]))
    out = tmp_path / "trace.csv"
    assert main(["simulate", str(config), "--t-final", "0.1", "--dt", "1e-4",
                 "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 1003  # timestamp, header and 1001 rows

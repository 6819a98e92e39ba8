"""The result records that are typing.NamedTuples: their fields are
read-only, none is part of a report's check data, and reports._jsonable,
the one JSON encoder, writes each as an object of its fields."""
import math
from pathlib import Path

import numpy as np
import pytest

from quadpencil import (
    AlphaResult,
    BeamBounds,
    ComparisonReport,
    DampingProfile,
    DstarCertificate,
    InertiaCount,
    PencilScalars,
    RayleighPair,
    SimulationTrace,
    beam_bounds,
    blocks,
    build_linearization,
    cli,
    compare_eigenvalues,
    compute_alpha,
    compute_scalars,
    dstar_empty_certificate,
    inertia_negative,
    load_config,
    rayleigh_pair,
    reports,
    simulate,
)
from quadpencil.blocks import BlockDiagonal, Partition
from quadpencil.config import build_pencil
from quadpencil.linearization import BlockEig, companion_eig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_NAMES = ("beam_const4", "beam_const5", "beam_sin", "dense_diag",
                "interlace_violation_a", "interlace_violation_b", "random_dim4")
# The exit code of each command on the shipped configs: every check passes,
# but beam-report needs a beam (2, input error) and the violation pair is
# out of form order (1). Interlace pairs are keyed by their first config.
EXIT_CODES = {
    **{(command, name): 0 for command in ("spectrum", "variational", "simulate")
       for name in CONFIG_NAMES},
    **{("beam-report", name): 0 if name.startswith("beam_") else 2 for name in CONFIG_NAMES},
    ("interlace", "beam_const4"): 0,
    ("interlace", "interlace_violation_a"): 1,
}
RECORDS = (DampingProfile, BeamBounds, Partition, SimulationTrace,
           ComparisonReport, BlockEig, BlockDiagonal, RayleighPair, PencilScalars, AlphaResult,
           DstarCertificate, InertiaCount)


@pytest.fixture(scope="module")
def instances():
    config = load_config(CONFIGS / "beam_const4.json")
    pencil = build_pencil(config)
    other = build_pencil(load_config(CONFIGS / "beam_const5.json"))
    a = build_linearization(pencil).a_matrix
    e1 = np.eye(pencil.dim)[0]
    return {
        DampingProfile: config.beam.damping,
        BeamBounds: beam_bounds(config.beam),
        Partition: blocks.partition(a),
        SimulationTrace: simulate(pencil, e1, 0.0 * e1, 0.01, 0.001),
        ComparisonReport: compare_eigenvalues(pencil, other),
        BlockEig: companion_eig(a, blocks.partition(a)),
        BlockDiagonal: pencil.a0_sqrt_blocks,
        RayleighPair: rayleigh_pair(pencil, e1),
        PencilScalars: compute_scalars(pencil),
        AlphaResult: compute_alpha(pencil),
        DstarCertificate: dstar_empty_certificate(pencil),
        InertiaCount: inertia_negative(pencil, -1.0),
    }


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(record, instances):
    value = instances[record]
    assert type(value) is record
    with pytest.raises(AttributeError):
        setattr(value, record._fields[0], None)


def _records_in(value):
    if isinstance(value, RECORDS):
        return [type(value).__name__]
    if isinstance(value, (list, tuple)):
        return [name for v in value for name in _records_in(v)]
    if isinstance(value, dict):
        return [name for v in value.values() for name in _records_in(v)]
    return []


def test_no_record_in_check_data(tmp_path, monkeypatch):
    seen = []
    add = reports.Report.add

    def recording(self, label, ok, **data):
        seen.extend(_records_in(data))
        add(self, label, ok, **data)

    monkeypatch.setattr(reports.Report, "add", recording)
    out = str(tmp_path / "out")
    codes = {}
    assert tuple(sorted(c.stem for c in CONFIGS.glob("*.json"))) == CONFIG_NAMES
    for name in CONFIG_NAMES:
        for command in (["spectrum"], ["variational"], ["beam-report"],
                        ["simulate", "--t-final", "0.01", "--dt", "0.001"]):
            codes[command[0], name] = cli.main(
                [command[0], str(CONFIGS / f"{name}.json"), *command[1:], "--out", out])
    for pair in (("beam_const4", "beam_const5"),
                 ("interlace_violation_a", "interlace_violation_b")):
        codes["interlace", pair[0]] = cli.main(
            ["interlace", *(str(CONFIGS / f"{name}.json") for name in pair), "--out", out])
    assert seen == []
    assert codes == EXIT_CODES


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_jsonable_writes_a_record_as_its_fields(record, instances):
    value = instances[record]
    written = reports._jsonable(value)
    assert isinstance(written, dict) and list(written) == list(record._fields)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_jsonable_writes_a_nonfinite_float_as_null(bad):
    import json

    assert reports._jsonable(bad) is None
    assert reports._jsonable(np.float64(bad)) is None
    assert reports._jsonable(np.float32(bad)) is None
    assert reports._jsonable(np.array([1.5, bad, -2.0])) == [1.5, None, -2.0]
    assert reports._jsonable(np.array([[bad], [0.5]])) == [[None], [0.5]]
    assert reports._jsonable(complex(bad, 1.0)) == {"re": None, "im": 1.0}
    assert reports._jsonable(np.array([1j, bad])) == [{"re": 0.0, "im": 1.0},
                                                       {"re": None, "im": 0.0}]
    assert reports._jsonable({"a": [bad, (bad, 2)]}) == {"a": [None, [None, 2]]}
    json.dumps(reports._jsonable([bad, np.array([bad])]), allow_nan=False)

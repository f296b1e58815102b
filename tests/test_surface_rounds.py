"""Each round of the constraint-surface solve is one value pass over the
points still running.  A point that leaves the expression domain is
rejected by the pass's redo: the tree walker runs once for it, the pass
goes on, and no point is taken again alone.  The momenta's shape is
checked once, before any solve."""

import json

import numpy as np
import pytest

from noncanon import expressions, reduction
from noncanon.brackets import PoissonStructure, StructureError
from noncanon.cli import EXIT_OK, main
from noncanon.expressions import DomainError
from noncanon.reduction import surface_cloud
from test_block_surface import REFERENCES, _momenta
from test_fixed_point import SURFACES


def test_a_round_with_domain_rejects_is_one_pass(monkeypatch):
    # the log(q1) surface rejects 368 of its 600 points by DomainError
    walks, rounds, rejects = [], [], []
    reference_row, at_points, surface_q = (
        expressions._reference_row,
        PoissonStructure._at_points,
        reduction._surface_q,
    )

    def walked(*args):
        walks.append(args)
        return reference_row(*args)

    def block(self, x, *args, **kwargs):
        if rounds:  # not the reference point's theta block
            rounds[-1].append(len(x))
        return at_points(self, x, *args, **kwargs)

    def solve(*args):
        rounds.append([])
        q, failed = surface_q(*args)
        rejects.extend(err for err in failed.values() if isinstance(err, DomainError))
        return q, failed

    monkeypatch.setattr(expressions, "_reference_row", walked)
    monkeypatch.setattr(PoissonStructure, "_at_points", block)
    monkeypatch.setattr(reduction, "_surface_q", solve)
    sample = surface_cloud(SURFACES[3], REFERENCES[3], _momenta(3, 600))
    assert len(rejects) == 368
    assert len(walks) == len(rejects)
    assert sample.rejected == len(rejects) + 1  # and one that does not converge
    # the running points never grow in number, so a pass over a block of
    # one follows no larger block of the same solve
    assert len(rounds) == 3
    for sizes in rounds:
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > 1


def test_a_reduce_run_drops_the_points_that_leave_the_domain(tmp_path, monkeypatch):
    # theta * f = 1 and theta solves theta^2 - p2 theta - q1 = 0, which
    # satisfies the transport pair; sqrt leaves the domain where
    # p2^2 + 4 q1 < 0, and 2/(...) where its denominator vanishes
    doc = {
        "version": 1,
        "phase_space": {"n": 2},
        "structure": {
            "kind": "theta-f-field",
            "theta": {"1,2": "(p2 + sqrt(p2^2 + 4*q1))/2"},
            "f": {"1,2": "2/(p2 + sqrt(p2^2 + 4*q1))"},
        },
        "seed": 5,
        "reduction": {
            "reference_point": [0.3, 0.4, 0.3, 0.5],
            "surface_points": 200,
            "surface_parameter_ranges": {"p1": [-2, 2], "p2": [-2, 2]},
        },
        "assertions": [
            {"name": "reduced bracket is constant on the surface",
             "value": "reduction.spread", "op": "<=", "threshold": 1e-9},
        ],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    walks = []
    reference_row = expressions._reference_row

    def walked(*args):
        walks.append(args)
        return reference_row(*args)

    monkeypatch.setattr(expressions, "_reference_row", walked)
    out = tmp_path / "out"
    assert main(["reduce", "--config", str(config), "--out", str(out)]) == EXIT_OK
    rows = (out / "surface_points.csv").read_text().splitlines()[1:]
    assert 0 < len(rows) < 200
    # each dropped point leaves the domain, on the tree walker, once
    assert len(walks) == 200 - len(rows)
    report = json.loads((out / "reduce_report.json").read_text())
    (spread,) = report["assertions"]
    assert spread["passed"] and spread["observed"] <= 1e-9


def test_no_momenta_give_an_empty_sample():
    # as ``np.empty((0, 2))`` does (``tests/test_block_surface.py``)
    sample = surface_cloud(SURFACES[1], REFERENCES[1], [])
    assert sample.points.shape == (0, 4)
    assert sample.rejected == 0


@pytest.mark.parametrize(
    "momenta", [[[0.5, 0.5, 0.5]], [0.5], [0.5, 0.5, 0.5, 0.5], np.zeros((3, 2, 1))]
)
def test_momenta_of_another_width_are_refused(momenta):
    with pytest.raises(StructureError, match="momenta must have 2 columns"):
        surface_cloud(SURFACES[1], REFERENCES[1], momenta)


def test_one_momentum_vector_is_one_point():
    one = surface_cloud(SURFACES[1], REFERENCES[1], [0.5, 0.5])
    block = surface_cloud(SURFACES[1], REFERENCES[1], [[0.5, 0.5]])
    assert one.points.shape == (1, 4)
    assert one.points.tobytes() == block.points.tobytes()

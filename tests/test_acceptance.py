"""Acceptance criteria, one test per criterion, printing PASS/FAIL lines.

Each criterion runs at its stated tolerance (see polyvol.selftest for
the tolerances and corpora); the full suite doubles as the CLI's
``selftest`` subcommand.
"""

import math

import numpy as np
import pytest

from polyvol import selftest
from polyvol.graphs import cube_graph, tetrahedron_graph


@pytest.mark.parametrize("number", sorted(selftest.CRITERIA))
def test_criterion(number, capsys):
    result = selftest.CRITERIA[number](seed=0)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\n{status} criterion {result.number} ({result.name}): "
              f"{result.detail} [{result.elapsed:.1f}s]")
    assert result.passed, f"criterion {number}: {result.detail}"


def test_criterion_8_probe_admits_only_some_draws(monkeypatch):
    # Criterion 8's angle draws reach past pi/3, below which every angle vector
    # is admissible: the exhaustive check rejects some draws, so a midpoint of
    # two admitted ones tests convexity (test_criterion[8] checks it passes).
    verdicts, check = [], selftest.check_hyperideal_angles

    def counted(g, angles):
        report = check(g, angles)
        verdicts.append(report.admissible)
        return report

    monkeypatch.setattr(selftest, "check_hyperideal_angles", counted)
    rng = np.random.default_rng(8)
    for g in (tetrahedron_graph(), cube_graph()):
        verdicts.clear()
        draws = [selftest._sample_admissible(g, rng) for _ in range(20)]
        assert verdicts.count(True) == len(draws) and verdicts.count(False) > 0
        assert max(max(th.values()) for th in draws) > math.pi / 3

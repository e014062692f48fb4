"""PulpParams validation and the dynamic-multiplier schedule."""

import pytest

from repro.core import PulpParams


def test_defaults_match_algorithm1():
    p = PulpParams()
    assert p.outer_iters == 3
    assert p.balance_iters == 5
    assert p.refine_iters == 10
    assert p.total_iters == 45


def test_validation():
    with pytest.raises(ValueError):
        PulpParams(outer_iters=0)
    with pytest.raises(ValueError):
        PulpParams(balance_iters=0, refine_iters=0)
    with pytest.raises(ValueError):
        PulpParams(vert_imbalance=-0.1)
    with pytest.raises(ValueError):
        PulpParams(block_size=0)
    with pytest.raises(ValueError):
        PulpParams(init_strategy="bogus")
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        PulpParams(seed=-1)


def test_with_functional_update():
    p = PulpParams()
    q = p.with_(x=2.0, single_objective=True)
    assert q.x == 2.0 and q.single_objective
    assert p.x == 1.0 and not p.single_objective  # original untouched


def test_mult_schedule_endpoints():
    p = PulpParams(x=1.0, y=0.25)
    nprocs = 64
    assert p.mult(nprocs, 0) == pytest.approx(nprocs * 0.25)
    assert p.mult(nprocs, p.total_iters) == pytest.approx(nprocs * 1.0)
    # linear in between
    mid = p.mult(nprocs, p.total_iters // 2)
    assert nprocs * 0.25 < mid < nprocs * 1.0


def test_mult_clamped_at_one():
    p = PulpParams(x=1.0, y=0.25)
    # nprocs * Y < 1 would underestimate the rank's own moves
    assert p.mult(1, 0) == 1.0
    assert p.mult(2, 0) == 1.0


def test_mult_clamped_at_schedule_end():
    p = PulpParams(x=1.0, y=0.25)
    assert p.mult(8, 10_000) == pytest.approx(8.0)  # saturates at X


def test_shared_memory_mult_is_exact_share():
    """PuLP's exact size updates (``x == y == 1``): every rank gets its
    1/nprocs share at every schedule position."""
    p = PulpParams(x=1.0, y=1.0)
    assert p.mult(16, 0) == 16.0
    assert p.mult(16, 45) == 16.0
    assert p.mult(16, 10_000) == 16.0


def test_frozen():
    p = PulpParams()
    with pytest.raises(Exception):
        p.x = 3.0

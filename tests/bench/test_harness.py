"""Bench harness helpers."""

from repro.bench.harness import run_xtrapulp
from repro.core import PulpParams
from repro.core.driver import PartitionResult
from repro.graph import rmat
from repro.suite import SUITE


def test_run_xtrapulp_uses_recommended_init():
    g = rmat(8, 10, seed=1)
    run = run_xtrapulp(g, "randhd", 4, 2)  # randhd recommends block init
    assert isinstance(run, PartitionResult)
    assert run.num_parts == 4 and run.nprocs == 2
    assert run.modeled_seconds > 0
    assert run.stats.total_bytes > 0
    assert SUITE["randhd"].recommended_init == "block"
    assert run.params.init_strategy == "block"


def test_run_xtrapulp_unknown_graph_name_defaults():
    g = rmat(8, 10, seed=1)
    run = run_xtrapulp(g, "not-in-suite", 4, 2)
    assert run.params.init_strategy == "hybrid"
    assert run.quality(g).cut_ratio <= 1.0


def test_run_xtrapulp_single_objective_flag():
    g = rmat(8, 10, seed=1)
    full = run_xtrapulp(g, "rmat", 4, 2)
    single = run_xtrapulp(g, "rmat", 4, 2, single_objective=True)
    assert single.modeled_seconds < full.modeled_seconds


def test_run_xtrapulp_explicit_params():
    g = rmat(8, 10, seed=1)
    run = run_xtrapulp(
        g, "rmat", 4, 2, params=PulpParams(outer_iters=1, seed=3)
    )
    assert run.params.seed == 3
    assert run.quality(g).vertex_balance > 0


def test_run_xtrapulp_seed_overrides_params_seed():
    g = rmat(8, 10, seed=1)
    params = PulpParams(outer_iters=1)
    run = run_xtrapulp(g, "rmat", 4, 2, params=params, seed=3)
    assert run.params.seed == 3
    same = run_xtrapulp(g, "rmat", 4, 2, params=params.with_(seed=3))
    assert (run.parts == same.parts).all()

"""Smoke test of the perf ledger harness (not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py -q

Runs the whole suite once in ``--smoke`` mode (1024-vertex twins, one rep,
traced run and probes included) and checks the contract between
``/BENCHMARK.json``, the catalogue in ``workloads.py`` and what the
harness actually emits.
"""

import copy
import json
import re
import subprocess
import sys
import types

import pytest

from benchmarks.perf import child, compare, probes, run
from benchmarks.perf.workloads import (
    BY_NAME, E2E_METRICS, LAYER_METRICS, WORKLOADS,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf")
    out = tmp / "ledger.json"
    status = run.main(["--smoke", "--out", str(out), "--workdir", str(tmp)])
    assert status == 0
    assert [p.name for p in tmp.iterdir()] == ["ledger.json"], \
        "the work directory must be removed on exit"
    with open(out) as f:
        return json.load(f)


def test_benchmark_json_repeats_the_catalogue():
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    assert bench["paths"] == ["benchmarks/perf"]
    assert bench["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(LAYER_METRICS)
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(bench["workloads"]) == 4
    assert len(bench["per_layer"]) <= 64
    assert "setup_s" in names and 0 < max(
        m["bound"] for m in bench["end_to_end"]) <= 0.25


def test_every_name_is_measured(ledger):
    assert ledger["correct"]
    assert sorted(ledger["workloads"]) == sorted(w.name for w in WORKLOADS)
    for name, row in ledger["workloads"].items():
        assert row["failed"] == 0 and row["violations"] == [], name
        assert row["layer_errors"] == {}, name
        assert sorted(row["e2e"]) == sorted(m[0] for m in E2E_METRICS)
        assert all(v > 0 for v in row["e2e"].values()), name
        assert sorted(row["layers"]) == sorted(m[0] for m in LAYER_METRICS)
        assert len(row["parts_digest"]) == len(row["signature_digest"]) == 64
        # attribution is complete by construction: no tag is dropped
        layers = row["layers"]
        tagged = sum(layers[m] or 0.0 for m in
                     set(probes.TAG_METRICS.values()))
        assert tagged == pytest.approx(layers["simmpi.compute_sum_s"])
    mesh = ledger["workloads"]["mesh_ml"]["layers"]
    flat = ledger["workloads"]["parts256"]["layers"]
    assert mesh["multilevel.levels"] >= 2 and mesh["simmpi.overhead_s"] is None
    assert flat["multilevel.levels"] is None and flat["simmpi.overhead_s"] > 0
    guarded = ledger["workloads"]["procs_guarded"]["layers"]
    assert guarded["ft.ckpt_epochs"] == 13 and guarded["ft.ckpt_bytes"] > 0
    assert guarded["ft.heartbeats_seen"] > 0


def test_compare_verdicts(ledger, tmp_path, capsys):
    same, slow = tmp_path / "a.json", tmp_path / "b.json"
    worse = copy.deepcopy(ledger)
    worse["workloads"]["mesh_ml"]["e2e"]["partition_wall_s"] *= 2
    same.write_text(json.dumps(ledger))
    slow.write_text(json.dumps(worse))
    assert compare.main([str(same), str(same), "--same-code"]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([str(same), str(slow)]) == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if "regressed" in ln]
    assert len(lines) == 1 and "mesh_ml" in lines[0]
    # a set whose own spread exceeds the bound cannot tell
    assert compare.verdict([1.0, 1.5, 2.0], [1.0, 1.5, 2.0], "lower",
                           0.1)[1] == "unresolved"
    assert compare.verdict([1.0], [0.5], "lower", 0.1)[1] == "improved"
    assert compare.verdict([1.0], [0.5], "higher", 0.1)[1] == "regressed"
    # deterministic figures must repeat between runs of the same code
    worse["workloads"]["mesh_ml"]["parts_digest"] = "0" * 64
    slow.write_text(json.dumps(worse))
    assert compare.main([str(same), str(slow), "--same-code"]) == 1
    assert "NOT DETERMINISTIC" in capsys.readouterr().out


def test_cut_is_recomputed_not_trusted():
    from repro.core import xtrapulp
    from repro.graph import generators

    graph = generators.rmat(8, 8, seed=1)
    result = xtrapulp(graph, 4, nprocs=2, backend="serial")
    bad, digest, quality = child.verify(graph, result, 4)
    assert bad == [] and len(digest) == 64
    lying = types.SimpleNamespace(
        parts=result.parts, quality=lambda: types.SimpleNamespace(
            cut_ratio=quality.cut_ratio * 0.9))
    assert "recomputed cut_ratio" in child.verify(graph, lying, 4)[0][0]
    assert "labels outside" in child.verify(graph, result, 2)[0][0]


def test_missing_layer_costs_its_metrics_only(tmp_path, monkeypatch):
    """A renamed layer entry point yields null + a layer_errors line and
    leaves the end-to-end numbers and the failure count alone."""
    from repro.simmpi import TimeModel

    spec = run.child_spec(
        BY_NAME["mesh_ml"], seed=3, seconds=0.0, trace=True, smoke=True,
        workdir=str(tmp_path), setup_reps=1, min_reps=1)
    intact = child.measure(spec)
    assert intact["layer_errors"] == {}
    # an accessor only the probes call is gone, and a rank function of a
    # micro-probe finds its kernel renamed
    monkeypatch.delattr(TimeModel, "breakdown")

    def renamed(*args):
        raise AttributeError("'RankState' has no 'block_part_counts'")

    monkeypatch.setattr(probes, "_score_sweep", renamed)
    broken = child.measure(spec)
    assert sorted(broken["layer_errors"]) == ["modeled", "scoring"]
    assert broken["layers"]["simmpi.modeled_work_s"] is None
    assert broken["layers"]["core.score_ns_per_arc"] is None
    assert broken["layers"]["simmpi.rounds"] == intact["layers"]["simmpi.rounds"]
    assert broken["failed"] == 0 and broken["attempted"] == intact["attempted"]
    for metric in ("modeled_s", "cut_ratio", "vertex_balance"):
        assert broken["e2e"][metric] == intact["e2e"][metric]
    assert broken["parts_digest"] == intact["parts_digest"]


def test_a_hung_child_is_a_failed_operation(tmp_path):
    result = run.run_child(
        BY_NAME["mesh_ml"], seed=1, seconds=0.0, trace=False, smoke=True,
        workdir=str(tmp_path), setup_reps=1, min_reps=1, timeout=0.05)
    assert result["failed"] == 1 and "error" in result
    assert "was killed" in result["violations"][0]


def test_driver_result_line(tmp_path):
    """The PR driver's protocol: last stdout line, exact keys, numbers."""
    for trace, catalogue in ((0, E2E_METRICS), (1, LAYER_METRICS)):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             "procs_guarded", "--seed", "5", "--seconds", "1", "--trace",
             str(trace), "--smoke", "--workdir", str(tmp_path)],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m[0] for m in catalogue]
        for (name, unit, *_), got in zip(catalogue, line["metrics"].values()):
            assert got["unit"] == unit, name
            assert isinstance(got["value"], (int, float)), name
    assert list(tmp_path.iterdir()) == []

"""Checks of the benchmark's tracing: python3 -m pytest -q bench/test_tracing.py

Traced and untraced runs of a command must write byte-identical outputs, every
wrapper must be gone afterwards, and spans of items that map_jobs runs on
worker threads must hang under the map_jobs span.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import heishom.cli  # noqa: E402
import heishom.homog  # noqa: E402
import heishom.integrands  # noqa: E402
import heishom.solve  # noqa: E402
from tracing import Tracer, layer_metrics, normal_matrix_stats  # noqa: E402
from workloads import CHECKERBOARD  # noqa: E402

CASES = {
    "sweep": {"M": 2, "k_list": [1], "q_axis": [-1.0, 0.0, 1.0],
              "integrand": {"type": "power", "alpha": 3.0,
                            "coefficient": {"type": "cell_table", "table": CHECKERBOARD}}},
    "stochastic": {"M": 2, "q": [1.0, 0.0], "k_list": [1, 2], "alpha": 2.0, "n_samples": 8,
                   "base_seed": 3, "law": {"kind": "two_point", "a": 1.0, "b": 4.0, "prob": 0.5}},
}


def _run(tmp_path, command, tag, threads):
    cfg, out = tmp_path / "config.json", tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(CASES[command]))
    rc = heishom.cli.main([command, "--config", str(cfg), "--format", "json",
                           "--out", str(out), "--threads", str(threads)])
    assert rc == 0
    return out.read_bytes()


def _originals():
    return (heishom.solve.solve_cell, heishom.homog.solve_cell, heishom.homog.map_jobs,
            heishom.integrands.PowerIntegrand.__dict__["eval_cells"], heishom.cli.emit)


def test_traced_output_is_byte_identical_and_wrappers_are_restored(tmp_path):
    for command in CASES:
        before = _originals()
        plain = _run(tmp_path, command, "plain", 2)
        tracer = Tracer()
        tracer.install()
        try:
            assert heishom.homog.solve_cell is not before[1]
            traced = _run(tmp_path, command, "traced", 2)
        finally:
            unrestored = tracer.uninstall()
        assert unrestored == []
        assert _originals() == before
        assert traced == plain
        assert tracer.spans


def test_map_jobs_items_hang_under_their_map_jobs_span(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        _run(tmp_path, "stochastic", "traced", 4)
    finally:
        tracer.uninstall()
    by_id = {s.id: s for s in tracer.spans}
    maps = [s for s in tracer.spans if s.name == "homog.map_jobs"]
    items = [s for s in tracer.spans if s.name == "homog.map_jobs.item"]
    assert len(maps) == 1 and len(items) == 8
    assert all(s.parent == maps[0].id for s in items)
    seqs = [s for s in tracer.spans if s.name == "homog.energy_density_sequence"]
    assert sorted(by_id[s.parent].name for s in seqs) == ["homog.map_jobs.item"] * 8
    stats = {(t, 2, 1): normal_matrix_stats(t, 2, 1) for t in (1, 2)}
    metrics, solves = layer_metrics(tracer.spans, stats)
    assert metrics["solve.solve_cell.calls"] == (16, "count")
    assert metrics["solve.cg.iterations"][0] == sum(s["iterations"] for s in solves)
    assert 0 < metrics["solve.solve_cell.self_s"][0] <= metrics["solve.solve_cell.s"][0]

"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, NAME_RE, PER_LAYER, WORKLOADS  # noqa: E402


def _bench(workload: str, seed: int, trace: int = 0) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), out.stdout


def test_metric_names_are_well_formed_and_unique():
    names = [*END_TO_END, *PER_LAYER, *WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name


def test_benchmark_json_lists_the_same_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == \
        {name: spec[:2] for name, spec in PER_LAYER.items()}
    assert "setup_s" in END_TO_END
    assert max(bound for _u, _b, bound in END_TO_END.values()) == \
        END_TO_END["setup_s"][2]


def test_workload_seed_changes_generated_inputs(tmp_path):
    import worker

    first, again, other = (worker.genprog_batch(s).sources
                           for s in (1, 1, 2))
    assert first == again
    assert first != other
    serve_a = worker.Serve(1, str(tmp_path))
    serve_b = worker.Serve(2, str(tmp_path))
    assert serve_a.sources != serve_b.sources
    assert serve_a.schedule != serve_b.schedule
    # the seed picks programs and arrival order, not the mix
    assert sorted(serve_a.schedule) == sorted(serve_b.schedule)
    assert len(serve_a.schedule) == worker.SERVE_REQUESTS


def test_tables_check_compares_every_job_value_with_the_oracle():
    import worker
    from repro.benchsuite import UTILITY_CORPUS
    from repro.perf import JobResult, SimJob
    from repro.reporting.tables import PAPER_TABLE1, PAPER_TABLE2

    tables = worker.Tables()
    tables.expected = {"src": 7}
    ran = [(SimJob("right", "src"), JobResult("right", value=7)),
           (SimJob("wrong", "src"), JobResult("wrong", value=8)),
           (SimJob("scalar", "src", action="execute", machine="m88100"),
            JobResult("scalar", value=6)),
           (SimJob("lost", "src"), JobResult("lost", error="boom",
                                             quarantined=True)),
           (SimJob("detect", "src", action="compile"), JobResult("detect"))]
    out = worker.Pass()
    tables._check(out, ran, [None] * len(PAPER_TABLE1),
                  [None] * len(PAPER_TABLE2), [None] * len(UTILITY_CORPUS))
    assert (out.ok, out.failed) == (2, 3)
    out = worker.Pass()
    tables._check(out, ran[:1], [], [None] * len(PAPER_TABLE2),
                  [None] * len(UTILITY_CORPUS))
    assert (out.ok, out.failed) == (1, 1)


def test_canonical_labels_renumber_only_anonymous_labels():
    from layers import canonical_labels

    a = "JumpIT main.B228\nmain.B228:\nJump main.A213\nmain.E1\nL3:"
    b = "JumpIT main.B2720\nmain.B2720:\nJump main.A2705\nmain.E1\nL3:"
    assert a != b and canonical_labels(a) == canonical_labels(b)
    assert canonical_labels("Jump L3") != canonical_labels("Jump L4")


def test_handler_self_time_excludes_children():
    import worker

    parent = {"name": "handler.execute", "ts": 0.0, "dur": 10_000.0,
              "pid": 3}
    children = [{"name": "cache.lookup", "ts": 1000.0, "dur": 4000.0,
                 "pid": 3},
                {"name": "compile", "ts": 2000.0, "dur": 1000.0, "pid": 3},
                {"name": "queue.wait", "ts": 0.0, "dur": 9000.0, "pid": 1}]
    assert worker._self_ms(parent, [parent, *children]) == \
        pytest.approx(6.0)


@pytest.mark.parametrize("workload", ["suite", "tables"])
def test_deterministic_metrics_repeat(workload):
    first, text_a = _bench(workload, 5)
    second, text_b = _bench(workload, 5)
    assert first["correct"] and second["correct"]
    for name in ("sim_cycles", "code_instrs"):
        assert first["metrics"][name] == second["metrics"][name]
    if workload == "tables":
        def paper_err(text):
            return [line for line in text.splitlines()
                    if line.strip().startswith("paper_err_pp")]
        assert paper_err(text_a) and paper_err(text_a) == paper_err(text_b)


def test_untraced_run_prints_every_end_to_end_metric():
    result, text = _bench("tables", 3)
    assert set(result["metrics"]) == set(END_TO_END)
    for name, (unit, _better, _bound) in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
        assert name in text
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""

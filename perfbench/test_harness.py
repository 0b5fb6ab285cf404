"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload at its tiny size, traced and untraced, and checks that
the result line names every metric BENCHMARK.json declares, with its unit.
Corrupted bundles must count as failed runs, and a checkout without the
program must exit non-zero without a result.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def bench(capsys, workload, trace, seed=3, size="tiny", seconds=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--size", size])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_workloads_match_harness(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(capsys, declared, workload, trace):
    report, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    metrics = declared["per_layer"] if trace else declared["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_share"] == 0.0
    assert report["inputs"]["corpus_sha256"]
    assert {"nproc", "cpu_model", "python", "numpy", "blas_thread_cap"} <= set(report["machine"])


def test_traced_and_untraced_bundles_match(capsys):
    report, result = bench(capsys, "protocol", 1, seconds=3)
    assert result["correct"] and result["attempted"] >= 2
    assert not report["problems"]
    metrics = result["metrics"]
    assert metrics["ml.fits"]["value"] > 0
    assert metrics["network.eligible_calls"]["value"] == 3 * 6  # three per window


def test_corrupted_bundle_counts_as_failed(capsys, monkeypatch):
    spawn = run.Bench.spawn
    calls = []

    def corrupting_spawn(self, **spec):
        result = spawn(self, **spec)
        if not spec.get("setup_only"):
            calls.append(1)
            if len(calls) == 2:
                with open(os.path.join(self.work, "out", "topic_vectors.csv"), "a") as fh:
                    fh.write("corrupted\n")
        return result

    monkeypatch.setattr(run.Bench, "spawn", corrupting_spawn)
    report, result = bench(capsys, "text", 0, seed=4)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert any("differ" in p for p in report["problems"])


@pytest.fixture(scope="module")
def demo_bundle(tmp_path_factory):
    """Outputs of one tiny demo run, to corrupt in copies."""
    from proxlink.pipeline import RunConfig, run_pipeline

    work = tmp_path_factory.mktemp("demo")
    cfg = WORKLOADS["demo"].build(str(work / "corpus.jsonl"), 5, True)
    cfg.update(corpus=str(work / "corpus.jsonl"), out=str(work / "out"))
    run_pipeline(RunConfig(**cfg))
    return work / "out"


def _check(out_dir):
    from proxlink.pipeline import BUNDLE_FILES

    return run.check_outputs(str(out_dir), tuple(BUNDLE_FILES), "report",
                             {"facts": {"coherence": 0.1}})[1]


def test_clean_bundle_passes(demo_bundle):
    assert _check(demo_bundle) == []


def test_non_finite_shapley_value_fails(demo_bundle, tmp_path):
    out = shutil.copytree(demo_bundle, tmp_path / "out")
    lines = (out / "shap.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index("phi")] = "nan"
    lines[1] = ",".join(cells)
    (out / "shap.csv").write_text("\n".join(lines) + "\n")
    assert "non-finite Shapley value" in _check(out)


def test_non_finite_auc_and_efficiency_gap_fail(demo_bundle, tmp_path):
    out = shutil.copytree(demo_bundle, tmp_path / "out")
    evaluation = json.loads((out / "eval.json").read_text())
    kind = evaluation["best_kind"]
    evaluation["results"][kind]["test_auc"] = float("nan")
    (out / "eval.json").write_text(json.dumps(evaluation))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["stages"]["explain"]["max_efficiency_gap"] = 1e-3
    (out / "manifest.json").write_text(json.dumps(manifest))
    problems = _check(out)
    assert f"non-finite AUC for {kind}" in problems
    assert any(p.startswith("Shapley efficiency gap") for p in problems)


def test_missing_bundle_file_fails(demo_bundle, tmp_path):
    out = shutil.copytree(demo_bundle, tmp_path / "out")
    os.remove(out / "eval.json")
    assert "missing eval.json" in _check(out)


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_demo_bundle_equals_plain_run(capsys, tmp_path, monkeypatch):
    """The demo workload is exactly run_pipeline(demo_config(...)) on the demo corpus."""
    from proxlink.pipeline import demo_config, make_demo_corpus, run_pipeline

    report, result = bench(capsys, "demo", 0, seed=6, size="full")
    assert result["correct"]
    monkeypatch.chdir(tmp_path)
    make_demo_corpus("corpus.jsonl")
    assert run.sha256_file("corpus.jsonl") == report["inputs"]["corpus_sha256"]
    run_pipeline(demo_config("corpus.jsonl", "out"))
    plain = {name: run.sha256_file(os.path.join("out", name))
             for name in report["bundle_sha256"]}
    assert plain == report["bundle_sha256"]

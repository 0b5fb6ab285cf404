"""proxlink benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the workload's corpus
and RunConfig from the seed, then runs the pipeline again and again, each
time in a fresh child interpreter (closed loop, one client), until about
S seconds have passed. Every run's outputs are checked. With ``--trace 0``
every run is untraced and the last line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced runs alternate and the last line
carries the per-layer metrics. Earlier stdout lines hold
one JSON report: inputs and their sha256, machine facts, samples, checks
and RuntimeWarnings per layer. See WORKLOADS.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SHAPLEY_TOLERANCE = 1e-6  # the acceptance suite's efficiency tolerance
# Reference speed: the times child.calibrate() takes for its Python and
# numpy loops on the reference machine (a 2-core Intel Xeon at its faster
# phase). Every time is scaled by speed(), so host speed drift cancels.
CAL_REF_S = (0.0145, 0.0108)
# The pipeline slows more than the Python loop and less than the numpy loop
# when the host is busy; their geometric mean tracked it best (WORKLOADS.md).
NUMPY_WEIGHT = 0.5
SETUP_ONLY_SPAWNS = 4
TIME_LIMIT_S = 170.0
TOPIC_FILES = ("lda_model.json", "topic_vectors.csv")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "records_per_s": "1/s", "coherence": "1_plus_npmi"}


class ProgramMissing(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny shrinks every workload for the harness self-test")
    return parser.parse_args(argv)


def locate_program(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "proxlink", "__init__.py")):
        raise ProgramMissing(f"no proxlink sources under {src}")
    sys.path.insert(0, src)
    import proxlink

    if not os.path.realpath(proxlink.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ProgramMissing(f"proxlink resolves to {proxlink.__file__}, outside {src}")
    return src


def tree_digest(*dirs: str) -> str:
    """sha256 over every source file under ``dirs``: names one commit."""
    h = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

def check_outputs(out_dir: str, bundle: tuple, through: str, result: dict) -> tuple:
    """(bundle sha256s, problems) for one finished run."""
    problems = []
    hashes = {}
    for name in bundle:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            hashes[name] = sha256_file(path)
        else:
            problems.append(f"missing {name}")
    if not math.isfinite(result["facts"]["coherence"]):
        problems.append("non-finite coherence")
    if through == "report" and not problems:
        with open(os.path.join(out_dir, "eval.json"), encoding="utf-8") as fh:
            evaluation = json.load(fh)
        for kind, res in evaluation["results"].items():
            aucs = list(res["fold_aucs"]) + [res["mean_auc"], res["test_auc"]]
            if not all(isinstance(a, (int, float)) and math.isfinite(a) for a in aucs):
                problems.append(f"non-finite AUC for {kind}")
        with open(os.path.join(out_dir, "shap.csv"), encoding="utf-8") as fh:
            header = next(fh).strip().split(",")
            col = header.index("phi")
            if not all(math.isfinite(float(line.split(",")[col])) for line in fh):
                problems.append("non-finite Shapley value")
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            gap = json.load(fh)["stages"]["explain"]["max_efficiency_gap"]
        if not (math.isfinite(gap) and gap <= SHAPLEY_TOLERANCE):
            problems.append(f"Shapley efficiency gap {gap!r} above {SHAPLEY_TOLERANCE}")
    return hashes, problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, root: str, src: str, workload, seed: int, size: str):
        self.root = root
        self.src = src
        self.workload = workload
        self.work = os.path.join(root, ".perfbench", f"{workload.name}-{size}-{seed}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        corpus = os.path.join(self.work, "corpus.jsonl")
        self.config = workload.build(corpus, seed, size == "tiny")
        self.config.update(corpus="corpus.jsonl", out="out")
        self.corpus_sha256 = sha256_file(corpus)
        if workload.through == "report":
            from proxlink.pipeline import BUNDLE_FILES
            self.bundle = tuple(BUNDLE_FILES)
        else:
            self.bundle = TOPIC_FILES
        threads = str(os.cpu_count() or 1)
        self.env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        self.env.pop("PYTHONPATH", None)
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def spawn(self, **spec) -> dict:
        spec.update(src=self.src, config=self.config, through=self.workload.through,
                    bundle=self.bundle, result="result.json", spans="spans.json")
        for name in ("out", "result.json"):
            path = os.path.join(self.work, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        with open(os.path.join(self.work, "spec.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), "spec.json", repr(spawned)],
                cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            result = {"error": f"timed out after {timeout:.0f} s"}
        else:
            try:
                with open(os.path.join(self.work, "result.json"), encoding="utf-8") as fh:
                    result = json.load(fh)
            except (OSError, ValueError):
                result = {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
        result["elapsed_s"] = time.monotonic() - spawned
        return result


def run_workload(bench: Bench, seconds: float, trace: bool, record_path: str) -> dict:
    setup = [bench.spawn(setup_only=True) for _ in range(SETUP_ONLY_SPAWNS)]
    reference = None
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            reference = json.load(fh)
    runs = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        result = bench.spawn(trace=traced, describe=not runs)
        result["traced"] = traced
        problems = [result["error"]] if "error" in result else []
        if not problems:
            hashes, problems = check_outputs(os.path.join(bench.work, "out"), bench.bundle,
                                             bench.workload.through, result)
            if reference is None and not problems:
                reference = hashes
            if reference is not None and hashes != reference:
                problems.append("bundle sha256s differ from the first run of this "
                                "commit and seed")
            result["hashes"] = hashes
        result["problems"] = problems
        runs.append(result)
        elapsed = time.monotonic() - start
        if len(runs) >= 2 and elapsed + 0.5 * result["elapsed_s"] >= seconds:
            break
        if time.monotonic() + result["elapsed_s"] > bench.deadline:
            break
    if not any(r["problems"] for r in runs) and not os.path.exists(record_path):
        os.makedirs(os.path.dirname(record_path), exist_ok=True)
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, sort_keys=True)
    return {"setup": setup, "runs": runs, "reference": reference}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def timing_summary(values: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None, "values": values}
    if n > 10:
        pct = 100.0 * (n - 10) / n
        out[f"p{pct:.1f}"] = values[n - 11]
    else:
        out["tail"] = "fewer than 11 samples: no percentile has ten beyond it"
    return out


def speed(sample) -> float:
    """Reference time over measured time for one [Python, numpy] sample."""
    python_s, numpy_s = sample
    return ((CAL_REF_S[0] / python_s) ** (1.0 - NUMPY_WEIGHT)
            * (CAL_REF_S[1] / numpy_s) ** NUMPY_WEIGHT)


def normalize(result: dict, layer_units: dict) -> None:
    """Scale one run's times to the reference speed (see CAL_REF_S)."""
    if "cal_before" not in result:
        return
    result["setup_ref_s"] = result["setup_s"] * speed(result["cal_before"])
    if "cal_after" not in result:
        return
    # samples are evenly spaced in time, so the mean speed over them is the
    # factor that turns this run's seconds into reference seconds
    samples = result.get("cal_during") or [result["cal_before"], result["cal_after"]]
    factor = statistics.mean(speed(c) for c in samples)
    # time the hypervisor gave to other guests is not the program's
    factor *= 1.0 - result.get("steal_share", 0.0)
    result["wall_ref_s"] = result["wall_s"] * factor
    for name, value in result.get("layers", {}).items():
        if layer_units.get(name) == "s":
            result["layers"][name] = value * factor
        elif layer_units.get(name) == "1/s":
            result["layers"][name] = value / factor


def end_to_end(ok_plain: list, setup_samples: list) -> dict:
    wall = statistics.median(r["wall_ref_s"] for r in ok_plain)
    facts = ok_plain[0]["facts"]
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_plain),
        "records_per_s": facts["records_in_scenario"] / wall,
        "coherence": 1.0 + facts["coherence"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(ok_traced: list, ok_plain: list, units: dict) -> dict:
    values = {}
    for name in units:
        samples = [r["layers"][name] for r in ok_traced if name in r["layers"]]
        values[name] = statistics.median(samples) if samples else 0.0
    values["trace.overhead_s"] = (statistics.median(r["wall_ref_s"] for r in ok_traced)
                                  - statistics.median(r["wall_ref_s"] for r in ok_plain))
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def machine_facts() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_thread_cap": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        src = locate_program(root)
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}

    workload = WORKLOADS[args.workload]
    bench = Bench(root, src, workload, args.seed, args.size)
    record_path = os.path.join(root, ".perfbench", "record",
                               f"{tree_digest(src, HERE)}-{workload.name}-{args.size}-"
                               f"{args.seed}.json")
    outcome = run_workload(bench, args.seconds, bool(args.trace), record_path)
    runs = outcome["runs"]
    for r in outcome["setup"] + runs:
        normalize(r, layer_units)
    ok = [r for r in runs if not r["problems"]]
    ok_plain = [r for r in ok if not r["traced"]]
    ok_traced = [r for r in ok if r["traced"]]
    setup_samples = [r["setup_ref_s"] for r in outcome["setup"] + runs if "setup_ref_s" in r]
    failed = len(runs) - len(ok)

    measured = bool(ok_plain) and (bool(ok_traced) or not args.trace)
    metrics = {}
    if measured:
        metrics = (per_layer(ok_traced, ok_plain, layer_units) if args.trace
                   else end_to_end(ok_plain, setup_samples))

    first = runs[0]
    warnings, sites = {}, {}
    for r in runs:
        for totals, counts in ((warnings, r.get("warnings", {})),
                               (sites, r.get("warning_sites", {}))):
            for key, n in counts.items():
                totals[key] = totals.get(key, 0) + n
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "size": args.size, "loop": "closed, one client, one fresh process per run",
        "inputs": {"corpus_sha256": bench.corpus_sha256, **first.get("inputs", {})},
        "machine": machine_facts(),
        "samples": {
            "wall_s": timing_summary([r["wall_ref_s"] for r in ok_plain]),
            "wall_s_traced": timing_summary([r["wall_ref_s"] for r in ok_traced]),
            "setup_s": timing_summary(setup_samples),
            "raw_wall_s": timing_summary([r["wall_s"] for r in ok_plain]),
            "raw_setup_s": timing_summary([r["setup_s"] for r in outcome["setup"] + runs
                                           if "setup_s" in r]),
            "calibration_speed": timing_summary([speed(r[k]) for r in outcome["setup"] + runs
                                                 for k in ("cal_before", "cal_after")
                                                 if k in r]),
        },
        "failed_share": failed / len(runs),
        "bundle_sha256": outcome["reference"],
        "problems": [p for r in runs for p in r["problems"]],
        "runtime_warnings_per_layer": warnings,
        "runtime_warning_sites": sites,
    }
    if args.trace and "trace.overhead_s" in metrics:
        report["machine"]["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and measured, "attempted": len(runs),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

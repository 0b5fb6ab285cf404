"""One pipeline run in a fresh interpreter, as a user would start it.

Usage: python3 child.py SPEC_JSON SPAWN_TIME

SPEC_JSON names the program's source directory, the RunConfig fields,
the last stage, whether to trace, and where to write the result.
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so set-up time
covers interpreter start, ``import proxlink`` and the first load of the
bundled tables. Run from the workload's directory: the config names the
corpus and the output directory by relative path.

The host's CPU speed drifts by tens of percent over seconds, so the child
also times two fixed calibration loops (pure Python and small numpy
operations, in thread CPU time) right after set-up, every quarter second
during the pipeline and right after it, and reads the CPU time the
hypervisor stole from /proc/stat; run.py scales every time by both
(see WORKLOADS.md).
"""
from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
import traceback


def load_program(src: str):
    sys.path.insert(0, src)
    import proxlink

    where = os.path.realpath(proxlink.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"proxlink imported from {where}, not from {src}")
    from proxlink import corpus, geo, topics

    # first load of every bundled table the pipeline reads
    topics.default_stopwords()
    geo.GazetteerGeocoder()
    geo.AdjacencyTable.bundled("province")
    geo.AdjacencyTable.bundled("country")
    corpus.country_continent_table()
    return os.path.dirname(where)


CALIBRATION_LOOPS = 200_000
CALIBRATION_NUMPY_LOOPS = 4_000
SAMPLE_SHARE = 20  # a sample runs 1/20 of each calibration loop
SAMPLE_PERIOD_S = 0.25


def spin(loops: int) -> float:
    """Thread CPU seconds for a fixed pure-Python loop of ``loops`` steps."""
    t0 = time.thread_time()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return time.thread_time() - t0


def spin_numpy(loops: int) -> float:
    """Thread CPU seconds for ``loops`` small numpy operations.

    The pipeline spends much of its time in numpy calls on short arrays,
    whose speed drifts apart from the pure-Python loop's.
    """
    import numpy

    vec = numpy.arange(8.0)
    t0 = time.thread_time()
    acc = 0.0
    for _ in range(loops):
        acc += float((vec * 2.0 + 1.0) @ vec)
    return time.thread_time() - t0


def speed_sample(share: int = 1) -> list:
    """[Python, numpy] calibration loop times now, scaled to full length.

    Thread CPU time leaves out time the thread was not running, so a
    sample measures how fast the CPU runs, not how often it is taken away.
    """
    return [spin(CALIBRATION_LOOPS // share) * share,
            spin_numpy(CALIBRATION_NUMPY_LOOPS // share) * share]


def calibrate() -> list:
    """The calibration loops' times now, best of three each."""
    samples = [speed_sample() for _ in range(3)]
    return [min(s[0] for s in samples), min(s[1] for s in samples)]


def cpu_ticks():
    """(busy, stolen) clock ticks summed over all CPUs, or None.

    A virtual machine's /proc/stat counts as steal the time a CPU wanted
    to run but the hypervisor ran something else.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    fields += [0] * (8 - len(fields))
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def steal_share(before, after) -> float:
    """Share of the CPU time wanted between two cpu_ticks() that was stolen."""
    if before is None or after is None:
        return 0.0
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


class SpeedSampler:
    """Time a short loop every SAMPLE_PERIOD_S while the pipeline runs.

    SIGALRM runs the handler in the main thread between bytecodes, so each
    sample sees the speed the pipeline sees at that moment. Samples are
    scaled to the calibration loops' length; the handler's own time is
    reported so it can be taken off the run's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(speed_sample(SAMPLE_SHARE))
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run(spec: dict, spawned: float) -> dict:
    package_dir = load_program(spec["src"])
    setup_s = time.monotonic() - spawned
    cal_before = calibrate()
    if spec.get("setup_only"):
        return {"setup_s": setup_s, "cal_before": cal_before}

    from proxlink.pipeline import RunConfig, run_pipeline
    from tracing import Tracer, WarningCounter, layer_metrics

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    counter = WarningCounter(package_dir)
    with counter, SpeedSampler() as speed:
        ticks = cpu_ticks()
        t0 = time.perf_counter()
        state = run_pipeline(RunConfig(**spec["config"]), through_stage=spec["through"])
        wall_s = time.perf_counter() - t0 - speed.spent_s
        stolen = steal_share(ticks, cpu_ticks())
    cal_after = calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = state.stage_summary
    facts = {
        "records_loaded": summary["ingest"]["records_loaded"],
        "records_in_scenario": summary["ingest"]["records_in_scenario"],
        "coherence": summary["topics"]["coherence"],
        "vocab_size": summary["topics"]["vocab_size"],
        "test_auc": summary.get("ml", {}).get("test_auc"),
        "pseudo_r2": summary.get("fit", {}).get("pseudo_r2"),
        "bundle_bytes": sum(os.path.getsize(path) for path in (
            os.path.join(spec["config"]["out"], f) for f in spec["bundle"])
            if os.path.exists(path)),
    }
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "cal_before": cal_before, "cal_after": cal_after,
              "cal_during": speed.samples, "steal_share": stolen,
              "facts": facts, "warnings": counter.by_layer,
              "warning_sites": counter.by_site}
    if spec.get("describe"):
        result["inputs"] = describe_inputs(state)
    if tracer is not None:
        dump = tracer.dump()
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(dump["spans"], fh)
        result["layers"] = layer_metrics(dump, counter.by_layer, counter.empty_leaf, facts)
    return result


def describe_inputs(state) -> dict:
    """Input properties that do not depend on timing; read after the run."""
    from proxlink.topics import tokenize_corpus

    docs = tokenize_corpus(state.corpus.records)
    out = {
        "records": len(state.corpus.records),
        "tokens": sum(len(d.tokens) for d in docs),
        "vocab": len({t for d in docs for t in d.tokens}),
    }
    if state.dataset is not None:
        y = [r.co_publication for r in state.dataset.rows]
        out["eligible_authors_per_window"] = [
            w["eligible_authors"] for w in state.dataset.manifest["windows"]]
        out["rows"] = len(y)
        out["positives"] = sum(y)
    split = getattr(state, "_split", None)
    if split is not None and state.dataset is not None:
        train_y = [y[i] for i in split[0]]
        out["largest_smote_minority"] = min(sum(train_y), len(train_y) - sum(train_y))
    return out


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = run(spec, float(sys.argv[2]))
    except Exception:  # reported to run.py, which counts the run as failed
        result = {"error": traceback.format_exc(limit=-3)}
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())

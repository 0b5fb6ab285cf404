import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import proxlink
from proxlink._rng import stable_seed
from proxlink import cli as cli_mod
from proxlink.cli import build_parser, main
from proxlink.ml import CLASSIFIER_KINDS
from proxlink.pipeline import (
    BUNDLE_FILES,
    STAGES,
    RunConfig,
    StageError,
    demo_config,
    make_demo_corpus,
    run_pipeline,
    write_canonical_dump,
)
from proxlink.synthetic import make_synthetic_corpus
from proxlink.topics import GibbsLda, tokenize_corpus


# sha256 of every bundle file but manifest.json for demo_config(seed=7) on
# the seed-7 demo corpus. A change that moves these bytes must update the
# digests and say why; a refactor must leave them alone.
GOLDEN_BUNDLE = {
    "beeswarm.svg": "deed858cb03969574f66aa5231c2b217aee6013378cab59aca76029d47a426ee",
    "corr.csv": "df543c029e757cce2d9fae2c10d11376b76ffe4a1c9291a43c8637ddf5fd733a",
    "dataset.csv": "3f16cf0df6c12d18b8e1a1de30de8e4b359f988d25a743dd35d58e517ce840b1",
    "describe.csv": "d8496e989b90bb3e363bac9c9f6a09533edc5ddfb1af8439c5338e8e69ff730a",
    "elasticity.csv": "d6b40c08921d2aa0b497fee866a90b0e5b4a662d003fd8e3ececad5aa0e7df53",
    "elasticity.svg": "a73cecdfc9da63bfbe69ec4056be2ba31fa67ea6d5aa18ee3f897c621fff0c30",
    "eval.json": "7c9067db08dc8a5fc57c5ec48ee1d6e3fbf8b392c2eea80e9faee3bb744ec02b",
    "logit_table.txt": "17ce0108a37084f952382ce1d8ea044c6faf431ec1cdbf7bd6f8fdea18dc1430",
    "ml_tuning.csv": "04d73d7aacef69f66107eb02fb37dcf31c332eb6edef41fd2221e0ae658a0992",
    "shap.csv": "5c78a8010435083ae4ef8a83e2476169963e77af081c54e40f8d89093a1220fc",
}
# sha256 of the topic stage's own files in the same run; they are not
# bundle files, so GOLDEN_BUNDLE covers them only through what they feed.
GOLDEN_TOPICS = {
    "lda_model.json": "edb9f15b78d03a0b70d3aa7d5466be0a172fef5fffd022a230879262cc615899",
    "topic_vectors.csv": "90c1a3417ef1d2fbd418c75620e3d65d3246dd04bcc620561ec79a4260f8e9b2",
}
# manifest.json embeds the absolute corpus and output paths, so its own
# digest varies by directory; its "stages" field is pinned instead, as the
# sha256 of its sort_keys JSON.
GOLDEN_STAGES = "fc9efcfbf53e3b40dbe01c476ddf235dc6d3c20a680039c70621720867e5d842"
# sha256 of the feature-stage files for gazetteer_config() on the seed-7
# synthetic corpus without coordinates: scenario 4, every eligible pair,
# every point from the bundled gazetteer. The demo digests above cover only
# scenario 1, ratio sampling and explicit coordinates.
GOLDEN_GAZETTEER = {
    "dataset.csv": "d5ab8a0b6d82145c3574ccfead3994d05a56bdf7b44a99165190e140ee8a72df",
    "dataset.manifest.json": "2cc09d57a8652dcb8fa75049f847b2a0f3c6f9f08ad8b3a8e19b34a28c8a41a2",
    "describe.csv": "776ebb283596d7699596104a7f27428a56a27d419f1a15e475d6aaf80c0b055b",
}


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def gazetteer_config(tmp_path) -> RunConfig:
    """Scenario 4 over all pairs of a small corpus geocoded by gazetteer only."""
    records = make_synthetic_corpus(seed=7, n_authors=30, pubs_per_year=30)
    for rec in records:
        for author in rec["authors"]:
            for aff in author["affiliations"]:
                aff.pop("lat", None)
                aff.pop("lon", None)
    corpus = tmp_path / "gazetteer.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return RunConfig(corpus=str(corpus), out=str(tmp_path / "out"), scenario=4,
                     seed=3, year_min=2000, year_max=2009, sampling_kind="all",
                     lda_k_grid=[4], lda_iterations=20, lda_alpha=0.1)


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "synth.jsonl"
    n = make_demo_corpus(path)
    assert n == 300
    return str(path)


def six_kind_config(demo_corpus, out) -> RunConfig:
    """The demo run with every classifier kind and a one-fit search."""
    return dataclasses.replace(
        demo_config(demo_corpus, out=out), classifiers=list(CLASSIFIER_KINDS),
        lda_k_grid=[3], lda_iterations=20, n_random=1, max_grid_fits=1, folds=3)


@pytest.mark.parametrize("make_config", [demo_config, six_kind_config],
                         ids=["demo", "six-kind"])
def test_tuning_log_reads_back_as_csv(tmp_path, demo_corpus, make_config):
    config = make_config(demo_corpus, out=str(tmp_path / "out"))
    state = run_pipeline(config, through_stage="ml")
    with open(os.path.join(config.out, "ml_tuning.csv"), encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["stage", "index", "kind", "hyperparameters", "fold_aucs", "mean_auc"]
    assert {len(r) for r in rows} == {6}
    assert {r[2] for r in rows} == set(state.ml_results)
    assert all(isinstance(json.loads(r[3]), dict) for r in rows)


def imported_by_fresh_run(config: RunConfig, through: str, module: str) -> bool:
    """Whether running ``config`` through stage ``through`` in a new
    interpreter imports ``module``."""
    script = (
        "import json, sys\n"
        "from proxlink.pipeline import RunConfig, run_pipeline\n"
        "run_pipeline(RunConfig(**json.loads(sys.argv[1])), through_stage=sys.argv[2])\n"
        "print(sys.argv[3] in sys.modules)\n"
    )
    package_root = os.path.dirname(os.path.dirname(proxlink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(config.to_dict()),
                           through, module],
                          env=env, check=True, timeout=300, capture_output=True, text=True)
    return {"True": True, "False": False}[done.stdout.splitlines()[-1]]


def test_pipeline_never_imports_numpy_ma(tmp_path, demo_corpus):
    # a plain np.unique imports numpy.ma on numpy >= 2.3, which costs a run
    # about 10 ms and 1.3 MB; the tiny six-kind demo reaches every stage
    config = six_kind_config(demo_corpus, str(tmp_path / "out"))
    assert not imported_by_fresh_run(config, "report", "numpy.ma")


def test_topic_run_never_imports_numpy_random(tmp_path, demo_corpus):
    # GibbsLda draws from the stdlib Mersenne Twister: importing
    # numpy.random would cost a run through topics about 2.3 MB
    config = demo_config(demo_corpus, out=str(tmp_path / "out"))
    assert not imported_by_fresh_run(config, "topics", "numpy.random")


@pytest.mark.golden
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedRefits:
    def test_refit_path_does_not_change_the_bytes(self, tmp_path, demo_corpus, usable_cpus,
                                                  monkeypatch):
        import proxlink.pipeline as pipeline_mod

        make_classifier = pipeline_mod.make_classifier
        built = []  # kinds refitted in this process

        def recording(spec):
            built.append(spec.kind)
            return make_classifier(spec)

        monkeypatch.setattr(pipeline_mod, "make_classifier", recording)
        runs = []
        for n_cpus in (1, 2):
            usable_cpus(n_cpus)
            built.clear()
            config = six_kind_config(demo_corpus, str(tmp_path / f"cpus{n_cpus}"))
            state = run_pipeline(config, through_stage="ml")
            X, _ = state.dataset.to_matrix()
            assert state.best_model.to_json()["kind"] == state.best_kind
            # the best kind refits here last; with two CPUs the others
            # refit in forked children
            others = [k for k in CLASSIFIER_KINDS if k != state.best_kind]
            assert built == (others if n_cpus == 1 else []) + [state.best_kind]
            assert all(r.wall_time_s > 0 for r in state.ml_results.values())
            runs.append([_file_sha256(os.path.join(config.out, name))
                         for name in ("eval.json", "ml_tuning.csv")]
                        + [state.best_model.predict_proba(X).tobytes()])
        assert runs[0] == runs[1]

    def test_refit_error_names_its_kind(self, tmp_path, demo_corpus, usable_cpus,
                                        monkeypatch):
        import proxlink.pipeline as pipeline_mod

        make_classifier = pipeline_mod.make_classifier

        def failing(spec):
            if spec.kind == "linear-svm":
                raise ValueError("cannot refit")
            return make_classifier(spec)

        usable_cpus(2)
        monkeypatch.setattr(pipeline_mod, "make_classifier", failing)
        config = six_kind_config(demo_corpus, str(tmp_path / "out"))
        with pytest.raises(StageError, match="'ml' failed: cannot refit") as info:
            run_pipeline(config, through_stage="ml")
        child = str(info.value.__cause__.__cause__)
        assert "in the refit child for linear-svm:" in child and "in failing" in child


@pytest.mark.golden
class TestTopicStage:
    def test_each_k_is_fitted_once_and_the_winner_kept(self, tmp_path, demo_corpus,
                                                        one_cpu, monkeypatch):
        fit = GibbsLda.fit
        fitted = []

        def counting(self, docs):
            fitted.append(self.n_topics)
            return fit(self, docs)

        monkeypatch.setattr(GibbsLda, "fit", counting)
        config = demo_config(demo_corpus, out=str(tmp_path / "out"))
        state = run_pipeline(config, through_stage="topics")
        assert sorted(fitted) == [2, 3, 4]
        summary = state.stage_summary["topics"]
        k = summary["k"]
        assert summary["coherence"] == summary["k_scores"][str(k)]
        # the topic model is a plain fit at the winning K from the stage's seed
        final = GibbsLda(n_topics=k, alpha=config.lda_alpha, beta=config.lda_beta,
                         iterations=config.lda_iterations,
                         seed=stable_seed(7, "lda-final")).fit(
            tokenize_corpus(state.corpus.records))
        assert state.lda.to_json() == final.to_json()
        assert state.topic_vectors.keys() == final.doc_topic_.keys()
        assert all(v.tobytes() == final.doc_topic_[d].tobytes()
                   for d, v in state.topic_vectors.items())

    def test_one_k_grid_records_its_score(self, tmp_path, demo_corpus):
        config = dataclasses.replace(demo_config(demo_corpus, out=str(tmp_path / "out")),
                                     lda_k_grid=[3], lda_iterations=20)
        summary = run_pipeline(config, through_stage="topics").stage_summary["topics"]
        assert summary["k"] == 3
        assert summary["k_scores"] == {"3": summary["coherence"]}


class TestRunConfig:
    def test_json_round_trip(self, tmp_path, demo_corpus):
        config = demo_config(demo_corpus, out=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(config.to_dict(), fh)
        loaded = RunConfig.from_json(path)
        assert loaded.to_dict() == config.to_dict()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump({"corpus": "x.jsonl", "bogus_knob": 1}, fh)
        with pytest.raises(ValueError, match="bogus_knob"):
            RunConfig.from_json(path)

    @pytest.mark.parametrize("key, value", [
        ("lda_k_grid", 5),
        ("lda_k_grid", [2, "3"]),
        ("lda_k_grid", [2, True]),
        ("n_random", "4"),
        ("n_random", 4.0),
        ("seed", True),
        ("sampling_ratio", "4"),
        ("lda_beta", None),
        ("lda_alpha", "0.1"),
        ("ai_phrase_filter", 0),
        ("classifiers", "linear-svm"),
        ("classifiers", ["linear-svm", 3]),
        ("corpus", None),
        ("gazetteer", 1),
    ])
    def test_mistyped_value_names_its_key(self, tmp_path, key, value):
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump({"corpus": "x.jsonl", key: value}, fh)
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            RunConfig.from_json(path)

    def test_int_for_float_and_null_for_optional_load(self, tmp_path):
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump({"corpus": "x.jsonl", "sampling_ratio": 4, "lda_beta": 1,
                       "lda_alpha": None, "gazetteer": None, "lda_k_grid": []}, fh)
        config = RunConfig.from_json(path)
        assert (config.sampling_ratio, config.lda_beta, config.lda_alpha) == (4, 1, None)

    @pytest.mark.parametrize("raw", [[{"corpus": "x.jsonl"}], "x.jsonl", None])
    def test_top_level_must_be_an_object(self, tmp_path, raw):
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(ValueError, match="must hold a JSON object"):
            RunConfig.from_json(path)


class TestPipelineStages:
    def test_partial_run_through_windows(self, tmp_path, demo_corpus):
        config = demo_config(demo_corpus, out=str(tmp_path / "out"))
        state = run_pipeline(config, through_stage="windows")
        assert state.corpus is not None
        assert len(state.windows) == 6
        assert state.dataset is None
        assert not os.path.exists(os.path.join(config.out, "dataset.csv"))

    def test_missing_corpus_fails_at_ingest_with_marker(self, tmp_path):
        config = demo_config(str(tmp_path / "nope.jsonl"), out=str(tmp_path / "out"))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        marker = os.path.join(config.out, "INCOMPLETE")
        assert os.path.exists(marker)
        assert "ingest" in open(marker).read()

    @pytest.mark.parametrize("override, message", [
        ({"coherence_window": 0}, "window must be >= 1, got 0"),
        ({"coherence_top_m": 1}, "top_m must be >= 2, got 1"),
        ({"lda_iterations": -5}, "iterations must be >= 1, got -5"),
    ], ids=["window", "top-m", "iterations"])
    def test_misleading_topic_parameter_fails_the_topics_stage(self, tmp_path, demo_corpus,
                                                             override, message):
        short_fits = {"lda_k_grid": [2, 3], "lda_iterations": 2}
        config = dataclasses.replace(demo_config(demo_corpus, out=str(tmp_path / "out")),
                                     **{**short_fits, **override})
        with pytest.raises(StageError, match=message) as err:
            run_pipeline(config, through_stage="topics")
        assert err.value.stage == "topics"

    def test_canonical_dump_written(self, tmp_path, demo_corpus):
        config = demo_config(demo_corpus, out=str(tmp_path / "out"))
        path = write_canonical_dump(config)
        lines = open(path).read().strip().splitlines()
        # scenario 1 keeps the all-Canadian publications only
        assert 0 < len(lines) < 300
        ids = [json.loads(l)["pub_id"] for l in lines]
        assert ids == sorted(ids)

    @pytest.mark.golden
    def test_full_run_produces_bundle(self, tmp_path, demo_corpus):
        config = demo_config(demo_corpus, out=str(tmp_path / "out"))
        state = run_pipeline(config)
        for name in BUNDLE_FILES:
            assert os.path.exists(os.path.join(config.out, name)), name
        assert not os.path.exists(os.path.join(config.out, "INCOMPLETE"))
        manifest = json.load(open(os.path.join(config.out, "manifest.json")))
        assert manifest["config"]["corpus"] == demo_corpus
        assert "corpus" in manifest["input_checksums"]
        assert len(manifest["outputs"]) == len(BUNDLE_FILES) - 1  # all but itself
        assert state.stage_summary["ml"]["best_kind"] in manifest["stages"]["ml"]["best_kind"]

        digests = {name: _file_sha256(os.path.join(config.out, name))
                   for name in BUNDLE_FILES if name != "manifest.json"}
        assert digests == GOLDEN_BUNDLE
        assert manifest["outputs"] == GOLDEN_BUNDLE
        assert {name: _file_sha256(os.path.join(config.out, name))
                for name in GOLDEN_TOPICS} == GOLDEN_TOPICS
        stages = json.dumps(manifest["stages"], sort_keys=True).encode()
        assert hashlib.sha256(stages).hexdigest() == GOLDEN_STAGES

        # tune -> SMOTE -> refit -> one held-out AUC per kind; wall time is
        # recorded but kept out of the canonical eval.json
        eval_json = json.load(open(os.path.join(config.out, "eval.json")))
        assert set(state.ml_results) == set(config.classifiers)
        for kind, result in state.ml_results.items():
            assert 0.0 <= result.test_auc <= 1.0
            assert result.mean_auc >= 0.9
            assert result.wall_time_s > 0
            assert "wall_time_s" not in eval_json["results"][kind]

    @pytest.mark.golden
    def test_gazetteer_all_pairs_features_pinned(self, tmp_path):
        config = gazetteer_config(tmp_path)
        run_pipeline(config, through_stage="describe")
        digests = {name: _file_sha256(os.path.join(config.out, name))
                   for name in GOLDEN_GAZETTEER}
        assert digests == GOLDEN_GAZETTEER

    def test_unknown_stage_rejected(self, tmp_path, demo_corpus):
        config = demo_config(demo_corpus, out=str(tmp_path / "out"))
        with pytest.raises(ValueError, match="unknown stage"):
            run_pipeline(config, through_stage="nonsense")


class TestCli:
    def test_synth_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "c.jsonl")
        assert main(["synth", "--out", out, "--seed", "7"]) == 0
        assert "300" in capsys.readouterr().out
        assert os.path.exists(out)

    def test_ingest_subcommand(self, tmp_path, demo_corpus, capsys):
        code = main(["ingest", "--demo", "--corpus", demo_corpus,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "canonical dump" in capsys.readouterr().out

    @pytest.mark.parametrize("stage", STAGES)
    def test_every_stage_is_a_subcommand(self, stage):
        args = build_parser().parse_args([stage, "--demo", "--corpus", "c.jsonl"])
        assert (args.command, args.demo, args.corpus) == (stage, True, "c.jsonl")

    def test_describe_subcommand(self, tmp_path, demo_corpus, capsys):
        out = tmp_path / "out"
        assert main(["describe", "--demo", "--corpus", demo_corpus, "--out", str(out)]) == 0
        assert "describe" in json.loads(capsys.readouterr().out)["stages"]
        assert (out / "describe.csv").exists() and (out / "corr.csv").exists()
        assert not (out / "ml_tuning.csv").exists()

    def test_stagewise_windows_subcommand(self, tmp_path, demo_corpus, capsys):
        code = main(["windows", "--demo", "--corpus", demo_corpus,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stages"]["windows"]["count"] == 6

    def test_run_with_config_file(self, tmp_path, demo_corpus, capsys):
        out = str(tmp_path / "out")
        config = demo_config(demo_corpus, out=out)
        config_path = tmp_path / "config.json"
        with open(config_path, "w") as fh:
            json.dump(config.to_dict(), fh)
        assert main(["run", "--config", str(config_path)]) == 0
        for name in BUNDLE_FILES:
            assert os.path.exists(os.path.join(out, name)), name

    def test_scenario_and_seed_overrides(self, tmp_path, demo_corpus, capsys):
        code = main(["windows", "--demo", "--corpus", demo_corpus,
                     "--out", str(tmp_path / "out"), "--scenario", "4",
                     "--seed", "9"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stages"]["ingest"]["records_in_scenario"] == 300

    def test_flags_complete_a_config_file_before_it_loads(self, tmp_path, demo_corpus, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 3, "out": "elsewhere"}))
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config_path), "--corpus", demo_corpus,
                     "--out", str(out)]) == 0
        dump = capsys.readouterr().out.strip().split(": ", 1)[1]
        assert os.path.dirname(dump) == str(out) and os.path.getsize(dump) > 0
        args = build_parser().parse_args(["ingest", "--config", str(config_path),
                                          "--corpus", "x.jsonl", "--seed", "5", "--scenario", "2"])
        config = cli_mod._resolve_config(args)
        assert (config.corpus, config.seed, config.scenario, config.out) == (
            "x.jsonl", 5, 2, "elsewhere")

    def test_config_file_without_corpus_names_it(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 3}))
        assert main(["ingest", "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 1
        assert "required key 'corpus'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="required key 'corpus'"):
            RunConfig.from_json(config_path)

    @pytest.mark.parametrize("config_text, corpus, message", [
        ('{"seed": 3}', None, "required key 'corpus'"),
        ("{bad", None, "is not valid JSON"),
        (None, None, "No such file"),
        (None, "missing.jsonl", "cannot read corpus file"),
    ], ids=["no-corpus-key", "invalid-json", "missing-config", "missing-corpus"])
    def test_bad_input_ends_in_an_error_line(self, tmp_path, capsys, config_text, corpus,
                                             message):
        argv = ["ingest", "--out", str(tmp_path / "out")]
        config_path = tmp_path / "config.json"
        if config_text is not None:
            config_path.write_text(config_text)
        if corpus is None:
            argv += ["--config", str(config_path)]
        else:
            argv += ["--corpus", str(tmp_path / corpus)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_failure_exit_code(self, tmp_path, capsys):
        code = main(["run", "--demo", "--corpus", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ingest" in capsys.readouterr().err


def cli_error(argv, capsys) -> str:
    """The stderr of a CLI call that must fail with status 1 and one error line."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


class TestConfigValuesFailEarly:
    @pytest.mark.parametrize("key, value", [
        ("grid_span", 0), ("grid_span", -2), ("max_grid_fits", 0), ("grid_points", 0),
        ("smote_k", 0), ("folds", 1), ("n_random", 0),
    ])
    def test_bad_plan_value_fails_before_ingest(self, tmp_path, capsys, key, value):
        # the corpus does not exist, so only a check before ingest names the key
        corpus, out = str(tmp_path / "missing.jsonl"), tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{key} .*must be") as err:
            run_pipeline(RunConfig(corpus=corpus, out=str(out), **{key: value}))
        assert not isinstance(err.value, StageError)
        assert not (out / "INCOMPLETE").exists()
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"corpus": corpus, key: value}))
        assert cli_error(["run", "--config", str(path), "--out", str(out)],
                         capsys).startswith(f"error: {key} ")

    def test_kind_listed_twice_fails_the_ml_stage(self, tmp_path, demo_corpus, capsys):
        config = dataclasses.replace(
            demo_config(demo_corpus, out=str(tmp_path / "out")), lda_k_grid=[3],
            lda_iterations=20, classifiers=["gaussian-naive-bayes"] * 2)
        with pytest.raises(StageError, match="more than once: .'gaussian-naive-bayes'.$"):
            run_pipeline(config, through_stage="ml")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        err = cli_error(["ml", "--config", str(path)], capsys)
        assert "'ml' failed" in err and "gaussian-naive-bayes" in err

    def test_bad_gazetteer_fails_the_geocode_stage(self, tmp_path, demo_corpus, capsys):
        gazetteer = tmp_path / "gazetteer.csv"
        gazetteer.write_text("city,province,country,lat,lon\nmontreal,QC,CA,95,-73.5\n")
        config = dataclasses.replace(demo_config(demo_corpus, out=str(tmp_path / "out")),
                                     gazetteer=str(gazetteer))
        with pytest.raises(StageError, match="line 2: lat 95 is outside") as err:
            run_pipeline(config, through_stage="geocode")
        assert err.value.stage == "geocode"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert f"gazetteer {gazetteer}, line 2" in cli_error(["geocode", "--config", str(path)],
                                                            capsys)

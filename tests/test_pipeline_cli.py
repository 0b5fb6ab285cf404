import hashlib
import json
import os

import pytest

from proxlink.cli import main
from proxlink.pipeline import (
    BUNDLE_FILES,
    RunConfig,
    StageError,
    demo_config,
    make_demo_corpus,
    run_pipeline,
    write_canonical_dump,
)
from proxlink.synthetic import make_synthetic_corpus


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
    "ml_tuning.csv": "fcecc134c35b9138eaf5e6e203b872832364c56ada262742d4b193cb657dfcaf",
    "shap.csv": "5c78a8010435083ae4ef8a83e2476169963e77af081c54e40f8d89093a1220fc",
}
# manifest.json embeds the absolute corpus and output paths, so its own
# digest varies by directory; its "stages" field is pinned instead, as the
# sha256 of its sort_keys JSON.
GOLDEN_STAGES = "00adc28069a68de65ad8373e5ca19a864043826347d6db3214d7dc9fc6fde323"
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

    def test_canonical_dump_written(self, tmp_path, demo_corpus):
        config = demo_config(demo_corpus, out=str(tmp_path / "out"))
        path = write_canonical_dump(config)
        lines = open(path).read().strip().splitlines()
        # scenario 1 keeps the all-Canadian publications only
        assert 0 < len(lines) < 300
        ids = [json.loads(l)["pub_id"] for l in lines]
        assert ids == sorted(ids)

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
            assert "wall_time_s" in result.to_json(include_wall_time=True)
            assert "wall_time_s" not in eval_json["results"][kind]

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

    def test_failure_exit_code(self, tmp_path, capsys):
        code = main(["run", "--demo", "--corpus", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ingest" in capsys.readouterr().err

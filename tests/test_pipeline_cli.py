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


# sha256 of every bundle file but manifest.json for demo_config(seed=7) on
# the seed-7 demo corpus. A change that moves these bytes must update the
# digests and say why; a refactor must leave them alone.
GOLDEN_BUNDLE = {
    "beeswarm.svg": "d937b790452b8837ac417bdb3c5610eed7768e16616230603ac0cdc1247d491a",
    "corr.csv": "a9075a6304c4a5188527018f5fe3db48a5601ec41ee39c61645fe0aff74cf535",
    "dataset.csv": "1c847d22c640e2ac6fc59d9837204102eb80d67663a642df53651d40bd083c95",
    "describe.csv": "da63b2e527f6d6d5f2ca4ddb521decd8206fb3ad212600a8f1d6fe7a1f78c438",
    "elasticity.csv": "ffb9206877b7e9018290b34de064146312c801683206aa8a59db2876791d0070",
    "elasticity.svg": "9a6f33365fe1350a278ec16844d52250b430dfa5eb033318856ebdbad1379cd2",
    "eval.json": "d012e69e5fce3ed59a2ad52a9e3184cb5b02cbc5ffeee014e7d9a9e9b6c5db25",
    "logit_table.txt": "9684cb281341fd4c35cc448ec917601015fcf6e239ea6ca035fc336e58058cad",
    "ml_tuning.csv": "f4dc8ad0ad2fd949af2720c3e27671df72c04247b65915437c62ad0adcfb97eb",
    "shap.csv": "a0e673c7cd7d5db4d8fd5683dd01c32ea5244955f437f475a007a5cbb389ae41",
}
# manifest.json embeds the absolute corpus and output paths, so its own
# digest varies by directory; its "stages" field is pinned instead, as the
# sha256 of its sort_keys JSON.
GOLDEN_STAGES = "3ebe1d184e684df5b31e67ef6f4671661a16c9fec41db9b64212980a1b5240a3"


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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

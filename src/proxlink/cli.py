"""Command-line interface.

Subcommands run the pipeline through their stage (stages are
deterministic, so each is individually invocable for debugging) and write
that stage's artifacts under --out. ``run`` produces the full report
bundle; ``synth`` writes the bundled synthetic demo corpus.
"""
from __future__ import annotations

import argparse
import json
import sys

from .pipeline import (
    STAGES,
    RunConfig,
    StageError,
    demo_config,
    make_demo_corpus,
    run_pipeline,
    write_canonical_dump,
)

_HELP = {
    "ingest": "validate the corpus and write the canonical dump",
    "geocode": "set up geocoding and report resolution sources",
    "windows": "build sliding windows and co-publication graphs",
    "topics": "fit the topic model and dump it",
    "features": "assemble the per-pair dataset",
    "describe": "write descriptive statistics and the correlation screen",
    "fit": "fit the inferential logit and elasticity curve",
    "ml": "run the classification protocol",
    "explain": "compute exact Shapley explanations",
    "report": "render figures and write the manifest",
    "run": "run the full pipeline",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run-config JSON (see README)")
    parser.add_argument("--corpus", help="corpus JSONL path (overrides config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--scenario", type=int, choices=(1, 2, 3, 4),
                        help="data scenario (overrides config)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--demo", action="store_true",
                        help="use the reduced demo configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxlink",
        description="co-authorship link prediction from proximity features",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES + ("run",):
        _add_common(sub.add_parser(name, help=_HELP[name]))

    synth = sub.add_parser("synth", help="write the bundled synthetic demo corpus")
    synth.add_argument("--out", default="synthetic_corpus.jsonl",
                       help="output JSONL path")
    synth.add_argument("--seed", type=int, default=7)
    return parser


def _resolve_config(args) -> RunConfig:
    overrides = {"corpus": args.corpus or None, "seed": args.seed,
                 "scenario": args.scenario, "out": args.out or None}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.config:
        return RunConfig.from_json(args.config, overrides)
    if args.demo:
        if not args.corpus:
            raise SystemExit("--demo requires --corpus")
        return demo_config(args.corpus, out=args.out or "out",
                           scenario=args.scenario or 1,
                           seed=args.seed if args.seed is not None else 7)
    if not args.corpus:
        raise SystemExit("provide --config or --corpus")
    return RunConfig(**overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "synth":
        n = make_demo_corpus(args.out, seed=args.seed)
        print(f"wrote {n} synthetic records to {args.out}")
        return 0

    try:
        config = _resolve_config(args)
        if args.command == "ingest":
            path = write_canonical_dump(config)
            print(f"canonical dump: {path}")
            return 0
        stage = "report" if args.command == "run" else args.command
        state = run_pipeline(config, through_stage=stage)
    except (StageError, ValueError, OSError) as exc:
        # a bad config or corpus file (ValueError, OSError), or a failed stage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"out": config.out, "stages": state.stage_summary}, indent=1,
                     sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Exit codes: 0 success, 2 usage error, 1 runtime failure. Diagnostics go to
stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corpus_store
from .errors import CorpusCorruptionError, UsageError
from .experiment import (
    compute_report,
    format_reports_text,
    format_reports_tsv,
    load_plan,
    run_experiment,
)
from .fuzzer import FuzzConfig, FuzzerState, fuzz_loop
from .gan import GanConfig, gan_generate, load_gan, save_gan, train_gan
from .lstm import LstmConfig, load_lstm, lstm_generate, save_lstm, train_lstm
from .synth import random_from_corpus, random_urandom
from .targets import get_target


def _check_out_dir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise UsageError(f"output directory {out} already exists (use --force)")
    return out


def _load_corpus_arg(path: str):
    seeds = corpus_store.load_corpus(path)
    if not seeds:
        raise UsageError(f"corpus directory {path} is empty")
    return seeds


def cmd_fuzz(args) -> int:
    out = _check_out_dir(args.corpus, args.force)
    target = get_target(args.target)
    seeds = [Path(p).read_bytes() for p in args.seed_file]
    config = FuzzConfig(rng_seed=args.rng_seed)
    state = FuzzerState.from_seeds(seeds, target, config)
    fuzz_loop(state, target, args.execs)
    corpus_store.save_corpus(out, corpus_store.seeds_from_state(state), force=args.force)
    print(f"{len(state.queue)} queue entries, {len(state.crashes)} crashes -> {out}")
    return 0


def cmd_train(args) -> int:
    seeds = [s.data for s in _load_corpus_arg(args.corpus)]
    if args.strategy == "gan":
        model = train_gan(seeds, GanConfig(epochs=args.epochs, rng_seed=args.rng_seed))
        save_gan(model, args.model)
    else:
        model = train_lstm(seeds, LstmConfig(epochs=args.epochs, rng_seed=args.rng_seed))
        save_lstm(model, args.model)
    print(f"trained {args.strategy} model in {model.train_time:.1f}s -> {args.model}")
    return 0


def cmd_generate(args) -> int:
    for flag, strategies in (("model", ("gan", "lstm")), ("corpus", ("lstm", "rand_corpus"))):
        if args.strategy in strategies and getattr(args, flag) is None:
            raise UsageError(f"--strategy {args.strategy} needs --{flag}")
    out = _check_out_dir(args.out, args.force)
    if args.strategy == "gan":
        batch = gan_generate(load_gan(args.model), args.n, args.rng_seed)
    elif args.strategy == "lstm":
        corpus = [s.data for s in _load_corpus_arg(args.corpus)]
        batch = lstm_generate(load_lstm(args.model), args.n, args.temperature,
                              corpus, args.rng_seed)
    elif args.strategy == "rand_corpus":
        corpus = [s.data for s in _load_corpus_arg(args.corpus)]
        batch = random_from_corpus(corpus, args.n, args.len, args.rng_seed)
    else:
        batch = random_urandom(args.n, args.len, args.rng_seed,
                               os_entropy=args.os_entropy)
    seeds = [
        corpus_store.SeedFile(data=data, id=i, origin=batch.strategy, discovered_at=0)
        for i, data in enumerate(batch.seeds)
    ]
    corpus_store.save_corpus(out, seeds, force=args.force)
    print(f"{len(seeds)} {batch.strategy} seeds -> {out}")
    return 0


def cmd_dedup(args) -> int:
    out = _check_out_dir(args.out, args.force)
    seeds = _load_corpus_arg(args.corpus)
    kept, dup = corpus_store.dedup_content(seeds)
    msg = f"content dedup: {len(seeds)} -> {len(kept)} ({dup} duplicates)"
    if args.by_length:
        kept, coll = corpus_store.dedup_by_length(kept, get_target(args.target))
        msg += f"; length dedup: -> {len(kept)} ({coll} collisions)"
    corpus_store.save_corpus(out, kept, force=args.force)
    print(msg + f" -> {out}")
    return 0


def cmd_merge(args) -> int:
    out = _check_out_dir(args.out, args.force)
    merged = corpus_store.merge(args.dirs, out=out, force=args.force)
    print(f"merged {len(args.dirs)} dirs -> {len(merged)} seeds -> {out}")
    return 0


def cmd_report(args) -> int:
    target = get_target(args.target)
    seeds = corpus_store.ensure_trace_lengths(_load_corpus_arg(args.corpus), target)
    training_lengths = set()
    if args.training_corpus:
        training = corpus_store.ensure_trace_lengths(
            _load_corpus_arg(args.training_corpus), target)
        training_lengths = {s.trace_length for s in training}
    report = compute_report(seeds, training_lengths, strategy=args.strategy)
    reports = {report.strategy or "corpus": report}
    print(format_reports_tsv(reports) if args.tsv else format_reports_text(reports), end="")
    return 0


def cmd_experiment(args) -> int:
    plan = load_plan(args.plan)
    out = _check_out_dir(args.out, args.force)
    reports = run_experiment(plan, out, force=args.force)
    print(format_reports_text(reports), end="")
    print(f"artifacts -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ganfuzz")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuzz", help="run the coverage-guided fuzzer")
    p.add_argument("--target", default="minikey")
    p.add_argument("--corpus", required=True, help="output corpus directory")
    p.add_argument("--execs", type=int, default=100_000)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--seed-file", action="append", default=[],
                   help="initial seed file (repeatable)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("train", help="train a generator model on a corpus")
    p.add_argument("--strategy", choices=("gan", "lstm"), required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate a synthetic seed batch")
    p.add_argument("--strategy", choices=("gan", "lstm", "rand_corpus", "rand_urandom"),
                   required=True)
    p.add_argument("--model", help="model file (gan/lstm)")
    p.add_argument("--corpus", help="training corpus (lstm priming, rand_corpus)")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--len", type=int, default=64, help="seed length (random strategies)")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--os-entropy", action="store_true",
                   help="use OS entropy instead of the seeded PRNG")
    p.add_argument("--out", required=True)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dedup", help="content (and optional length) dedup")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--by-length", action="store_true")
    p.add_argument("--target", default="minikey")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("merge", help="merge worker corpus directories")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("report", help="compute path-length metrics for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", default="minikey")
    p.add_argument("--training-corpus", help="corpus defining known lengths")
    p.add_argument("--strategy", default="", help="label for the report row")
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("experiment", help="run the full experiment protocol")
    p.add_argument("--plan", required=True, help="flat key=value plan file")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CorpusCorruptionError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end experiment orchestration and the path-length metrics suite.

Phase 1 fuzzes the target with independent workers to build a training
corpus; the corpus is merged and deduplicated; each strategy then produces
a synthetic seed batch and a reinitialized fuzzer runs phase 2. Reports
carry both virtual-time (execution count) and wall-clock rates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import corpus as corpus_store
from .errors import UsageError
from .fuzzer import FuzzConfig, FuzzerState, fuzz_loop, reinitialize, run_workers
from .gan import GanConfig, gan_generate, save_gan, train_gan
from .lstm import LstmConfig, lstm_generate, save_lstm, train_lstm
from .synth import SyntheticBatch, median_seed_length, random_from_corpus, random_urandom
from .targets import build_minikey_input, build_record, get_target

KNOWN_STRATEGIES = ("continue", "rand_urandom", "rand_corpus", "lstm", "gan")


@dataclass
class StrategyReport:
    strategy: str
    seed_count: int
    unique_length_count: int
    unique_fraction: float
    novel_count: int
    mean_length: float
    std_length: float
    execs_per_path: float
    wall_secs_per_path: float
    train_wall_secs: float

    @classmethod
    def from_counts(cls, strategy: str, seed_count: int, unique_length_count: int,
                    novel_count: int = 0, mean_length: float = 0.0,
                    std_length: float = 0.0, execs: int = 0, wall: float = 0.0,
                    train_wall: float = 0.0) -> "StrategyReport":
        if seed_count < 1:
            raise UsageError("seed_count must be positive")
        return cls(
            strategy=strategy,
            seed_count=seed_count,
            unique_length_count=unique_length_count,
            unique_fraction=unique_length_count / seed_count,
            novel_count=novel_count,
            mean_length=mean_length,
            std_length=std_length,
            execs_per_path=execs / seed_count if execs else 0.0,
            wall_secs_per_path=wall / seed_count if wall else 0.0,
            train_wall_secs=train_wall,
        )


def compute_report(seeds, training_lengths: set[int], strategy: str = "",
                   execs: int = 0, wall: float = 0.0, train_wall: float = 0.0,
                   all_seeds_stats: bool = False) -> StrategyReport:
    """Per-strategy metrics over an analyzed seed list.

    Length statistics cover the unique-length representative set (earliest
    discovery per length) unless all_seeds_stats is set.
    """
    if not seeds:
        raise UsageError("compute_report needs a non-empty seed list")
    for s in seeds:
        if s.trace_length is None:
            raise UsageError("all seeds must be analyzed (trace_length present)")
    ordered = sorted(seeds, key=lambda s: (s.worker, s.id))
    representatives: dict[int, int] = {}
    for s in ordered:
        representatives.setdefault(s.trace_length, s.trace_length)
    distinct = set(representatives)
    stat_lengths = (
        np.array([s.trace_length for s in ordered], dtype=np.float64)
        if all_seeds_stats
        else np.array(sorted(distinct), dtype=np.float64)
    )
    return StrategyReport.from_counts(
        strategy=strategy,
        seed_count=len(seeds),
        unique_length_count=len(distinct),
        novel_count=len(distinct - training_lengths),
        mean_length=float(stat_lengths.mean()),
        std_length=float(stat_lengths.std()),  # population formula
        execs=execs,
        wall=wall,
        train_wall=train_wall,
    )


def relative_rate(candidate: StrategyReport, baseline: StrategyReport,
                  metric: str = "seed_count", equal_wall: bool = True) -> float:
    """Candidate-over-baseline discovery rate.

    With equal wall time the elapsed time cancels and the rate is a count
    ratio; otherwise it is the ratio of baseline to candidate secs-per-path.
    """
    if metric not in ("seed_count", "unique_length_count", "novel_count"):
        raise UsageError(f"unknown rate metric {metric!r}")
    if equal_wall:
        base = getattr(baseline, metric)
        if base <= 0:
            raise UsageError("baseline count must be positive")
        return getattr(candidate, metric) / base
    if candidate.wall_secs_per_path <= 0 or baseline.wall_secs_per_path <= 0:
        raise UsageError("secs-per-path must be positive for wall-clock rates")
    return baseline.wall_secs_per_path / candidate.wall_secs_per_path


def discounted_rate(candidate: StrategyReport, baseline: StrategyReport,
                    wall: float) -> float:
    """Count-rate ratio charging each strategy its model training time."""
    if wall <= 0:
        raise UsageError("wall must be positive")
    cand = candidate.seed_count / (wall + candidate.train_wall_secs)
    base = baseline.seed_count / (wall + baseline.train_wall_secs)
    if base <= 0:
        raise UsageError("baseline rate must be positive")
    return cand / base


def mean_length_ratio(candidate: StrategyReport, baseline: StrategyReport) -> float:
    if baseline.mean_length <= 0:
        raise UsageError("baseline mean length must be positive")
    return candidate.mean_length / baseline.mean_length


# ---------------------------------------------------------------------------
# Plans


@dataclass
class ExperimentPlan:
    target: str = "minikey"
    phase1_execs: int = 200_000
    workers: int = 2
    strategies: tuple[str, ...] = ("continue", "rand_urandom", "rand_corpus", "lstm", "gan")
    samples_per_strategy: int = 500
    phase2_execs: int = 100_000
    reinit_mode: str = "fresh"  # fresh | augment
    rng_seed: int = 0
    gan_epochs: int = 200
    gan_batch_size: int = 512
    gan_g_lr: float = 0.02
    gan_d_lr: float = 0.002
    gan_anneal_after: int = 60
    gan_anneal_factor: float = 0.97
    gan_restarts: int = 3
    lstm_epochs: int = 5
    lstm_hidden: int = 64
    temperature: float = 1.0

    def __post_init__(self):
        if not self.strategies:
            raise UsageError("plan needs at least one strategy")
        for s in self.strategies:
            if s not in KNOWN_STRATEGIES:
                raise UsageError(f"unknown strategy {s!r}; known: {KNOWN_STRATEGIES}")
        if self.reinit_mode not in ("fresh", "augment"):
            raise UsageError(f"reinit_mode must be fresh|augment, got {self.reinit_mode!r}")
        if min(self.phase1_execs, self.phase2_execs, self.workers,
               self.samples_per_strategy) < 1:
            raise UsageError("plan budgets and counts must be positive")


_PLAN_FIELDS = {f.name: f for f in dc_fields(ExperimentPlan)}


def load_plan(path) -> ExperimentPlan:
    """Flat key=value plan file; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _PLAN_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown plan key {key!r}")
        f = _PLAN_FIELDS[key]
        if f.type in ("int", int):
            values[key] = int(val)
        elif f.type in ("float", float):
            values[key] = float(val)
        elif key == "strategies":
            values[key] = tuple(s.strip() for s in val.split(",") if s.strip())
        else:
            values[key] = val
    return ExperimentPlan(**values)


def dump_plan(plan: ExperimentPlan) -> str:
    lines = []
    for f in dc_fields(ExperimentPlan):
        val = getattr(plan, f.name)
        if f.name == "strategies":
            val = ",".join(val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Orchestration


def default_initial_seeds() -> list[bytes]:
    """A couple of small well-formed minikey files to boot phase 1."""
    return [
        build_minikey_input(1, []),
        build_minikey_input(1, [build_record(0x01, b"secretkey0")]),
        build_minikey_input(2, [build_record(0x02, b"label"), build_record(0x01, b"k")]),
    ]


def _make_batch(strategy: str, train_corpus, plan: ExperimentPlan, rng_seed: int,
                models_dir: Path | None) -> tuple[SyntheticBatch | None, float]:
    """Train (if needed) and generate one strategy's batch; returns (batch, train_wall)."""
    n = plan.samples_per_strategy
    length = median_seed_length(train_corpus)
    if strategy == "continue":
        return None, 0.0
    if strategy == "rand_urandom":
        return random_urandom(n, length, rng_seed), 0.0
    if strategy == "rand_corpus":
        return random_from_corpus(train_corpus, n, length, rng_seed), 0.0
    if strategy == "gan":
        config = GanConfig(epochs=plan.gan_epochs, batch_size=plan.gan_batch_size,
                           g_lr=plan.gan_g_lr, d_lr=plan.gan_d_lr,
                           anneal_after_epoch=plan.gan_anneal_after,
                           anneal_factor=plan.gan_anneal_factor,
                           restarts=plan.gan_restarts, rng_seed=rng_seed)
        model = train_gan(train_corpus, config)
        if models_dir is not None:
            save_gan(model, models_dir / "gan.bin")
        return gan_generate(model, n, rng_seed), model.train_time
    if strategy == "lstm":
        config = LstmConfig(hidden_width=plan.lstm_hidden, dense_width=plan.lstm_hidden,
                            epochs=plan.lstm_epochs, rng_seed=rng_seed)
        model = train_lstm(train_corpus, config)
        if models_dir is not None:
            save_lstm(model, models_dir / "lstm.bin")
        return lstm_generate(model, n, plan.temperature, train_corpus, rng_seed), model.train_time
    raise UsageError(f"unknown strategy {strategy!r}")


def run_experiment(plan: ExperimentPlan, out_dir: str | Path,
                   initial_seeds: list[bytes] | None = None,
                   force: bool = False) -> dict[str, StrategyReport]:
    """Run the full protocol; persists every artifact under out_dir."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise UsageError(f"run directory {out} is not empty (use force)")
    target = get_target(plan.target)
    seeds = initial_seeds or default_initial_seeds()

    # Phase 1: independent workers build the training corpus.
    phase1 = out / "phase1"
    worker_seeds = [plan.rng_seed * 1000 + i for i in range(plan.workers)]
    states = run_workers(plan.workers, target, seeds, plan.phase1_execs,
                         FuzzConfig(rng_seed=plan.rng_seed), worker_seeds)
    worker_dirs = []
    for i, state in enumerate(states):
        d = phase1 / f"worker-{i:02d}"
        corpus_store.save_corpus(d, corpus_store.seeds_from_state(state, worker=i), force=force)
        worker_dirs.append(d)

    # Saved queues carry their trace lengths, so the merged seeds do too.
    merged = corpus_store.merge(worker_dirs, out=phase1 / "merged", force=force)
    training_lengths = {s.trace_length for s in merged}

    models_dir = out / "models"
    models_dir.mkdir(parents=True, exist_ok=True)

    reports: dict[str, StrategyReport] = {}
    for k, strategy in enumerate(plan.strategies):
        strat_seed = plan.rng_seed * 1000 + 500 + k
        batch, train_wall = _make_batch(strategy, merged, plan, strat_seed, models_dir)

        wall_start = time.perf_counter()
        config = FuzzConfig(rng_seed=strat_seed)
        if strategy == "continue" or plan.reinit_mode == "augment":
            # Rebuild the phase-1 queue, then (except for the control) inject.
            state = FuzzerState.from_seeds([s.data for s in merged], target, config)
            if batch is not None:
                reinitialize(state, batch, target)
        else:
            state = FuzzerState(config)
            reinitialize(state, batch, target)
        baseline_ids = {e.id for e in state.queue}
        execs_before = state.exec_count
        fuzz_loop(state, target, plan.phase2_execs)
        wall = time.perf_counter() - wall_start

        discovered = [e for e in state.queue if e.id not in baseline_ids]
        strat_dir = out / "phase2" / strategy
        corpus_store.save_corpus(
            strat_dir, corpus_store.seeds_from_state(state), force=force)
        if discovered:
            discovered_seeds = [
                corpus_store.SeedFile(data=e.data, id=e.id, origin=e.origin,
                                      discovered_at=e.discovered_at,
                                      trace_length=e.trace_length)
                for e in discovered
            ]
            reports[strategy] = compute_report(
                discovered_seeds, training_lengths, strategy=strategy,
                execs=state.exec_count - execs_before, wall=wall, train_wall=train_wall)
        else:
            # A legitimate outcome at small budgets: nothing admitted.
            reports[strategy] = StrategyReport(
                strategy=strategy, seed_count=0, unique_length_count=0,
                unique_fraction=0.0, novel_count=0, mean_length=0.0,
                std_length=0.0, execs_per_path=0.0, wall_secs_per_path=0.0,
                train_wall_secs=train_wall)

    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "tables.tsv").write_text(format_reports_tsv(reports))
    (report_dir / "tables.txt").write_text(format_reports_text(reports))
    (report_dir / "plan.cfg").write_text(dump_plan(plan))
    return reports


# ---------------------------------------------------------------------------
# Report rendering

_COLUMNS = ("strategy", "seed_count", "unique_length_count", "unique_fraction",
            "novel_count", "mean_length", "std_length", "execs_per_path",
            "wall_secs_per_path", "train_wall_secs")


def _row(report: StrategyReport) -> list[str]:
    out = []
    for col in _COLUMNS:
        val = getattr(report, col)
        out.append(f"{val:.4f}" if isinstance(val, float) else str(val))
    return out


def format_reports_tsv(reports: dict[str, StrategyReport]) -> str:
    lines = ["\t".join(_COLUMNS)]
    lines += ["\t".join(_row(r)) for r in reports.values()]
    baseline = reports.get("rand_corpus") or reports.get("rand_urandom")
    if baseline is not None and baseline.seed_count > 0:
        lines.append("")
        lines.append("strategy\tcount_rate\tlength_rate\tnovel_rate")
        for name, r in reports.items():
            lines.append("\t".join([
                name,
                f"{relative_rate(r, baseline, 'seed_count'):.4f}",
                f"{relative_rate(r, baseline, 'unique_length_count'):.4f}",
                f"{relative_rate(r, baseline, 'novel_count'):.4f}"
                if baseline.novel_count else "n/a",
            ]))
    return "\n".join(lines) + "\n"


def format_reports_text(reports: dict[str, StrategyReport]) -> str:
    rows = [list(_COLUMNS)] + [_row(r) for r in reports.values()]
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines) + "\n"

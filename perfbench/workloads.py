"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs once (`__init__`, part of set-up), then runs
whole rounds of the same operations (`run`, the timed part). `check` tests
one round's outputs against the reference parser, against properties the
method must have, and against totals recomputed apart from the program; it
returns the round's path count and a fingerprint that must repeat in every
round of the run.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

import ganfuzz.corpus as corpus
import ganfuzz.experiment as experiment
import ganfuzz.fuzzer as fuzzer
import ganfuzz.gan as gan
import ganfuzz.lstm as lstm
import ganfuzz.synth as synth
import ganfuzz.targets as targets
from minikey_ref import reference_trace
from tracing import TRIAL_STRATEGIES


class CheckError(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Fuzz:
    """The criterion-5 run: one fuzzer seeded with MKEY, a fixed generator
    seed and a fixed exec budget. Its inputs do not depend on --seed: across
    generator seeds this budget's wall time varies fourfold, which would
    hide any change to the layers it measures."""

    EXEC_BUDGET = 20_000
    RNG_SEED = 0
    SEEDS = (b"MKEY",)

    def __init__(self, seed: int, workdir: Path):
        self.ops = len(self.SEEDS) + self.EXEC_BUDGET

    def run(self):
        state = fuzzer.FuzzerState.from_seeds(list(self.SEEDS), targets.MINIKEY,
                                              fuzzer.FuzzConfig(rng_seed=self.RNG_SEED))
        fuzzer.fuzz_loop(state, targets.MINIKEY, self.EXEC_BUDGET)
        return state

    def check(self, state):
        queue = state.queue
        require(state.exec_count == len(self.SEEDS) + self.EXEC_BUDGET,
                f"exec_count {state.exec_count} != seeds + budget")
        require([e.id for e in queue] == list(range(len(queue))), "queue ids are not 0..n-1")
        times = [e.discovered_at for e in queue]
        require(all(a < b for a, b in zip(times, times[1:])),
                "discovered_at does not strictly increase")
        require(times[-1] <= state.exec_count, "discovered_at exceeds exec_count")
        for e in queue:
            if e.origin == "mutation":
                require(e.parent is not None and e.parent < e.id,
                        f"entry {e.id}: parent {e.parent} is not an earlier entry")
        refs = [reference_trace(e.data, state.config.edge_budget) for e in queue]
        for e, ref in zip(queue, refs):
            require((e.trace_length, e.outcome) == (ref.length, ref.outcome),
                    f"entry {e.id}: program ({e.trace_length}, {e.outcome}) != "
                    f"reference ({ref.length}, {ref.outcome})")
        require([e.id for e in state.crashes]
                == [e.id for e, ref in zip(queue, refs) if ref.outcome == "crash"],
                "crashes are not exactly the entries the reference marks as crashes")
        require(fuzzer.replay_audit(queue, targets.MINIKEY, state.config.edge_budget),
                "replay audit failed")
        paths = len({ref.length for ref in refs})
        require(paths == len({e.trace_length for e in queue}),
                "reference and program disagree on the number of distinct lengths")
        fingerprint = _digest((e.id, e.data, e.parent, e.discovered_at, e.trace_length)
                              for e in queue)
        return paths, fingerprint


class Trial:
    """One run_experiment at reduced criterion-8 scale: two phase-1 workers
    from the default seeds, then rand_urandom, rand_corpus and gan. Phase 1
    is long enough for the crash flood (it starts near 100k execs per
    worker); the GAN trains one restart of 100 epochs instead of three of
    200, so that a round fits in about half a minute."""

    PHASE1_EXECS = 110_000
    PHASE2_EXECS = 20_000
    WORKERS = 2
    SAMPLES = 500
    GAN_EPOCHS = 100
    GAN_RESTARTS = 1

    def __init__(self, seed: int, workdir: Path):
        self.plan = experiment.ExperimentPlan(
            phase1_execs=self.PHASE1_EXECS, workers=self.WORKERS,
            phase2_execs=self.PHASE2_EXECS, strategies=TRIAL_STRATEGIES,
            samples_per_strategy=self.SAMPLES, rng_seed=seed,
            gan_epochs=self.GAN_EPOCHS, gan_restarts=self.GAN_RESTARTS)
        n_seeds = len(experiment.default_initial_seeds())
        execs = (self.WORKERS * (n_seeds + self.PHASE1_EXECS)
                 + len(TRIAL_STRATEGIES) * (self.SAMPLES + self.PHASE2_EXECS))
        self.ops = execs + 1 + len(TRIAL_STRATEGIES)  # + GAN training, 3 batches
        self.out = workdir / "trial"
        if self.out.exists():  # left by a run that was killed
            shutil.rmtree(self.out)

    def run(self):
        return self.out, experiment.run_experiment(self.plan, self.out)

    def check(self, outputs):
        out, reports = outputs
        try:
            return self._check(out, reports)
        finally:
            shutil.rmtree(out)

    def _check(self, out: Path, reports):
        dirs = {name: out / "phase1" / name for name in ("worker-00", "worker-01", "merged")}
        dirs.update({s: out / "phase2" / s for s in TRIAL_STRATEGIES})
        stored = {name: read_corpus(path) for name, path in dirs.items()}
        for name, path in dirs.items():
            require(len(corpus.load_corpus(path)) == len(stored[name]),
                    f"{name}: the program's loader reads another entry count")
        lengths = {}  # data -> reference length
        for rows in stored.values():
            for row in rows:
                if row["data"] not in lengths:
                    lengths[row["data"]] = reference_trace(row["data"]).length
                require(row["trace_length"] == lengths[row["data"]],
                        f"{row['name']}: stored length {row['trace_length']} != "
                        f"reference {lengths[row['data']]}")
        training = {lengths[row["data"]] for row in stored["merged"]}
        require(set(reports) == set(TRIAL_STRATEGIES), f"reports for {sorted(reports)}")
        for strategy in TRIAL_STRATEGIES:
            found = [lengths[r["data"]] for r in stored[strategy] if r["origin"] == "mutation"]
            unique = set(found)
            expect = (len(found), len(unique), len(unique - training))
            report = reports[strategy]
            got = (report.seed_count, report.unique_length_count, report.novel_count)
            require(got == expect, f"{strategy}: report {got} != recomputed {expect}")
            require(0 <= got[2] <= got[1] <= got[0], f"{strategy}: counts out of order {got}")
        rows = [r for name in ("merged", *TRIAL_STRATEGIES) for r in stored[name]]
        paths = len({lengths[r["data"]] for r in rows})
        require(paths == len({r["trace_length"] for r in rows}),
                "reference and program disagree on the number of distinct lengths")
        fingerprint = _digest(
            [(r["name"], r["sha256"]) for rows in stored.values() for r in rows]
            + [(s, reports[s].seed_count, reports[s].unique_length_count)
               for s in TRIAL_STRATEGIES])
        return paths, fingerprint


class Models:
    """GAN and LSTM training on a corpus of well-formed minikey files, with
    ExperimentPlan's default settings, then 500 seeds from each of the four
    strategies, each run once through the target.

    The corpus and every generator seed come from the benchmark's own seed,
    not from --seed. Only LSTM samples get past the magic check, and the path
    count rests on them. The corpus is large enough for a dozen or so to pass
    (11 at corpus seed 0, 20 at seed 1), so that a worse model shows as fewer
    paths; on smaller corpora the count sits at its floor of 1 on most seeds.
    """

    FILES = 1536
    SAMPLES = 500
    SEED = 0

    def __init__(self, seed: int, workdir: Path):
        self.corpus = models_corpus(self.SEED, self.FILES)
        self.ops = 2 + 4 + 4 * self.SAMPLES  # trainings, batches, executions
        # Reference values, computed apart from the program.
        self.gan_len = max(16, min(256, statistics.median_high(len(f) for f in self.corpus)))
        counts = Counter(b"".join(self.corpus))
        total = sum(counts.values())
        self.entropy = -sum(c / total * math.log(c / total) for c in counts.values())
        padded = np.array([list(f[: self.gan_len].ljust(self.gan_len, b"\0"))
                           for f in self.corpus], dtype=np.float64)
        self.position_means = padded.mean(axis=0)
        self.corpus_bytes = set(counts)

    def run(self):
        plan = experiment.ExperimentPlan()
        base = self.SEED * 1000 + 500
        gan_model = gan.train_gan(self.corpus, gan.GanConfig(
            epochs=plan.gan_epochs, batch_size=plan.gan_batch_size, g_lr=plan.gan_g_lr,
            d_lr=plan.gan_d_lr, anneal_after_epoch=plan.gan_anneal_after,
            anneal_factor=plan.gan_anneal_factor, restarts=plan.gan_restarts,
            rng_seed=base))
        lstm_config = lstm.LstmConfig(hidden_width=plan.lstm_hidden,
                                      dense_width=plan.lstm_hidden,
                                      epochs=plan.lstm_epochs, rng_seed=base + 1)
        lstm_model = lstm.train_lstm(self.corpus, lstm_config)
        length = synth.median_seed_length(self.corpus)
        batches = [
            gan.gan_generate(gan_model, self.SAMPLES, base + 2),
            lstm.lstm_generate(lstm_model, self.SAMPLES, plan.temperature, self.corpus,
                               base + 3),
            synth.random_from_corpus(self.corpus, self.SAMPLES, length, base + 4),
            synth.random_urandom(self.SAMPLES, length, base + 5),
        ]
        runs = {b.strategy: [targets.execute(targets.MINIKEY, s) for s in b.seeds]
                for b in batches}
        return {b.strategy: b.seeds for b in batches}, runs, lstm_model, lstm_config

    def check(self, outputs):
        seeds, runs, lstm_model, lstm_config = outputs
        require(set(seeds) == set(synth.STRATEGIES), f"strategies {sorted(seeds)}")
        for strategy, batch in seeds.items():
            require(len(batch) == self.SAMPLES,
                    f"{strategy}: {len(batch)} seeds, asked for {self.SAMPLES}")
        require(all(len(s) == self.gan_len for s in seeds["gan"]),
                f"GAN seeds are not {self.gan_len} bytes long")
        require(all(len(s) == lstm_config.max_gen_len for s in seeds["lstm"]),
                f"LSTM seeds are not {lstm_config.max_gen_len} bytes long")
        require(set(b"".join(seeds["rand_corpus"])) <= self.corpus_bytes,
                "rand_corpus drew a byte that is not in the corpus")

        size = sum(len(f) for f in self.corpus)
        windows = len(range(0, size - lstm_config.window, lstm_config.stride))
        per_epoch = -(-windows // lstm_config.batch_size)
        require(len(lstm_model.losses) == per_epoch * lstm_config.epochs,
                "LSTM loss curve does not have one value per batch")
        last_epoch = float(np.mean(lstm_model.losses[-per_epoch:]))
        require(last_epoch < self.entropy,
                f"LSTM last-epoch loss {last_epoch:.3f} is not below the corpus's "
                f"unigram entropy {self.entropy:.3f} nats")
        gan_error = _position_error(seeds["gan"], self.position_means)
        uniform_error = _position_error(seeds["rand_urandom"], self.position_means)
        require(gan_error < uniform_error,
                f"GAN per-position error {gan_error:.2f} is not below uniform "
                f"random bytes' {uniform_error:.2f}")

        ref_lengths = set()
        program_lengths = set()
        for strategy, batch in seeds.items():
            for data, result in zip(batch, runs[strategy], strict=True):
                ref = reference_trace(data)
                require((result.trace_length, result.trace.outcome) == (ref.length, ref.outcome),
                        f"{strategy} seed: program ({result.trace_length}, "
                        f"{result.trace.outcome}) != reference ({ref.length}, {ref.outcome})")
                ref_lengths.add(ref.length)
                program_lengths.add(result.trace_length)
        require(len(ref_lengths) == len(program_lengths),
                "reference and program disagree on the number of distinct lengths")
        fingerprint = _digest([*(s for k in sorted(seeds) for s in seeds[k]), lstm_model.losses])
        return len(ref_lengths), fingerprint


def _position_error(batch: list[bytes], means: np.ndarray) -> float:
    """Mean over positions of |batch's mean byte - corpus's mean byte|."""
    values = np.array([list(s) for s in batch], dtype=np.float64)
    return float(np.abs(values.mean(axis=0) - means).mean())


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def models_corpus(seed: int, files: int) -> list[bytes]:
    """Well-formed minikey files whose layout depends only on their index
    (so total size, median length and trace lengths do not depend on the
    seed) and whose payload bytes and order come from the seed.

    File i has version 1 + i % 2 and i % 4 records. Record j is, by
    (i + j) % 3, a key of 4 + (i + 3j) % 9 random bytes, a label of
    2 + (i + j) % 7 lowercase letters, or a nested list holding a key of
    j + 1 random bytes and a label of 3 letters. No key is empty, so no
    file reaches the planted crash.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def key(n):
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()

    def label(n):
        return rng.integers(ord("a"), ord("z") + 1, n, dtype=np.uint8).tobytes()

    out = []
    for i in range(files):
        records = []
        for j in range(i % 4):
            kind = (i + j) % 3
            if kind == 0:
                records.append(_record(1, key(4 + (i + 3 * j) % 9)))
            elif kind == 1:
                records.append(_record(2, label(2 + (i + j) % 7)))
            else:
                records.append(_record(3, _record(1, key(j + 1)) + _record(2, label(3))))
        out.append(_minikey_file(1 + i % 2, records))
    return [out[k] for k in rng.permutation(files)]


def _record(kind: int, payload: bytes) -> bytes:
    return bytes([kind]) + len(payload).to_bytes(2, "little") + payload


def _minikey_file(version: int, records: list[bytes]) -> bytes:
    body = b"MKEY" + bytes([version]) + len(records).to_bytes(2, "little") + b"".join(records)
    checksum = 0
    for b in body:
        checksum ^= b
    return body + bytes([checksum])


def read_corpus(path: Path) -> list[dict]:
    """Read a persisted corpus from its documented layout, checking that the
    manifest and the payload files match one to one and every payload's
    sha256."""
    lines = (path / "manifest.tsv").read_text().splitlines()
    require(lines[0].split("\t") == ["worker", "id", "origin", "discovered_at",
                                     "trace_length", "sha256"],
            f"{path}: unexpected manifest header")
    rows = []
    for line in lines[1:]:
        worker, ident, origin, discovered, length, digest = line.split("\t")
        name = (f"queue/{int(worker):05d}/id-{int(ident):06d},src-{origin},"
                f"time-{int(discovered):020d}")
        data = (path / name).read_bytes()
        require(hashlib.sha256(data).hexdigest() == digest, f"{path / name}: hash mismatch")
        require(length != "", f"{path / name}: no stored trace length")
        rows.append({"name": name, "data": data, "origin": origin,
                     "trace_length": int(length), "sha256": digest})
    on_disk = {str(p.relative_to(path)) for p in (path / "queue").rglob("*") if p.is_file()}
    require(on_disk == {r["name"] for r in rows},
            f"{path}: payload files and manifest rows differ")
    return rows


WORKLOADS = {"fuzz": Fuzz, "trial": Trial, "models": Models}

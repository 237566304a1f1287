"""Spans around calls into ganfuzz's layers, recorded from outside the program.

`Tracer.install()` replaces module and class attributes of the package with
wrappers that record one span per call (name, start, end, parent) and a few
counts; `uninstall()` puts the originals back. Spans are kept in memory and
written out once, when the run ends. The end-to-end figures never come from
a traced run: the wrappers cost about a microsecond a call.

Span storage is allocated in fixed chunks that are never resized or freed
while the program runs, so recording a span never copies the ones before it.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

import ganfuzz.corpus as corpus
import ganfuzz.experiment as experiment
import ganfuzz.fuzzer as fuzzer
import ganfuzz.gan as gan
import ganfuzz.lstm as lstm
import ganfuzz.nn as nn
import ganfuzz.synth as synth
import ganfuzz.targets as targets
from ganfuzz.coverage import CoverageMap
from ganfuzz.synth import STRATEGIES
from minikey_ref import reference_trace

# The strategies the trial workload compares in phase 2.
TRIAL_STRATEGIES = ("rand_urandom", "rand_corpus", "gan")


CHUNK = 1 << 20  # spans per storage chunk


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.count = 0  # spans recorded
        # Per chunk: name id, parent index, start and end (perf_counter s).
        self._chunks: list[tuple[array, array, array, array]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Which mutation stage produced the candidate being executed.
        self.stage: str | None = None
        self.counts: dict[str, float] = {}
        # Return values and arguments the per-layer metrics need.
        self.states: list = []
        self.batches: dict[str, list[bytes]] = {}
        self.gan_runs: list = []
        self.lstm_runs: list = []
        self.reports: dict | None = None
        self._fuzzer_depth = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = self.count
        row = index % CHUNK
        if row == 0:
            self._chunks.append((array("i", [0]) * CHUNK, array("i", [0]) * CHUNK,
                                 array("d", [0.0]) * CHUNK, array("d", [0.0]) * CHUNK))
        name_of, parent, start, _ = self._chunks[-1]
        self.count += 1
        name_of[row] = nid
        parent[row] = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start[row] = time.perf_counter()
        return index

    def _close(self, index: int) -> float:
        t = time.perf_counter()
        _, _, start, end = self._chunks[index // CHUNK]
        row = index % CHUNK
        end[row] = t
        self._stack.pop()
        return t - start[row]

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, parents, starts, ends) of every span, as arrays."""
        columns = []
        for k in range(4):
            parts = [np.frombuffer(chunk[k], dtype=np.int32 if k < 2 else np.float64)
                     for chunk in self._chunks]
            columns.append(np.concatenate(parts)[: self.count] if parts
                           else np.zeros(0, np.int32 if k < 2 else np.float64))
        return tuple(columns)

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name: str, fn, after=None, stage: str | None = "keep"):
        """Wrap fn in a span; `after(args, kwargs, result, seconds)` runs
        after the span closes. A stage other than "keep" is set for the
        call's duration."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = tracer.stage
            if stage != "keep":
                tracer.stage = stage
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer._close(index)
                if stage != "keep":
                    tracer.stage = saved
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return wrapper

    def _fuzzer_call(self, name: str, fn, stage: str | None = "keep", after=None):
        """A span that also counts toward fuzzer.execs_per_s: its target
        executions, over the time of the outermost such call."""
        inner = self._spanned(name, fn, stage=stage, after=after)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._fuzzer_depth += 1
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._fuzzer_depth -= 1
                if tracer._fuzzer_depth == 0:
                    tracer._add("fuzzer.time", time.perf_counter() - start)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        t = self

        # targets: every binding of execute the package calls through.
        def after_execute(args, kwargs, result, seconds):
            t._add("targets.edges", result.trace_length)
            if t._fuzzer_depth:
                t._add("fuzzer.execs", 1)
            if t.stage in ("det", "havoc"):
                t._add(f"{t.stage}.execs", 1)
                t._add(f"{t.stage}.s", seconds)

        execute = self._spanned("targets.execute", targets.execute, after=after_execute)
        for module in (targets, fuzzer, corpus):
            self._patch(module, "execute", execute)

        # coverage
        def after_update(args, kwargs, novel, seconds):
            t._add("coverage.novel", int(novel))
            if t.stage in ("det", "havoc"):
                t._add(f"{t.stage}.s", seconds)

        self._patch(CoverageMap, "update",
                    self._spanned("coverage.update", CoverageMap.update, after=after_update))

        # fuzzer: mutation stages, the loop, seeding and workers.
        def after_havoc(args, kwargs, result, seconds):
            t.stage = "havoc"
            t._add("havoc.s", seconds)

        self._patch(fuzzer, "havoc", self._spanned("fuzzer.havoc", fuzzer.havoc, after=after_havoc))
        self._patch(fuzzer, "deterministic_mutations",
                    self._det_stage(fuzzer.deterministic_mutations))
        loop = self._fuzzer_call("fuzzer.fuzz_loop", fuzzer.fuzz_loop)
        reinit = self._fuzzer_call("fuzzer.reinitialize", fuzzer.reinitialize, stage="seed")
        workers = self._fuzzer_call("fuzzer.run_workers", fuzzer.run_workers)
        for module in (fuzzer, experiment):
            self._patch(module, "fuzz_loop", loop)
            self._patch(module, "reinitialize", reinit)
            self._patch(module, "run_workers", workers)
        from_seeds = fuzzer.FuzzerState.from_seeds.__func__
        seeded = self._fuzzer_call(
            "fuzzer.from_seeds", from_seeds, stage="seed",
            after=lambda a, k, state, s: t.states.append(state))
        self._patch(fuzzer.FuzzerState, "from_seeds", classmethod(seeded))

        # corpus
        def after_save(args, kwargs, result, seconds):
            seeds = args[1]
            t._add("corpus.save.entries", len(seeds))
            t._add("corpus.save.bytes", sum(len(s.data) for s in seeds))

        def after_load(args, kwargs, result, seconds):
            t._add("corpus.load.entries", len(result))

        for attr, after in (("save_corpus", after_save), ("load_corpus", after_load),
                            ("merge", None), ("dedup_content", None),
                            ("dedup_by_length", None), ("ensure_trace_lengths", None)):
            self._patch(corpus, attr, self._spanned(f"corpus.{attr}", getattr(corpus, attr),
                                                    after=after, stage="corpus"))

        # synth, gan, lstm: wrapped where defined and where experiment
        # imported them.
        def keep_batch(args, kwargs, batch, seconds):
            t.batches[batch.strategy] = batch.seeds

        wrapped = {
            "random_from_corpus": (synth, "synth.rand_corpus", keep_batch),
            "random_urandom": (synth, "synth.rand_urandom", keep_batch),
            "train_gan": (gan, "gan.train",
                          lambda a, k, model, s: t.gan_runs.append((a[1], model, s))),
            "gan_generate": (gan, "gan.generate", keep_batch),
            "train_lstm": (lstm, "lstm.train",
                           lambda a, k, model, s: t.lstm_runs.append((a[0], a[1], model, s))),
            "lstm_generate": (lstm, "lstm.generate", keep_batch),
        }
        for attr, (home, name, after) in wrapped.items():
            wrapper = self._spanned(name, getattr(home, attr), after=after)
            self._patch(home, attr, wrapper)
            self._patch(experiment, attr, wrapper)
        self._patch(experiment, "_make_batch",
                    self._spanned("experiment.make_batch", experiment._make_batch))

        def keep_reports(args, kwargs, reports, seconds):
            t.reports = reports

        self._patch(experiment, "run_experiment",
                    self._spanned("experiment.run", experiment.run_experiment,
                                  after=keep_reports))

        # nn: dense layers, losses and optimizer steps.
        self._patch(nn.DenseLayer, "forward",
                    self._spanned("nn.forward", nn.DenseLayer.forward))
        self._patch(nn.DenseLayer, "backward",
                    self._spanned("nn.backward", nn.DenseLayer.backward))
        self._patch(nn, "loss_and_grad", self._spanned("nn.loss", nn.loss_and_grad))
        for opt in (nn.Sgd, nn.Adam, nn.RmsProp):
            self._patch(opt, "step", self._spanned("nn.step", opt.step))

    def _det_stage(self, fn):
        """Deterministic stage: one span per candidate generated."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(data, max_bytes):
            candidates = fn(data, max_bytes)
            while True:
                index = tracer._open("fuzzer.det")
                try:
                    candidate = next(candidates)
                except StopIteration:
                    return
                finally:
                    tracer._add("det.s", tracer._close(index))
                tracer.stage = "det"
                yield candidate

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def span_table(self):
        """(name ids, parents, durations, self times, starts) arrays."""
        name_of, parent, start, end = self.spans()
        dur = end - start
        child = parent >= 0
        children = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return name_of, parent, dur, dur - children, start

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced round, by name: (value, unit)."""
        name_of, parent, dur, self_time, start = self.span_table()
        ids = self._name_ids
        counts = self.counts

        def where(*names):
            mask = np.zeros(len(dur), dtype=bool)
            for name in names:
                if name in ids:
                    mask |= name_of == ids[name]
            return mask

        def seconds(*names, table=dur):
            return float(table[where(*names)].sum())

        def calls(name):
            return int(where(name).sum())

        out: dict[str, tuple[float, str]] = {}
        out["targets.execute.calls"] = (calls("targets.execute"), "count")
        out["targets.execute.s"] = (seconds("targets.execute"), "s")
        out["targets.edges"] = (counts.get("targets.edges", 0), "count")

        cells = 0
        if self.states:
            occupied = np.zeros_like(self.states[0].coverage.cells)
            for state in self.states:
                occupied |= state.coverage.cells
            cells = int(np.count_nonzero(occupied))
        out["coverage.update.calls"] = (calls("coverage.update"), "count")
        out["coverage.update.s"] = (seconds("coverage.update"), "s")
        out["coverage.novel"] = (counts.get("coverage.novel", 0), "count")
        out["coverage.cells_set"] = (cells, "count")

        fuzz_time = counts.get("fuzzer.time", 0.0)
        out["fuzzer.execs_per_s"] = (
            counts.get("fuzzer.execs", 0) / fuzz_time if fuzz_time else 0.0, "1/s")
        for stage in ("det", "havoc"):
            out[f"fuzzer.{stage}.execs"] = (counts.get(f"{stage}.execs", 0), "count")
            out[f"fuzzer.{stage}.s"] = (counts.get(f"{stage}.s", 0.0), "s")
        out["fuzzer.loop.self_s"] = (seconds("fuzzer.fuzz_loop", table=self_time), "s")
        entries = sum(len(s.queue) for s in self.states)
        crashes = sum(len(s.crashes) for s in self.states)
        admitted = sum(e.origin == "mutation" for s in self.states for e in s.queue)
        loop_execs = sum(s.exec_count - sum(e.origin == "initial" for e in s.queue)
                         for s in self.states)
        out["fuzzer.queue.entries"] = (entries, "count")
        out["fuzzer.queue.crashes"] = (crashes, "count")
        out["fuzzer.queue.crash_share"] = (crashes / entries if entries else 0.0, "ratio")
        out["fuzzer.admit_ratio"] = (admitted / loop_execs if loop_execs else 0.0, "ratio")
        overlap = 0.0
        if len(self.states) >= 2:
            first = {e.data for e in self.states[0].queue}
            second = self.states[1].queue
            overlap = sum(e.data in first for e in second) / len(second)
        out["fuzzer.workers.overlap"] = (overlap, "ratio")

        out["corpus.save.s"] = (seconds("corpus.save_corpus"), "s")
        out["corpus.save.entries"] = (counts.get("corpus.save.entries", 0), "count")
        out["corpus.save.bytes"] = (counts.get("corpus.save.bytes", 0), "bytes")
        out["corpus.load.s"] = (seconds("corpus.load_corpus"), "s")
        out["corpus.load.entries"] = (counts.get("corpus.load.entries", 0), "count")
        out["corpus.merge.self_s"] = (seconds("corpus.merge", table=self_time), "s")
        out["corpus.dedup.s"] = (seconds("corpus.dedup_content", "corpus.dedup_by_length"), "s")

        out["synth.rand_corpus.s"] = (seconds("synth.rand_corpus"), "s")
        out["synth.rand_urandom.s"] = (seconds("synth.rand_urandom"), "s")
        for strategy in STRATEGIES:
            refs = [reference_trace(seed) for seed in self.batches.get(strategy, ())]
            out[f"{strategy}.past_magic"] = (sum(r.past_magic for r in refs), "count")
            out[f"{strategy}.to_checksum"] = (sum(r.to_checksum for r in refs), "count")

        gan_epochs = sum(c.epochs * c.restarts for c, _, _ in self.gan_runs)
        score = self.gan_runs[-1][1].moment_score if self.gan_runs else 0.0
        out["gan.train.s"] = (seconds("gan.train"), "s")
        out["gan.epoch.s"] = (seconds("gan.train") / gan_epochs if gan_epochs else 0.0, "s")
        out["gan.generate.s"] = (seconds("gan.generate"), "s")
        # The score is infinite when no checkpoint was scored (no anneal).
        out["gan.moment_score"] = (float(score) if np.isfinite(score) else 0.0, "score")

        lstm_epochs = sum(c.epochs for _, c, _, _ in self.lstm_runs)
        windows = 0
        final_loss = 0.0
        for train_corpus, config, model, _ in self.lstm_runs:
            size = sum(len(getattr(item, "data", item)) for item in train_corpus)
            per_epoch = len(range(0, size - config.window, config.stride))
            windows += per_epoch
            batches = -(-per_epoch // config.batch_size)
            final_loss = float(np.mean(model.losses[-batches:]))
        out["lstm.train.s"] = (seconds("lstm.train"), "s")
        out["lstm.epoch.s"] = (seconds("lstm.train") / lstm_epochs if lstm_epochs else 0.0, "s")
        out["lstm.recurrence.self_s"] = (seconds("lstm.train", table=self_time), "s")
        out["lstm.windows"] = (windows, "count")
        out["lstm.generate.s"] = (seconds("lstm.generate"), "s")
        out["lstm.final_loss"] = (final_loss, "nats")

        out["nn.forward.calls"] = (calls("nn.forward"), "count")
        out["nn.forward.s"] = (seconds("nn.forward"), "s")
        out["nn.backward.s"] = (seconds("nn.backward"), "s")
        out["nn.step.s"] = (seconds("nn.step"), "s")

        out.update(self._experiment_metrics(name_of, parent, dur, start))
        return out

    def _experiment_metrics(self, name_of, parent, dur, start):
        """Phase split of run_experiment, from the direct children of its span.

        Phase 1 is run_workers; saving and merging is every corpus call
        before the first strategy's batch is made; training is the model
        training calls; phase 2 is every other call after that point
        (reinitialization, the phase-2 fuzz loop and its corpus save).
        """
        out = {f"experiment.{p}.s": (0.0, "s")
               for p in ("phase1", "save_merge", "train", "phase2")}
        for strategy in TRIAL_STRATEGIES:
            report = (self.reports or {}).get(strategy)
            out[f"experiment.phase2.{strategy}.paths"] = (
                report.unique_length_count if report else 0, "count")
            out[f"experiment.phase2.{strategy}.novel"] = (
                report.novel_count if report else 0, "count")
        ids = self._name_ids
        if "experiment.run" not in ids:
            return out
        run = np.flatnonzero(name_of == ids["experiment.run"])
        direct = np.isin(parent, run)
        make_batch = name_of == ids["experiment.make_batch"]
        t_batch = start[make_batch].min()
        corpus_ids = [i for n, i in ids.items() if n.startswith("corpus.")]
        is_corpus = np.isin(name_of, corpus_ids)
        train = np.isin(name_of, [ids[n] for n in ("gan.train", "lstm.train") if n in ids])
        out["experiment.phase1.s"] = (float(dur[direct & (name_of == ids["fuzzer.run_workers"])].sum()), "s")
        out["experiment.save_merge.s"] = (float(dur[direct & is_corpus & (start < t_batch)].sum()), "s")
        out["experiment.train.s"] = (float(dur[train].sum()), "s")
        out["experiment.phase2.s"] = (float(dur[direct & ~make_batch & (start >= t_batch)].sum()), "s")
        return out


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Every round's spans in one .npz: round number, span name (an index
    into `names`), parent (a row in the same round, -1 for none), and start
    and end in seconds on the perf_counter clock."""
    names = sorted({n for t in tracers for n in t.names})
    ids = {n: i for i, n in enumerate(names)}
    columns = [t.spans() for t in tracers]
    np.savez(
        path,
        names=np.array(names),
        round=np.concatenate([np.full(t.count, i, np.int32) for i, t in enumerate(tracers)]),
        name=np.concatenate([np.array([ids[n] for n in t.names], np.int32)[c[0]]
                             for t, c in zip(tracers, columns)]),
        parent=np.concatenate([c[1] for c in columns]),
        start=np.concatenate([c[2] for c in columns]),
        end=np.concatenate([c[3] for c in columns]),
    )

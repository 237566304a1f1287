"""Unit tests for metrics formulas, plan files, and the orchestrated run."""

import hashlib
import multiprocessing
import os
import signal
import time
from dataclasses import replace

import pytest

import ganfuzz.experiment as experiment
import ganfuzz.gan as gan
from ganfuzz.corpus import SeedFile, merge
from ganfuzz.errors import UsageError
from ganfuzz.experiment import (
    ExperimentPlan,
    StrategyReport,
    compute_report,
    discounted_rate,
    dump_plan,
    format_reports_text,
    format_reports_tsv,
    load_plan,
    mean_length_ratio,
    relative_rate,
    run_experiment,
)
from ganfuzz.targets import MINIKEY, TargetProgram

from oracles import no_fork


def _seeds_with_lengths(total, distinct):
    """`total` analyzed seeds exhibiting exactly `distinct` trace lengths."""
    out = []
    for i in range(total):
        length = (i % distinct) + 1
        out.append(SeedFile(data=b"x", id=i, origin="m", discovered_at=i,
                            trace_length=length))
    return out


def _report(strategy="s", count=1, unique=1, novel=0, mean=0.0,
            secs_per_path=0.0, train_wall=0.0):
    wall = secs_per_path * count
    return StrategyReport.from_counts(strategy, count, unique, novel_count=novel,
                                      mean_length=mean, execs=0, wall=wall,
                                      train_wall=train_wall)


# Published reference values: (computed, printed). Tolerance is one unit in
# the printed value's last digit, the tightest claim its precision supports.
def _close(value, printed):
    digits = len(str(printed).split(".")[1])
    assert abs(value - printed) < 10.0 ** -digits, (value, printed)


class TestUniqueFractionFixtures:
    @pytest.mark.parametrize("total,distinct,printed", [
        (38384, 31212, 0.813),
        (19824, 485, 0.024),
        (20000, 1921, 0.096),
        (20000, 119, 0.006),
    ])
    def test_fixture(self, total, distinct, printed):
        report = compute_report(_seeds_with_lengths(total, distinct), set())
        assert report.seed_count == total
        assert report.unique_length_count == distinct
        _close(report.unique_fraction, printed)


class TestRateFixtures:
    def test_wall_clock_rates(self):
        urandom = _report("rand_urandom", count=1000, secs_per_path=214.478)
        gan = _report("gan", count=1000, secs_per_path=191.893)
        lstm = _report("lstm", count=1000, secs_per_path=197.130)
        _close(relative_rate(gan, urandom, equal_wall=False), 1.11)
        _close(relative_rate(lstm, urandom, equal_wall=False), 1.08)

    def test_equal_wall_count_rates(self):
        rand = _report("rand", count=780, unique=778, novel=682)
        gan = _report("gan", count=891, unique=837, novel=724)
        lstm = _report("lstm", count=600, unique=555, novel=481)
        _close(relative_rate(gan, rand, "unique_length_count"), 1.0758)
        _close(relative_rate(gan, rand, "novel_count"), 1.0616)
        _close(relative_rate(lstm, rand, "unique_length_count"), 0.713)
        _close(relative_rate(lstm, rand, "novel_count"), 0.7053)
        _close(relative_rate(gan, rand, "seed_count"), 1.1423)

    def test_mean_length_ratio(self):
        rand = _report("rand", mean=25.373e6)
        gan = _report("gan", mean=28.885e6)
        _close(mean_length_ratio(gan, rand), 1.1384)

    def test_training_time_discounted_rate(self):
        # Charging the GAN its 0.5 h of training against a 24 h window:
        # (891/24.5)/(780/24) = 1.119; the published 11.85% figure is within
        # half a unit of the third decimal under this discount convention.
        rand = _report("rand", count=780)
        gan = _report("gan", count=891, train_wall=0.5)
        assert round(discounted_rate(gan, rand, wall=24.0), 3) == 1.119

    def test_relative_rate_identity(self):
        r = _report("x", count=7, unique=5, novel=3)
        for metric in ("seed_count", "unique_length_count", "novel_count"):
            assert relative_rate(r, r, metric) == 1.0

    def test_rate_errors(self):
        r = _report("x", count=7)
        with pytest.raises(UsageError):
            relative_rate(r, r, "bogus_metric")
        with pytest.raises(UsageError):
            relative_rate(r, _report("y", count=1, novel=0), "novel_count")
        with pytest.raises(UsageError):
            relative_rate(r, r, equal_wall=False)  # no wall times recorded
        with pytest.raises(UsageError):
            mean_length_ratio(r, r)  # zero baseline mean


class TestComputeReport:
    def test_identities(self):
        seeds = _seeds_with_lengths(100, 37)
        report = compute_report(seeds, training_lengths={1, 2, 3})
        assert report.unique_length_count == 37
        assert abs(report.unique_fraction * report.seed_count - 37) < 1e-9
        assert report.novel_count == 34
        assert report.novel_count <= report.unique_length_count <= report.seed_count

    def test_stats_over_unique_length_representatives(self):
        seeds = _seeds_with_lengths(10, 2)  # lengths {1, 2}, populations unequal
        report = compute_report(seeds, set())
        assert report.mean_length == 1.5
        assert report.std_length == 0.5  # population formula

    def test_empty_seed_list_raises(self):
        with pytest.raises(UsageError):
            compute_report([], set())

    def test_zero_count_report(self):
        r = StrategyReport.from_counts("gan", 0, 0, train_wall=1.5)
        assert (r.seed_count, r.unique_length_count, r.unique_fraction, r.novel_count) == \
            (0, 0, 0.0, 0)
        assert (r.execs_per_path, r.wall_secs_per_path, r.train_wall_secs) == (0.0, 0.0, 1.5)

    @pytest.mark.parametrize("counts", [(-1, 0, 0), (1, -1, 0), (1, 1, -1)])
    def test_negative_counts_raise(self, counts):
        seeds, unique, novel = counts
        with pytest.raises(UsageError):
            StrategyReport.from_counts("gan", seeds, unique, novel_count=novel)

    def test_unanalyzed_seed_raises(self):
        seeds = [SeedFile(data=b"x", id=0, origin="m", discovered_at=0)]
        with pytest.raises(UsageError):
            compute_report(seeds, set())


class TestPlans:
    def test_round_trip(self, tmp_path):
        plan = ExperimentPlan(phase1_execs=1234, strategies=("gan", "continue"),
                              temperature=0.7)
        path = tmp_path / "plan.cfg"
        path.write_text(dump_plan(plan))
        assert load_plan(path) == plan

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "plan.cfg"
        path.write_text("# comment\n\nphase1_execs = 99  # inline\n")
        assert load_plan(path).phase1_execs == 99

    def test_unknown_key_raises(self, tmp_path):
        path = tmp_path / "plan.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(UsageError, match="warp_speed"):
            load_plan(path)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "plan.cfg"
        path.write_text("just some words\n")
        with pytest.raises(UsageError, match="key = value"):
            load_plan(path)

    def test_validation(self):
        with pytest.raises(UsageError):
            ExperimentPlan(strategies=())
        with pytest.raises(UsageError):
            ExperimentPlan(strategies=("teleport",))
        with pytest.raises(UsageError):
            ExperimentPlan(reinit_mode="sideways")
        with pytest.raises(UsageError):
            ExperimentPlan(phase2_execs=0)


_MICRO_PLAN = ExperimentPlan(
    phase1_execs=3000, workers=2, phase2_execs=2000,
    strategies=("continue", "rand_urandom", "rand_corpus", "lstm", "gan"),
    samples_per_strategy=20, rng_seed=0,
    gan_epochs=10, gan_batch_size=32, gan_anneal_after=0, gan_restarts=1,
    lstm_epochs=1, lstm_hidden=16,
)


# SHA-256 of repr(_corpus_artifacts(run dir)) for _MICRO_PLAN, computed
# before payloads were shared through hard links.
GOLDEN_RUN_ARTIFACTS_SHA256 = "808883ca0cf1b3588f33dd72f03f73cc690db32a378437da3e36ab3c3facaed6"


def _corpus_artifacts(run_dir):
    """(corpus dir, manifest text) and (corpus dir, payload name, sha256) rows."""
    rows = []
    for manifest in sorted(run_dir.rglob("manifest.tsv")):
        d = manifest.parent
        rel = d.relative_to(run_dir).as_posix()
        rows.append((rel, "manifest.tsv", manifest.read_text()))
        for p in sorted((d / "queue").rglob("*")):
            if p.is_file():
                rows.append((rel, p.relative_to(d).as_posix(),
                             hashlib.sha256(p.read_bytes()).hexdigest()))
    return rows


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "run"
    reports = run_experiment(_MICRO_PLAN, out)
    return out, reports


def _virtual_columns(tsv: str) -> str:
    """Tables minus the two wall-clock columns, which legitimately vary."""
    lines = []
    for line in tsv.splitlines():
        cells = line.split("\t")
        if len(cells) == 10:  # strategy rows: drop wall and train wall
            cells = cells[:8]
        lines.append("\t".join(cells))
    return "\n".join(lines)


class TestRunExperiment:
    def test_emits_one_report_per_strategy(self, run):
        _, reports = run
        assert set(reports) == set(_MICRO_PLAN.strategies)

    def test_artifact_layout(self, run):
        out, _ = run
        assert (out / "phase1" / "worker-00" / "manifest.tsv").exists()
        assert (out / "phase1" / "merged" / "manifest.tsv").exists()
        assert (out / "models" / "gan.bin").exists()
        assert (out / "models" / "lstm.bin").exists()
        for strategy in _MICRO_PLAN.strategies:
            assert (out / "phase2" / strategy / "manifest.tsv").exists()
        assert (out / "report" / "tables.tsv").exists()
        assert (out / "report" / "tables.txt").exists()
        assert (out / "report" / "plan.cfg").exists()

    def test_merged_corpus_equals_disk_merge_of_workers(self, run, tmp_path):
        # Phase 1 merges in memory; the saved corpus must be byte for byte
        # the one `merge` builds from the saved worker corpora.
        out, _ = run
        phase1 = out / "phase1"
        workers = sorted(phase1.glob("worker-*"))
        assert len(workers) == _MICRO_PLAN.workers
        merge(workers, out=tmp_path / "merged")

        def tree(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        assert tree(phase1 / "merged") == tree(tmp_path / "merged")

    def test_golden_corpus_artifacts(self, run):
        out, _ = run
        rows = _corpus_artifacts(out)
        assert len(rows) == 164
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == GOLDEN_RUN_ARTIFACTS_SHA256

    def test_each_distinct_payload_is_one_file(self, run):
        out, _ = run
        payloads = [p for p in out.rglob("id-*") if p.is_file()]
        assert len(payloads) == 156
        inodes = {p.stat().st_ino for p in payloads}
        digests = {hashlib.sha256(p.read_bytes()).digest() for p in payloads}
        assert len(inodes) == len(digests) == 99

    def test_plan_echo_round_trips(self, run):
        out, _ = run
        assert load_plan(out / "report" / "plan.cfg") == _MICRO_PLAN

    def test_determinism(self, run, tmp_path):
        # Byte-identical up to wall-clock columns; every count, length, and
        # virtual-time figure must reproduce exactly.
        out, _ = run
        run_experiment(_MICRO_PLAN, tmp_path / "again")
        again = (tmp_path / "again" / "report" / "tables.tsv").read_text()
        first = (out / "report" / "tables.tsv").read_text()
        assert _virtual_columns(again) == _virtual_columns(first)

    def test_refuses_nonempty_out_dir(self, run):
        out, _ = run
        with pytest.raises(UsageError):
            run_experiment(_MICRO_PLAN, out)

    def test_report_invariants(self, run):
        _, reports = run
        for r in reports.values():
            assert r.novel_count <= r.unique_length_count <= max(r.seed_count, 0)
            assert r.std_length >= 0.0


def _golden_digest(out):
    return hashlib.sha256(repr(_corpus_artifacts(out)).encode()).hexdigest()


def _virtual_reports(reports):
    """Reports minus their wall-clock fields, which legitimately vary."""
    return {name: replace(r, wall_secs_per_path=0.0, train_wall_secs=0.0)
            for name, r in reports.items()}


def _run_files(out):
    """SHA-256 of every corpus and model file of a run, by relative path."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for sub in ("phase1", "phase2", "models") for p in (out / sub).rglob("*")
            if p.is_file()}


# "gan" is not first, so its phase-2 child forks the GAN's restarts 1 and 2.
_NESTED_PLAN = ExperimentPlan(phase1_execs=2000, phase2_execs=500,
                              strategies=("rand_urandom", "gan"), gan_restarts=3,
                              gan_epochs=5, samples_per_strategy=20)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestPhase2Processes:
    """Strategies after the first run in forked children; none may outlive
    run_experiment, and every artifact is the one a single process writes."""

    def test_failed_phase2_save_reaches_caller_and_reaps_children(self, tmp_path,
                                                                  monkeypatch):
        save = experiment.corpus_store.save_corpus
        failing = tmp_path / "run" / "phase2" / _MICRO_PLAN.strategies[1]

        def save_or_fail(path, *args, **kwargs):
            if path == failing:
                raise OSError("disk full")
            return save(path, *args, **kwargs)

        monkeypatch.setattr(experiment.corpus_store, "save_corpus", save_or_fail)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(_MICRO_PLAN, tmp_path / "run")
        assert multiprocessing.active_children() == []

    def test_child_exception_reaches_caller_and_reaps_children(self, tmp_path, monkeypatch):
        make_batch = experiment._make_batch

        def make_batch_or_fail(strategy, *args):
            if strategy == "gan":  # the last strategy: run in a child
                raise ValueError("no GAN today")
            return make_batch(strategy, *args)

        monkeypatch.setattr(experiment, "_make_batch", make_batch_or_fail)
        with pytest.raises(ValueError, match="no GAN today"):
            run_experiment(_MICRO_PLAN, tmp_path / "run")
        assert multiprocessing.active_children() == []

    def test_without_fork_the_jobs_run_here_with_the_same_artifacts(self, tmp_path,
                                                                     monkeypatch):
        no_fork(monkeypatch)
        run_experiment(_MICRO_PLAN, tmp_path / "run")
        assert _golden_digest(tmp_path / "run") == GOLDEN_RUN_ARTIFACTS_SHA256

    def test_gan_restarts_fork_again_inside_a_phase2_child(self, tmp_path, monkeypatch):
        plan = _NESTED_PLAN
        train_once = gan._train_gan_once
        where = tmp_path / "where"
        where.mkdir()

        def train_once_noting_process(corpus, config, rng_seed):
            (where / str(rng_seed - config.rng_seed)).write_text(
                f"{os.getpid()} {os.getppid()}")
            return train_once(corpus, config, rng_seed)

        monkeypatch.setattr(gan, "_train_gan_once", train_once_noting_process)
        forked = run_experiment(plan, tmp_path / "forked")
        assert multiprocessing.active_children() == []
        pids = [tuple(map(int, (where / str(r * 1000003)).read_text().split()))
                for r in range(3)]
        (first, _), later = pids[0], pids[1:]
        assert first != os.getpid()  # restart 0 ran in gan's phase-2 child
        assert all(pid != first and parent == first for pid, parent in later)
        assert not any(_alive(pid) for pid, _ in later)
        no_fork(monkeypatch)
        in_order = run_experiment(plan, tmp_path / "in_order")
        assert _virtual_reports(forked) == _virtual_reports(in_order)
        assert _run_files(tmp_path / "forked") == _run_files(tmp_path / "in_order")

    def test_a_failing_parent_stops_the_restarts_of_a_phase2_child(self, tmp_path,
                                                                   monkeypatch):
        # The first strategy raises in this process while gan's phase-2
        # child waits on restarts that its own children train.
        train_once = gan._train_gan_once
        where = tmp_path / "where"
        where.mkdir()

        def train_once_or_hang(corpus, config, rng_seed):
            if rng_seed == config.rng_seed:
                return train_once(corpus, config, rng_seed)
            (where / str(os.getpid())).touch()
            time.sleep(600)

        restart_children = min(2, len(os.sched_getaffinity(0)))
        make_batch = experiment._make_batch

        def make_batch_or_fail(strategy, *args):
            if strategy != "rand_urandom":
                return make_batch(strategy, *args)
            deadline = time.monotonic() + 120
            while (len(list(where.iterdir())) < restart_children
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            raise ValueError("no batch today")

        monkeypatch.setattr(gan, "_train_gan_once", train_once_or_hang)
        monkeypatch.setattr(experiment, "_make_batch", make_batch_or_fail)
        with pytest.raises(ValueError, match="no batch today"):
            run_experiment(_NESTED_PLAN, tmp_path / "run")
        pids = [int(p.name) for p in where.iterdir()]
        try:
            assert len(pids) == restart_children
            assert [pid for pid in pids if _alive(pid)] == []
            assert multiprocessing.active_children() == []
        finally:
            for pid in filter(_alive, pids):
                os.kill(pid, signal.SIGKILL)

    def test_a_target_that_does_not_pickle_runs_in_children(self, tmp_path, monkeypatch):
        target = TargetProgram("minikey",
                               lambda data, edge_budget: MINIKEY.entry(data, edge_budget))
        monkeypatch.setattr(experiment, "get_target", lambda name: target)
        run_experiment(_MICRO_PLAN, tmp_path / "run")
        assert _golden_digest(tmp_path / "run") == GOLDEN_RUN_ARTIFACTS_SHA256
        assert multiprocessing.active_children() == []


def test_format_tsv_includes_rate_rows():
    rand = _report("rand_corpus", count=780, unique=778, novel=682)
    gan = _report("gan", count=891, unique=837, novel=724)
    text = format_reports_tsv({"rand_corpus": rand, "gan": gan})
    assert "count_rate" in text
    assert "1.1423" in text


def test_format_text_is_aligned_table():
    r = _report("gan", count=10, unique=8)
    lines = format_reports_text({"gan": r}).splitlines()
    assert len(lines) == 2
    assert lines[0].split()[0] == "strategy"

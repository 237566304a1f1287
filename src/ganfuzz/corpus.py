"""On-disk seed corpus format, cross-worker merge, and deduplication passes.

Layout of a corpus directory:

    manifest.tsv                  worker, id, origin, discovered_at,
                                  trace_length (may be empty), sha256
    queue/<worker:05d>/id-<id:06d>,src-<origin>,time-<discovered_at:020d>

The manifest and the payload files must agree bijectively; every load
verifies payload hashes, and that no payload file lacks a manifest row, so
corruption is caught at the boundary. A forced save first removes the
directory's manifest and queue/ tree, so no payload of an earlier corpus
outlives it.

Payloads with equal bytes, written in one run (one save, or every save of
one `run_experiment`) or by `merge` (to its inputs), are hard links to one
file, with a copy where the filesystem has none. A save never writes
through an existing file: a new payload is created exclusively, and a link
is kept only once its bytes read back equal. Treat payload files as
read-only; loads still verify every hash.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import CorpusCorruptionError, UsageError
from .targets import DEFAULT_EDGE_BUDGET, TargetProgram, execute

MANIFEST_NAME = "manifest.tsv"
_MANIFEST_HEADER = "worker\tid\torigin\tdiscovered_at\ttrace_length\tsha256"


@dataclass(frozen=True)
class SeedFile:
    data: bytes
    id: int
    origin: str
    discovered_at: int
    worker: int = 0
    trace_length: int | None = None

    def payload_name(self) -> str:
        return f"id-{self.id:06d},src-{self.origin},time-{self.discovered_at:020d}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _queue_root(path: str | Path) -> str:
    return os.path.join(os.path.realpath(path), "queue")


def _write_payload(dst: str, data: bytes, digest: str, written: dict[str, str]) -> None:
    """Hard-link dst to a recorded file holding data, or create it exclusively."""
    src = written.get(digest)
    if src is not None:
        try:
            os.link(src, dst)
        except OSError:  # no hard links here, another device, or the source is gone
            pass
        else:
            with open(dst, "rb") as f:
                if f.read() == data:
                    return
            os.unlink(dst)  # the source was rewritten after it was recorded
    with open(dst, "xb") as f:
        f.write(data)
    written[digest] = dst


def save_corpus(path: str | Path, seeds: list[SeedFile], force: bool = False,
                written: dict[str, str] | None = None) -> Path:
    """Write seeds as a corpus directory (layout in the module docstring).

    `written` maps a payload's sha256 hex to a file that already holds those
    bytes; a payload found there is hard-linked to it, and every file this
    save creates is added. Pass one dict to several saves to share payloads
    between corpora; without one, duplicates within this save are shared.
    """
    path = Path(path)
    if path.exists() and any(path.iterdir()) and not force:
        raise UsageError(f"output directory {path} is not empty (use force)")
    keys = [(s.worker, s.id) for s in seeds]
    if len(set(keys)) != len(keys):
        raise UsageError("duplicate (worker, id) pairs in seed list")
    if written is None:
        written = {}
    queue = _queue_root(path)
    if force:  # only this corpus's own files; anything else in path stays
        (path / MANIFEST_NAME).unlink(missing_ok=True)
        shutil.rmtree(queue, ignore_errors=True)
        prefix = queue + os.sep
        for digest in [d for d, p in written.items() if p.startswith(prefix)]:
            del written[digest]
    path.mkdir(parents=True, exist_ok=True)
    rows = [_MANIFEST_HEADER]
    wdir, worker = "", None
    for seed in sorted(seeds, key=lambda s: (s.worker, s.id)):
        if seed.worker != worker:
            worker = seed.worker
            wdir = os.path.join(queue, f"{worker:05d}")
            os.makedirs(wdir, exist_ok=True)
        digest = _sha256(seed.data)
        _write_payload(os.path.join(wdir, seed.payload_name()), seed.data, digest, written)
        tl = "" if seed.trace_length is None else str(seed.trace_length)
        rows.append(
            f"{seed.worker}\t{seed.id}\t{seed.origin}\t{seed.discovered_at}\t{tl}\t{digest}"
        )
    (path / MANIFEST_NAME).write_text("\n".join(rows) + "\n")
    return path


def load_corpus(path: str | Path) -> list[SeedFile]:
    path = Path(path)
    manifest = path / MANIFEST_NAME
    if not manifest.exists():
        if path.exists() and not any(path.iterdir()):
            return []
        raise CorpusCorruptionError(f"missing manifest: {manifest}")
    lines = manifest.read_text().splitlines()
    if not lines or lines[0] != _MANIFEST_HEADER:
        raise CorpusCorruptionError(f"bad manifest header in {manifest}")
    seeds = []
    listed = set()
    for line in lines[1:]:
        worker_s, id_s, origin, t_s, tl_s, digest = line.split("\t")
        seed = SeedFile(
            data=b"",
            id=int(id_s),
            origin=origin,
            discovered_at=int(t_s),
            worker=int(worker_s),
            trace_length=int(tl_s) if tl_s else None,
        )
        payload = path / "queue" / f"{seed.worker:05d}" / seed.payload_name()
        if not payload.exists():
            raise CorpusCorruptionError(f"missing payload file: {payload}")
        data = payload.read_bytes()
        if _sha256(data) != digest:
            raise CorpusCorruptionError(f"payload hash mismatch: {payload}")
        seeds.append(replace(seed, data=data))
        listed.add(str(payload))
    for root, _, names in os.walk(path / "queue"):
        for name in names:
            if os.path.join(root, name) not in listed:
                raise CorpusCorruptionError(
                    f"payload file without a manifest row: {os.path.join(root, name)}")
    return seeds


# ---------------------------------------------------------------------------
# Deduplication


def dedup_content(seeds: list[SeedFile]) -> tuple[list[SeedFile], int]:
    """Drop exact byte duplicates, keeping the first by (worker, id)."""
    ordered = sorted(seeds, key=lambda s: (s.worker, s.id))
    seen: dict[bytes, SeedFile] = {}
    kept = []
    duplicates = 0
    for seed in ordered:
        if seed.data in seen:
            duplicates += 1
        else:
            seen[seed.data] = seed
            kept.append(seed)
    return kept, duplicates


def ensure_trace_lengths(seeds: list[SeedFile], target: TargetProgram,
                         edge_budget: int = DEFAULT_EDGE_BUDGET) -> list[SeedFile]:
    """Fill in trace_length by execution where missing."""
    out = []
    for seed in seeds:
        if seed.trace_length is None:
            result = execute(target, seed.data, edge_budget)
            seed = replace(seed, trace_length=result.trace_length)
        out.append(seed)
    return out


def dedup_by_length(seeds: list[SeedFile], target: TargetProgram,
                    edge_budget: int = DEFAULT_EDGE_BUDGET) -> tuple[list[SeedFile], int]:
    """Keep one representative per distinct trace length (earliest discovery).

    Distinct lengths lower-bound distinct code paths; collisions are counted,
    not resolved further.
    """
    analyzed = ensure_trace_lengths(sorted(seeds, key=lambda s: (s.worker, s.id)),
                                    target, edge_budget)
    by_length: dict[int, SeedFile] = {}
    kept = []
    collisions = 0
    for seed in analyzed:
        if seed.trace_length in by_length:
            collisions += 1
        else:
            by_length[seed.trace_length] = seed
            kept.append(seed)
    return kept, collisions


def merge(dirs: list[str | Path], out: str | Path | None = None,
          force: bool = False) -> list[SeedFile]:
    """Union worker corpus dirs, content-dedup, optionally persist the result.

    A dir holding a (worker, id) that an earlier dir already holds (every
    `ganfuzz fuzz` corpus is worker 0) has its worker numbers shifted past
    the largest seen so far; the earlier dir still wins a content tie.
    Length dedup is a reporting choice and is deliberately not applied here.
    """
    if not dirs:
        raise UsageError("merge needs at least one corpus directory")
    union: list[SeedFile] = []
    used: set[tuple[int, int]] = set()
    written: dict[str, str] = {}  # each output payload links to an input file
    for d in dirs:
        try:
            seeds = load_corpus(d)
        except CorpusCorruptionError as exc:
            raise CorpusCorruptionError(f"corrupt corpus dir {d}: {exc}") from exc
        queue = _queue_root(d)
        for s in seeds:
            written.setdefault(_sha256(s.data),
                               os.path.join(queue, f"{s.worker:05d}", s.payload_name()))
        if any((s.worker, s.id) in used for s in seeds):
            shift = max(worker for worker, _ in used) + 1
            seeds = [replace(s, worker=s.worker + shift) for s in seeds]
        used.update((s.worker, s.id) for s in seeds)
        union.extend(seeds)
    merged, _ = dedup_content(union)
    if out is not None:
        save_corpus(out, merged, force=force, written=written)
    return merged


def seeds_from_state(state, worker: int = 0) -> list[SeedFile]:
    """Convert a fuzzer state's queue into corpus seed files."""
    return [
        SeedFile(
            data=e.data,
            id=e.id,
            origin=e.origin,
            discovered_at=e.discovered_at,
            worker=worker,
            trace_length=e.trace_length,
        )
        for e in state.queue
    ]

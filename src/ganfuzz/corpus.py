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
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import CorpusCorruptionError, UsageError
from .targets import TargetProgram, execute

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


def save_corpus(path: str | Path, seeds: list[SeedFile], force: bool = False) -> Path:
    path = Path(path)
    if path.exists() and any(path.iterdir()) and not force:
        raise UsageError(f"output directory {path} is not empty (use force)")
    keys = [(s.worker, s.id) for s in seeds]
    if len(set(keys)) != len(keys):
        raise UsageError("duplicate (worker, id) pairs in seed list")
    if force:  # only this corpus's own files; anything else in path stays
        (path / MANIFEST_NAME).unlink(missing_ok=True)
        shutil.rmtree(path / "queue", ignore_errors=True)
    path.mkdir(parents=True, exist_ok=True)
    rows = [_MANIFEST_HEADER]
    for seed in sorted(seeds, key=lambda s: (s.worker, s.id)):
        wdir = path / "queue" / f"{seed.worker:05d}"
        wdir.mkdir(parents=True, exist_ok=True)
        (wdir / seed.payload_name()).write_bytes(seed.data)
        tl = "" if seed.trace_length is None else str(seed.trace_length)
        rows.append(
            f"{seed.worker}\t{seed.id}\t{seed.origin}\t{seed.discovered_at}\t{tl}\t{_sha256(seed.data)}"
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
                         edge_budget: int = 1_000_000) -> list[SeedFile]:
    """Fill in trace_length by execution where missing."""
    out = []
    for seed in seeds:
        if seed.trace_length is None:
            result = execute(target, seed.data, edge_budget)
            seed = replace(seed, trace_length=result.trace_length)
        out.append(seed)
    return out


def dedup_by_length(seeds: list[SeedFile], target: TargetProgram,
                    edge_budget: int = 1_000_000) -> tuple[list[SeedFile], int]:
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

    Length dedup is a reporting choice and is deliberately not applied here.
    """
    if not dirs:
        raise UsageError("merge needs at least one corpus directory")
    union: list[SeedFile] = []
    for d in dirs:
        try:
            union.extend(load_corpus(d))
        except CorpusCorruptionError as exc:
            raise CorpusCorruptionError(f"corrupt corpus dir {d}: {exc}") from exc
    merged, _ = dedup_content(union)
    if out is not None:
        save_corpus(out, merged, force=force)
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

"""Offline preparation of the serving benchmark (never timed).

Builds the ``small`` dataset, prefits every method into an artifact store
with ``repro fit``, and computes the in-process reference rankings every
served ranking is checked against.  The output lives under
``.bench_build/perfbench/<source hash>/`` and is rebuilt only when the
program's sources (or this file) change::

    python3 perfbench/prepare.py            # prints the prepared directory

``run.py`` calls :func:`ensure_prepared` itself; running this file alone
only warms the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_ROOT = ROOT / ".bench_build" / "perfbench"

PROFILE = "small"
DATASET_SEED = 13
#: the fixed stratified query set: ``Evaluator``'s round-robin over
#: fine-grained classes, so every prefix is stratified too.
QUERY_SET_SIZE = 32
QUERY_SET_SEED = 7
TOP_K = 50
METHODS = ("genexpan", "case", "setexpan", "gpt4", "retexpan", "cgexpan", "probexpan")

#: server children and the in-process reference both run one BLAS thread
#: (the "N single-BLAS-thread workers per host" deployment); it also keeps
#: BLAS summation order, and so every ranking, identical between them.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class PrepareError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def source_hash() -> str:
    """Hash of every program source file plus this file's own text."""
    if not (SRC / "repro").is_dir():
        raise PrepareError(f"no program sources under {SRC}/repro")
    digest = hashlib.sha256()
    files = sorted(
        path
        for path in SRC.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    for path in [*files, Path(__file__).resolve()]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    digest.update(f"{PROFILE}:{DATASET_SEED}:{QUERY_SET_SIZE}:{QUERY_SET_SEED}".encode())
    return digest.hexdigest()[:16]


def ensure_prepared(log=sys.stderr) -> Path:
    """The prepared directory for the current sources, building it first if
    it is missing.  Builds into a staging directory and renames it into
    place, so an interrupted build never looks finished."""
    key = source_hash()
    target = CACHE_ROOT / key
    if (target / "reference.json").is_file():
        return target
    CACHE_ROOT.mkdir(parents=True, exist_ok=True)
    for stale in CACHE_ROOT.iterdir():
        if stale.is_dir() and (len(stale.name) == 16 or stale.name.startswith("staging-")):
            shutil.rmtree(stale, ignore_errors=True)
    staging = CACHE_ROOT / f"staging-{key}-{os.getpid()}"
    staging.mkdir()
    started = time.perf_counter()
    cli = [sys.executable, "-m", "repro.cli"]
    _run([*cli, "build-dataset", "--profile", PROFILE, "--seed", str(DATASET_SEED),
          "--output", str(staging / "dataset")], log)
    _run([*cli, "fit", "--dataset", str(staging / "dataset"),
          "--store", str(staging / "store")], log)
    _run([sys.executable, str(Path(__file__).resolve()), "--reference", str(staging)], log)
    (staging / "build_seconds").write_text(f"{time.perf_counter() - started:.3f}\n")
    staging.rename(target)
    return target


def _run(command: list[str], log) -> None:
    completed = subprocess.run(
        command, env=child_env(), cwd=ROOT, stdout=log, stderr=log, check=False
    )
    if completed.returncode != 0:
        raise PrepareError(f"{' '.join(command[1:4])} exited {completed.returncode}")


def write_reference(directory: Path) -> None:
    """Restore every method from the store in-process and record its
    ranking of each query of the fixed set, plus the targets ``comb_avg``
    is scored against."""
    sys.path.insert(0, str(SRC))
    from repro.dataset.ultrawiki import UltraWikiDataset
    from repro.eval.evaluator import Evaluator
    from repro.serve.registry import ExpanderRegistry
    from repro.store import ArtifactStore

    dataset = UltraWikiDataset.load(directory / "dataset")
    registry = ExpanderRegistry(dataset, store=ArtifactStore(directory / "store"))
    queries = Evaluator(dataset, max_queries=QUERY_SET_SIZE, seed=QUERY_SET_SEED).queries
    rankings = {}
    for method in METHODS:
        expander = registry.get(method)
        rankings[method] = {
            query.query_id: [
                [item.entity_id, item.score]
                for item in expander.expand(query, top_k=TOP_K).ranking
            ]
            for query in queries
        }
    stats = registry.stats()
    if stats["fits"] or stats["substrates"]["fits"]:
        raise PrepareError(f"reference restore refitted: {stats['fits']} method fit(s)")
    reference = {
        "profile": PROFILE,
        "dataset_seed": DATASET_SEED,
        "fingerprint": dataset.fingerprint(),
        "top_k": TOP_K,
        "queries": [
            {
                "query_id": query.query_id,
                "positive_targets": sorted(dataset.positive_targets(query)),
                "negative_targets": sorted(dataset.negative_targets(query)),
            }
            for query in queries
        ],
        "rankings": rankings,
    }
    (directory / "reference.json").write_text(json.dumps(reference))


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--reference":
        write_reference(Path(sys.argv[2]))
    else:
        try:
            print(ensure_prepared())
        except PrepareError as exc:
            sys.exit(f"prepare: {exc}")

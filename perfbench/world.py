"""The bench-world model bundle: trained once per checkout, then loaded.

The model is the one the paper-table benchmarks share (the
``benchmarks/conftest.py`` bench world: ~5k training lines, a 2-layer
command-line LM), with the single-line classification head of the
serving benchmarks and a multi-line (sequence) head on the same encoder,
so ``session.mode = "sequence"`` can be served.  Training it is fixture
time: it is recorded in the report but is no metric.  The bundle is
cached under ``.bench_build/perfbench/`` keyed by the world settings, so
only the first run in a checkout pays for it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

#: Settings of the bench world (mirrors ``benchmarks/conftest.py``).
BENCH_WORLD = {
    "train_lines": 5_000,
    "test_lines": 3_000,
    "vocab_size": 800,
    "pretrain_epochs": 2,
    "tuning_subsample": 3_000,
    "top_vs": [10, 60],
    "seed": 1,
}
#: Seed of the classification and multi-line head fits.
HEAD_SEED = 0


def cache_root(repo_root: Path) -> Path:
    """Where the benchmark keeps what it builds (ignored by git)."""
    return repo_root / ".bench_build" / "perfbench"


def build_service(world_settings: dict):
    """Train the bench world and return its two-stage detection service."""
    from repro.experiments.common import WorldConfig, build_world
    from repro.experiments.methods import HEAD_EPOCHS, HEAD_LR, training_subset
    from repro.ids import IntrusionDetectionService
    from repro.tuning import ClassificationTuner
    from repro.tuning.multiline import MultiLineClassificationTuner, MultiLineComposer

    settings = dict(world_settings)
    settings["top_vs"] = tuple(settings["top_vs"])
    world = build_world(WorldConfig(**settings), use_cache=False)
    subset = training_subset(world, seed=HEAD_SEED)
    tuner = ClassificationTuner(
        world.encoder, lr=HEAD_LR, epochs=HEAD_EPOCHS, pooling="mean", seed=HEAD_SEED
    )
    tuner.fit(subset.lines, subset.labels)
    service = IntrusionDetectionService.from_tuner(tuner, threshold=0.5)
    ordered = world.train.sorted_by_time()
    multiline = MultiLineClassificationTuner(
        world.encoder,
        composer=MultiLineComposer(window=3),
        lr=HEAD_LR,
        epochs=HEAD_EPOCHS,
        pooling="mean",
        seed=HEAD_SEED,
    )
    multiline.fit_dataset(ordered, world.ids.label(ordered.lines()))
    return service.attach_multiline(multiline)


def ensure_bundle(root: Path, world_settings: dict | None = None) -> tuple[Path, float]:
    """The cached bundle directory, training it first when absent.

    Returns ``(bundle_dir, seconds spent training)``; the seconds are 0
    when the bundle was already cached.
    """
    settings = world_settings or BENCH_WORLD
    key = hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()[:12]
    bundle = root / f"bundle-{key}"
    if (bundle / "service.json").exists():
        return bundle, 0.0
    started = time.perf_counter()
    service = build_service(settings)
    root.mkdir(parents=True, exist_ok=True)
    staging = root / f".staging-{key}-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    service.save(staging)
    try:
        os.replace(staging, bundle)
    except OSError:
        # another run finished the same bundle first; keep theirs
        shutil.rmtree(staging, ignore_errors=True)
    return bundle, time.perf_counter() - started

"""Output drift between two checkouts: how far a change moved the numbers.

Usage, from the root of a checkout:

    python3 scripts/output_drift.py --parent <checkout> --change <checkout>

Runs one subprocess per checkout, each importing that checkout's
``src/spectralsr`` with one BLAS thread, on fixed seeds:

- ``model_forward`` of the micro, toy and default configs, both variants,
  on three signals at once (``batch``), on those and two more
  (``batch5``; at the default config ``model_forward`` runs it as two
  halves of 2 and 3 rows in a process that may use two CPUs, while three
  never split) and on the first one alone (``single``);
- one toy training step per variant: the MSE loss of a 16-scene batch and
  the gradient of every parameter.

Prints JSON: per case, the largest absolute change divided by the largest
absolute parent value (0.0 when the two are bit-identical); the largest
of them all; whether any case is ``null``, which it is when its array
shape differs between the checkouts or one checkout lacks it; and, per
checkout and variant, the number of tape nodes the toy training step's
loss reaches (``tape_nodes``), so a refactor's node change comes from the
same run as its drift.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

VARIANTS = ("swinfreq", "cvswinfreq")
CONFIGS = ("micro", "toy", "default")
BATCH = 3           # signals in a batched forward
SPLIT_BATCH = 5     # signals in a batched forward that model_forward splits (default config)
TRAIN_SCENES = 16   # scenes in the toy training step
SEED = 19
NODES = "tape_nodes/"  # key prefix of the node counts, which are not drift cases


def tape_nodes(root):
    """The number of nodes reachable from ``root`` through ``_parents``."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def emit(path):
    """Compute every case with the ``spectralsr`` on ``sys.path`` and save them to ``path`` (npz)."""
    import importlib

    from spectralsr import model, signals
    from spectralsr.cvops import CTensor

    train = importlib.import_module("spectralsr.train")
    cases = {}
    for config in CONFIGS:
        for variant in VARIANTS:
            cfg = getattr(model, f"{config}_config")(variant)
            rng = np.random.default_rng(np.random.SeedSequence([SEED, CONFIGS.index(config)]))
            store = model.init_model(cfg, rng)
            scene_cfg = signals.SceneConfig(n_sr=cfg.n_sr)
            batch = np.stack([signals.synthesize(signals.sample_scene(rng, scene_cfg), cfg.n, 10.0, rng)
                              for _ in range(SPLIT_BATCH)])
            cases[f"forward/{config}/{variant}/batch"] = model.model_forward(batch[:BATCH], store)
            cases[f"forward/{config}/{variant}/batch5"] = model.model_forward(batch, store)
            cases[f"forward/{config}/{variant}/single"] = model.model_forward(batch[0], store)
    for variant in VARIANTS:
        cfg = model.toy_config(variant)
        rng = np.random.default_rng(np.random.SeedSequence([SEED, 9]))
        store = model.init_model(cfg, rng)
        scene_cfg = signals.SceneConfig(n_sr=cfg.n_sr)
        scenes = [signals.sample_scene(rng, scene_cfg) for _ in range(TRAIN_SCENES)]
        train_cfg = train.TrainConfig(n_scenes=TRAIN_SCENES, batch=TRAIN_SCENES, epochs=1, seed=SEED)
        inputs, targets = train.make_batch(scenes, cfg, train_cfg, rng)
        out = model.model_forward_tensor(CTensor.from_numpy(inputs), store)
        diff = out - targets
        loss = (diff * diff).mean()
        cases[NODES + variant] = np.array(tape_nodes(loss))
        loss.backward()
        cases[f"train/{variant}/loss"] = loss.data
        for name in store.names():
            grad = store.params[name].grad
            cases[f"train/{variant}/grad/{name}"] = np.zeros_like(store.params[name].data) if grad is None else grad
    np.savez(path, **cases)


def run_checkout(checkout, out_path):
    # one BLAS thread on both sides, so a threaded reduction order cannot show as drift
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(out_path)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with np.load(out_path) as data:
        cases = {name: data[name] for name in data.files}
    nodes = {name[len(NODES):]: int(cases.pop(name)) for name in sorted(cases) if name.startswith(NODES)}
    return cases, nodes


def relative_change(parent, change):
    """max |change - parent| / max |parent|; 0.0 for identical arrays, None for unlike shapes."""
    if parent.shape != change.shape:
        return None
    if np.array_equal(parent, change):
        return 0.0
    scale = np.max(np.abs(parent)) if parent.size else 0.0
    delta = float(np.max(np.abs(change - parent)))
    return delta / scale if scale > 0 else float("inf")


def compare(parent_cases, change_cases):
    names = sorted(parent_cases.keys() | change_cases.keys())
    drift = {
        name: relative_change(parent_cases[name], change_cases[name])
        if name in parent_cases and name in change_cases else None
        for name in names
    }
    known = [value for value in drift.values() if value is not None]
    return {"cases": drift, "max": max(known, default=0.0), "missing_or_reshaped": len(known) < len(drift)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        emit(args.emit)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    with tempfile.TemporaryDirectory(prefix="output-drift-") as tmp:
        parent, parent_nodes = run_checkout(args.parent, Path(tmp) / "parent.npz")
        change, change_nodes = run_checkout(args.change, Path(tmp) / "change.npz")
    report = {**compare(parent, change), "tape_nodes": {"parent": parent_nodes, "change": change_nodes}}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

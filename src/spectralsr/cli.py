"""Command-line interface: generate / train / eval / compare / baseline."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import evaluate as ev
from .model import (
    CheckpointError,
    ModelConfig,
    config_from_json,
    default_config,
    init_model,
    load_checkpoint,
    micro_config,
    toy_config,
)
from .signals import (
    Dataset,
    SceneConfig,
    json_safe,
    read_dataset,
    render_target,
    sample_scene,
    synthesize,
    write_dataset,
    write_file,
)
from .train import TrainConfig, train

PRESETS = {"default": default_config, "toy": toy_config, "micro": micro_config}


class ConfigError(Exception):
    pass


def _snr_db(text):
    """An SNR in dB: a finite float, or ``inf`` for noiseless."""
    value = float(text)
    if not (np.isfinite(value) or value == np.inf):
        raise argparse.ArgumentTypeError(f"SNR must be a finite number or inf, not {value}")
    return value


def _positive_int(text):
    """An integer of at least 1 (a size, a count or a tone-count bound)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spectralsr",
        description="Spectral super-resolution toolkit: classical estimators, "
        "window-attention models, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a scene/signal dataset")
    gen.add_argument("--n", type=_positive_int, required=True, help="number of records")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--signal-dim", type=_positive_int, default=64)
    gen.add_argument("--n-sr", type=_positive_int, default=4096)
    gen.add_argument("--snr", type=_snr_db, default=20.0, help="SNR in dB (inf = noiseless)")
    gen.add_argument("--l-min", type=_positive_int, default=1)
    gen.add_argument("--l-max", type=_positive_int, default=10)

    tr = sub.add_parser("train", help="train a model from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    tr.add_argument("--log", default=None, help="CSV training log path")

    ev_p = sub.add_parser("eval", help="run one method over a dataset, report PSNR")
    ev_p.add_argument("--data", required=True)
    ev_p.add_argument("--method", default="periodogram", choices=ev.METHODS)
    ev_p.add_argument("--checkpoint", default=None)
    ev_p.add_argument("--out", default=None, help="JSON report path (default stdout)")

    cmp_p = sub.add_parser("compare", help="multi-method Monte Carlo sweeps")
    cmp_p.add_argument("--methods", required=True,
                       help="comma-separated: " + ",".join(ev.METHODS))
    cmp_p.add_argument("--experiment", required=True,
                       choices=["resolution", "psnr", "sidelobe"])
    cmp_p.add_argument("--checkpoint", default=None)
    cmp_p.add_argument("--out", default=None, help="output path prefix")
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--trials", type=_positive_int, default=None,
                       help="trials per point, resolution and psnr only (default 200)")
    cmp_p.add_argument("--n", type=_positive_int, default=64)
    cmp_p.add_argument("--n-grid", type=_positive_int, default=4096)
    cmp_p.add_argument("--snr", type=_snr_db, default=None,
                       help="SNR in dB, resolution only (default 20; inf = noiseless)")

    base = sub.add_parser("baseline", help="run a classical estimator over a dataset's signals")
    base.add_argument("--method", required=True, choices=ev.CLASSICAL_METHODS)
    base.add_argument("--data", required=True, help="dataset file, as written by generate")
    base.add_argument("--out", required=True, help="spectra file")
    base.add_argument("--n-grid", type=_positive_int, default=4096)
    base.add_argument("--order", type=_positive_int, default=None,
                      help="model order, music and omp only (default 1)")
    return parser


def _cmd_generate(args):
    if args.l_min > args.l_max:
        raise ConfigError(f"--l-min {args.l_min} exceeds --l-max {args.l_max}")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    cfg = SceneConfig(l_min=args.l_min, l_max=args.l_max, n_sr=args.n_sr)
    scenes = [sample_scene(rng, cfg) for _ in range(args.n)]
    try:
        signals = np.stack([synthesize(s, args.signal_dim, args.snr, rng) for s in scenes])
    except ValueError as exc:  # an SNR too low for a finite noise scale
        raise ConfigError(str(exc)) from exc
    meta = {
        "seed": args.seed,
        "snr_db": args.snr,
        "signal_dim": args.signal_dim,
        "n_sr": args.n_sr,
    }
    write_dataset(args.out, Dataset(scenes, signals, meta))
    print(f"wrote {args.n} records to {args.out}")
    return 0


def _load_train_config(path, seed_override):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        if not isinstance(raw, dict):
            raise ValueError(f"the config must be a JSON object, got {type(raw).__name__}")
        model_section = raw.get("model", {})
        if isinstance(model_section, dict) and "preset" in model_section:
            model_section = dict(model_section)
            preset = model_section.pop("preset")
            if not (isinstance(preset, str) and preset in PRESETS):
                raise ConfigError(f"unknown model preset {preset!r}")
            base = PRESETS[preset](model_section.pop("variant", "swinfreq"))
            model_section = {**base.__dict__, **model_section}
        model_cfg = config_from_json(ModelConfig, model_section)
        train_cfg = config_from_json(TrainConfig, raw.get("train", {}))
    except ValueError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if seed_override is not None:
        train_cfg.seed = seed_override
    return model_cfg, train_cfg


def _cmd_train(args):
    model_cfg, train_cfg = _load_train_config(args.config, args.seed)
    train_cfg.checkpoint_path = args.out
    if args.log:
        train_cfg.log_path = args.log
    rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 100]))
    store = init_model(model_cfg, rng)
    _, history = train(store, train_cfg)
    final = history.losses[-1] if history.losses else float("nan")
    print(f"trained {store.step} steps, final loss {final:.6g}, checkpoint {args.out}")
    if history.val_psnr:
        print(f"validation PSNR {history.val_psnr[-1]:.2f} dB")
    return 0


def _load_model(names, checkpoint_path):
    """The checkpoint behind the ``model`` method, or None if it is not named
    (and then no checkpoint may be given)."""
    if "model" not in names:
        if checkpoint_path is not None:
            raise ConfigError("--checkpoint is used by the model method only")
        return None
    if checkpoint_path is None:
        raise ConfigError("the model method requires --checkpoint")
    return load_checkpoint(checkpoint_path)


def _check_model_size(checkpoint, n, n_sr, given):
    """``ConfigError`` unless the checkpoint (if any) maps ``n`` samples onto
    ``n_sr`` bins; ``given`` says where ``n`` and ``n_sr`` came from."""
    if checkpoint is not None and (checkpoint.config.n, checkpoint.config.n_sr) != (n, n_sr):
        cfg = checkpoint.config
        raise ConfigError(
            f"the checkpoint takes n = {cfg.n} samples onto n_sr = {cfg.n_sr} bins, but {given}"
        )


def _cmd_eval(args):
    checkpoint = _load_model([args.method], args.checkpoint)
    data = read_dataset(args.data)
    n_sr = data.meta.get("n_sr", 4096)
    if type(n_sr) is not int or n_sr < 1:
        raise ValueError(f"{args.data}: header n_sr must be an integer of at least 1, got {n_sr!r}")
    n = data.signals.shape[1]
    _check_model_size(checkpoint, n, n_sr,
                      f"{args.data} holds signals of n = {n} samples and n_sr = {n_sr} bins")
    method = ev.make_method(args.method, n_sr, checkpoint)
    values = []
    for i, (scene, signal) in enumerate(zip(data.scenes, data.signals)):
        estimate = method(signal, scene)
        try:
            values.append(ev.psnr(estimate, render_target(scene, n_sr)))
        except ValueError as exc:
            raise ValueError(f"{args.data}: signal {i}: {exc}") from exc
    report = {
        "method": args.method,
        "records": len(values),
        "mean_psnr_db": float(np.mean(values)),
        "min_psnr_db": float(np.min(values)),
        "max_psnr_db": float(np.max(values)),
        "data_meta": json_safe(data.meta),
        "version": 2,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# the sweep options each experiment takes: flag -> keyword of its driver
_COMPARE_OPTIONS = {
    "resolution": {"snr": "snr_db", "trials": "trials"},
    "psnr": {"trials": "trials"},
    "sidelobe": {},
}


def _cmd_compare(args):
    names = [s.strip() for s in args.methods.split(",") if s.strip()]
    if not names:
        raise ConfigError("--methods must name at least one method")
    checkpoint = _load_model(names, args.checkpoint)
    _check_model_size(checkpoint, args.n, args.n_grid,
                      f"--n is {args.n} and --n-grid is {args.n_grid}")
    takes, options = _COMPARE_OPTIONS[args.experiment], {}
    for flag in ("snr", "trials"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in takes:
            raise ConfigError(f"--experiment {args.experiment} does not use --{flag}")
        options[takes[flag]] = value
    methods = {name: ev.make_method(name, args.n_grid, checkpoint) for name in names}
    prefix = args.out or f"compare_{args.experiment}"
    if args.experiment == "sidelobe":
        outputs = ev.sidelobe_experiment(
            methods, n=args.n, n_grid=args.n_grid, seed=args.seed
        )
        for key, csv_text in sorted(outputs.items()):
            path = f"{prefix}_{key}.csv"
            with open(path, "w") as fh:
                fh.write(csv_text)
            print(f"wrote {path}")
        return 0
    sweep = ev.resolution_sweep if args.experiment == "resolution" else ev.psnr_vs_snr
    report = sweep(methods, n=args.n, n_grid=args.n_grid, seed=args.seed, **options)
    with open(prefix + ".json", "w") as fh:
        fh.write(report.to_json())
    with open(prefix + ".csv", "w") as fh:
        fh.write(report.to_csv())
    print(f"wrote {prefix}.json and {prefix}.csv")
    return 0


def _cmd_baseline(args):
    if args.method == "periodogram" and args.order is not None:
        raise ConfigError("--method periodogram does not use --order")
    order = None if args.method == "periodogram" else args.order or 1
    signals = read_dataset(args.data).signals
    spectra = [ev.ESTIMATORS[args.method](s, order, args.n_grid) for s in signals]
    header = {"method": args.method, "order": order, "n_grid": args.n_grid}
    write_file(args.out, header, np.stack(spectra))
    print(f"wrote {len(spectra)} spectra to {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "baseline": _cmd_baseline,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

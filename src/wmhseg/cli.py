"""Command line entry point: phantom, augment, train, segment, evaluate.

Flag precedence: explicit CLI flags override config-file values, which
override built-in defaults; the effective configuration is echoed verbatim
before work starts. Exit codes: 0 success, 1 usage/config error, 2 data or
format error, 3 numerical failure, 4 out of memory, 130 interrupted
(SIGINT). Commands run with numpy's floating-point warnings off: tensor ops
raise ``NumericsError`` (exit 3) on a non-finite result and volumes reject
non-finite voxels (exit 2), so a diverging run prints one error line.

Worker threads: ``OPENBLAS_NUM_THREADS``, set when the process starts, is
the thread budget of the package's one pool (``blas.run_parallel``), which
runs slice-parallel inference, the data-parallel training step and the file
writes of dataset generation (``phantom``).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_MEMORY = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_TYPE_NAMES = {bool: "true or false", int: "an int", float: "a finite number"}


def _parse_value(raw: str, default):
    """``raw`` as the type of ``default``: bool, int, float, str, or a tuple
    of as many comma-separated values as ``default`` has."""
    if isinstance(default, tuple):
        parts = raw.split(",")
        if len(parts) != len(default):
            raise ValueError
        return tuple(_parse_value(v, d) for v, d in zip(parts, default))
    if isinstance(default, bool):
        if raw.lower() not in ("true", "false"):
            raise ValueError
        return raw.lower() == "true"
    value = type(default)(raw)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError
    return value


def _expected(default) -> str:
    if isinstance(default, tuple):
        return f"{len(default)} comma-separated values, each " \
            f"{_TYPE_NAMES[type(default[0])]}"
    return _TYPE_NAMES[type(default)]


def _read_config_file(path, defaults: dict) -> dict:
    """key=value lines, each parsed as the type of the key's entry in
    ``defaults``; a key not in ``defaults`` is an error."""
    from .errors import ConfigError
    from .fileio import read_key_values
    values = {}
    for key, (number, text) in read_key_values(path, ConfigError).items():
        where = f"{path}, line {number}"
        if key not in defaults:
            raise ConfigError(f"{where}: unknown key {key!r}; known keys: "
                              f"{', '.join(sorted(defaults))}")
        try:
            values[key] = _parse_value(text, defaults[key])
        except ValueError:
            raise ConfigError(f"{where}: cannot parse {key}={text!r}: "
                              f"expected {_expected(defaults[key])}") from None
    return values


def _effective(defaults: dict, config_path, flag_values: dict) -> dict:
    """Defaults, then the config file's keys (those of ``defaults``, typed by
    their default), then the flags that were given."""
    merged = dict(defaults)
    if config_path:
        merged.update(_read_config_file(config_path, defaults))
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    return merged


def _echo(command: str, cfg: dict) -> None:
    for key in sorted(cfg):
        print(f"config {command}: {key}={cfg[key]}")


# ---- subcommands -------------------------------------------------------------


def cmd_phantom(args) -> int:
    from .phantom import PhantomConfig, generate_dataset
    phantom_defaults = asdict(PhantomConfig())
    defaults = dict(phantom_defaults, n=10)
    cfg = _effective(defaults, args.config,
                     {"n": args.n, "seed": args.seed, "size": args.size})
    _echo("phantom", cfg)
    pc = PhantomConfig(**{k: cfg[k] for k in phantom_defaults})
    entries = generate_dataset(cfg["n"], cfg["seed"], args.out, config=pc)
    print(f"wrote {len(entries)} manifest rows to "
          f"{Path(args.out) / 'manifest.csv'}")
    return EXIT_OK


def cmd_augment(args) -> int:
    from .artifacts import (KINDS, apply_artifact, read_sidecar, sample_spec,
                            write_sidecar)
    from .nifti import read_nifti, write_nifti
    if args.replay:
        spec = read_sidecar(args.replay)
    else:
        if args.kind not in KINDS:
            print(f"error: invalid kind '{args.kind}'; valid kinds: "
                  f"{', '.join(KINDS)}", file=sys.stderr)
            return EXIT_USAGE
        spec = sample_spec(args.kind, args.seed)
    _echo("augment", {"kind": spec.kind, "seed": spec.seed,
                      "in": args.in_path, "out": args.out})
    vol = read_nifti(args.in_path)
    write_nifti(apply_artifact(vol, spec), args.out)
    write_sidecar(str(args.out) + ".spec", spec)
    print(f"wrote {args.out} (+ sidecar {args.out}.spec)")
    return EXIT_OK


def cmd_train(args) -> int:
    from .model import ModelConfig
    from .training import TrainConfig, train
    train_defaults = asdict(TrainConfig())
    defaults = dict(train_defaults, model="default")
    flags = {"lr": args.lr, "batch_size": args.batch_size,
             "epochs": args.epochs, "seed": args.seed,
             "split_ratio": args.split_ratio, "model": args.model,
             "include_artifacts": False if args.no_artifacts else None}
    cfg = _effective(defaults, args.config, flags)
    _echo("train", cfg)
    train_cfg = TrainConfig(**{k: cfg[k] for k in train_defaults})
    presets = {"default": ModelConfig, "reduced": ModelConfig.reduced,
               "tiny": ModelConfig.tiny}
    if cfg["model"] not in presets:
        raise ValueError(f"unknown model preset '{cfg['model']}'")
    try:
        result = train(train_cfg, presets[cfg["model"]](), args.manifest,
                       args.out, resume=args.resume)
    except MemoryError as exc:
        raise MemoryError(f"batch size {train_cfg.batch_size}"
                          + (f" ({exc})" if str(exc) else "")
                          + "; a smaller --batch-size needs less") from None
    last = result.history[-1]
    print(f"finished epoch {last['epoch']}: train {last['train_loss']:.4f} "
          f"val {last['val_loss']:.4f}")
    print(f"best checkpoint: {result.best_checkpoint}")
    return EXIT_OK


def cmd_segment(args) -> int:
    # intentionally no preprocessing or hyperparameter flags: inference
    # consumes the raw volume and the checkpoint alone
    from .model import load_checkpoint
    from .nifti import read_nifti, write_nifti
    from .training import infer_volume
    _echo("segment", {"checkpoint": args.checkpoint, "in": args.in_path,
                      "out": args.out})
    params, model_cfg = load_checkpoint(args.checkpoint)
    vol = read_nifti(args.in_path)
    mask = infer_volume(params, model_cfg, vol)
    write_nifti(vol.with_data(mask), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .phantom import manifest_dir, read_manifest
    from .training import (TrainConfig, check_split_ratio, evaluate,
                           split_dataset)
    # unless given, the split is the one a default train run makes
    default = TrainConfig()
    ratio = default.split_ratio if args.split_ratio is None else args.split_ratio
    seed = default.seed if args.split_seed is None else args.split_seed
    _echo("evaluate", {"checkpoint": args.checkpoint, "manifest": args.manifest,
                       "out": args.out, "split": args.split,
                       "split_seed": seed, "split_ratio": ratio})
    # checked whatever the split, so a bad value never passes unnoticed
    check_split_ratio(ratio)
    entries = read_manifest(args.manifest)
    if args.split != "all":
        train_src, test_src = split_dataset(entries, ratio, seed)
        keep = set(train_src if args.split == "train" else test_src)
        entries = [e for e in entries if e.source_id in keep]
    metrics, summary = evaluate(args.checkpoint, entries,
                                manifest_dir(args.manifest), out_csv=args.out,
                                per_slice=args.per_slice)
    for kind, mean in summary["mean_dice_by_kind"].items():
        drop = summary["dice_drop_vs_clean"].get(kind)
        extra = "" if drop is None else f" (drop vs clean {drop:+.4f})"
        print(f"kind {kind}: mean dice {mean:.4f}{extra}")
    print(f"wrote {len(metrics)} rows to {args.out}")
    return EXIT_OK


# ---- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="wmhseg",
                     description="White matter hyperintensity segmentation "
                                 "pipeline: phantoms, artifacts, training, "
                                 "inference, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic phantom dataset")
    p.add_argument("-n", type=int, default=None, help="number of phantoms")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--size", type=lambda s: tuple(int(v) for v in s.split(",")),
                   default=None, metavar="X,Y,Z")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("augment", help="apply one artifact to a volume")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--kind", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replay", default=None,
                   help="reproduce a corruption from its sidecar spec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train on a manifest dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split-ratio", type=float, default=None)
    p.add_argument("--model", choices=("default", "reduced", "tiny"),
                   default=None)
    p.add_argument("--no-artifacts", action="store_true",
                   help="train on clean scans only (augmentation ablation)")
    p.add_argument("--resume", default=None, metavar="CKPT",
                   help="continue the run that saved CKPT, from CKPT.state")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment one volume with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("all", "train", "test"), default="all")
    p.add_argument("--split-seed", type=int, default=None,
                   help="default: the seed of a default train run")
    p.add_argument("--split-ratio", type=float, default=None,
                   help="default: the split_ratio of a default train run")
    p.add_argument("--per-slice", action="store_true")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        print(f"error: {getattr(args, 'command', 'wmhseg')} interrupted",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except MemoryError as exc:
        print(f"error: {getattr(args, 'command', 'wmhseg')} ran out of memory"
              + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_MEMORY
    except Exception as exc:  # map package errors onto documented exit codes
        from .errors import (ConfigError, DataFormatError, NumericsError,
                             UsageError, ValidationError)
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigError, UsageError, ValueError)) \
                and not isinstance(exc, (DataFormatError, ValidationError)):
            return EXIT_USAGE
        if isinstance(exc, NumericsError):
            return EXIT_NUMERIC
        if isinstance(exc, (DataFormatError, ValidationError, OSError)):
            return EXIT_DATA
        raise


if __name__ == "__main__":
    sys.exit(main())

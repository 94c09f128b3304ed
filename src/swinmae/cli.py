"""Command-line entry points.

Subcommands: gen-data, pretrain, finetune, eval, reconstruct, mask-demo,
grad-check, ablate. Exit codes: 0 success, 1 runtime failure, 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import tensor as T
from .tensor import Tensor, TensorError
from .patches import PatchSpec
from .masking import build_mask_plan, split_rng
from .model import ModelSpec, SwinMae
from .training import load_checkpoint, load_params_strict, run_pretraining, write_csv
from .segmentation import (
    METRICS, SwinUnet, SwinUnetSpec, build_swin_unet_from_checkpoint,
    evaluate_segmentation, run_finetune,
)
from . import data as D
from .config import RunConfig


def _log(msg):
    print(msg, flush=True)


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _config(args):
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise TensorError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.config:
        return RunConfig.from_file(args.config, **overrides)
    return RunConfig(**overrides)


def _spec(cls, cfg, **extra):
    """A ModelSpec or SwinUnetSpec from the config, where every field but
    `image` is a key of the same name; `extra` overrides them."""
    kw = {
        f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls) if f.name != "image"
    }
    kw["image"] = PatchSpec(cfg.image_size, cfg.image_size, cfg.channels, cfg.patch_side)
    kw.update(extra)
    return cls(**kw)


_model_spec = functools.partial(_spec, ModelSpec)
_unet_spec = functools.partial(_spec, SwinUnetSpec)


# ------------------------------------------------------------- subcommands


def cmd_gen_data(args):
    cfg = _config(args)
    manifest = D.generate_synthetic_dataset(
        cfg.n_unlabeled, cfg.n_labeled, cfg.seed, cfg.data_dir, size=cfg.image_size
    )
    _log(
        f"wrote {len(manifest.unlabeled)} unlabeled + "
        f"{len(manifest.labeled)} labeled images to {cfg.data_dir}"
    )
    return 0


def cmd_pretrain(args):
    cfg = _config(args)
    model = SwinMae(_model_spec(cfg), seed=cfg.seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = D.scan_dataset(cfg.data_dir)
    images = D.load_stack(manifest.unlabeled)
    _log(cfg.resolved())
    run_pretraining(
        model, images, cfg.epochs, cfg.lr_max, cfg.batch_size, cfg.seed,
        csv_path=os.path.join(cfg.out_dir, "pretrain_loss.csv"),
        checkpoint_path=os.path.join(cfg.out_dir, "pretrain.ckpt"),
        checkpoint_every=cfg.checkpoint_every, log=_log,
    )
    return 0


def cmd_finetune(args):
    cfg = _config(args)
    spec = _unet_spec(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = D.scan_dataset(cfg.data_dir).split(cfg.seed)
    images, labels = D.load_labeled(manifest.labeled)
    tensors = None
    if args.checkpoint:
        _, tensors = load_checkpoint(args.checkpoint)
    model, report = build_swin_unet_from_checkpoint(tensors, spec, seed=cfg.seed)
    _log(
        f"transfer: {len(report.loaded)} loaded, "
        f"{len(report.initialized)} random-init, {len(report.missing)} missing"
    )
    run_finetune(
        model,
        images[manifest.train], labels[manifest.train],
        images[manifest.test], labels[manifest.test],
        cfg.epochs, cfg.lr_max, cfg.batch_size, cfg.seed, augment=cfg.augment,
        csv_path=os.path.join(cfg.out_dir, "finetune_metrics.csv"),
        checkpoint_path=os.path.join(cfg.out_dir, "finetune_best.ckpt"),
        log=_log,
    )
    return 0


def cmd_eval(args):
    cfg = _config(args)
    spec = _unet_spec(cfg)
    manifest = D.scan_dataset(cfg.data_dir).split(cfg.seed)
    images, labels = D.load_labeled(manifest.labeled)
    _, tensors = load_checkpoint(args.checkpoint)
    model = SwinUnet(spec, seed=cfg.seed)
    load_params_strict(model.params, tensors)
    report = evaluate_segmentation(
        model, images[manifest.test], labels[manifest.test], warn=_log
    )
    _log("metric     value")
    for key in METRICS:
        _log(f"{key:<10} {report[key]:.4f}")
    return 0


def cmd_reconstruct(args):
    cfg = _config(args)
    model = SwinMae(_model_spec(cfg), seed=cfg.seed)
    _, tensors = load_checkpoint(args.checkpoint)
    load_params_strict(model.params, tensors)
    image = D.load_image(args.image)
    plan = model.spec.mask_plan(split_rng(cfg.seed, 99))
    recon = model.reconstruct(Tensor(image[None]), plan)
    D.emit_triptych(image, recon.data[0], plan, args.out)
    _log(f"wrote {args.out}")
    return 0


def cmd_mask_demo(args):
    rng = split_rng(args.seed, 0)
    plan = build_mask_plan(args.d, args.r, args.ratio, rng, mode=args.mode)
    cell = max(2, 64 // plan.side)
    px = plan.pixel_mask(plan.side * cell, plan.side * cell)
    # checkerboard background so kept windows are visibly structured
    yy, xx = np.mgrid[0:plan.side * cell, 0:plan.side * cell]
    board = 0.35 + 0.4 * (((yy // cell) + (xx // cell)) % 2)
    img = np.where(px > 0, 0.5, board)
    D.save_ppm(args.out, np.stack([img, img, np.where(px > 0, 0.5, 1.0 - board)]))
    # a random-mode plan keeps scattered tokens, not windows
    windows = f" ({plan.kept_windows().size} visible windows)" if args.mode == "window" else ""
    _log(f"kept {len(plan.keep_indices)}/{plan.n_tokens} tokens{windows}; wrote {args.out}")
    return 0


def cmd_grad_check(args):
    spec = ModelSpec(image=PatchSpec(16, 16, 3, patch_side=2), embed_dim=8)
    model = SwinMae(spec, seed=args.seed, dtype=np.float64)
    rng = split_rng(args.seed, 3)
    image = rng.random((1, 3, 16, 16))
    plan = spec.mask_plan(split_rng(args.seed, 4))

    def f(x):
        return model.loss(x, plan)

    err = T.grad_check(f, Tensor(image), h=1e-5)
    _log(f"max relative error: {err:.3e}")
    return 0 if err < 1e-4 else 1


def run_grid(rows, seeds, pretrain_cfg, finetune_cfg):
    """Pretrain, transfer and fine-tune every row at every seed.

    A row is (tag, `ModelSpec` overrides or None for no pretraining,
    Swin-Unet overrides); each phase reads its data, schedule and spec
    defaults from its config. Repeated runs are reused: pretrainings are
    keyed by (spec repr, seed), fine-tunes by that key, or (None, seed), and
    the Swin-Unet spec repr. Returns, per row and seed,
    (pretraining loss history or None, fine-tune history, best epoch), or
    the TensorError, from building the spec or pretraining, that skips it.
    """
    unlabeled = D.load_stack(D.scan_dataset(pretrain_cfg.data_dir).unlabeled)
    manifest = D.scan_dataset(finetune_cfg.data_dir)
    images, labels = D.load_labeled(manifest.labeled)
    pretrained = {(None, seed): (None, None) for seed in seeds}
    finetuned, results = {}, []
    for _, pre_kw, unet_kw in rows:
        unet = _unet_spec(finetune_cfg, **unet_kw)
        if pre_kw is not None:
            try:
                spec = _model_spec(pretrain_cfg, **pre_kw)
            except TensorError as exc:
                results.append([exc] * len(seeds))
                continue
        runs = []
        for seed in seeds:
            key = (None, seed) if pre_kw is None else (repr(spec), seed)
            if key not in pretrained:
                try:
                    model = SwinMae(spec, seed=seed)
                    history = run_pretraining(
                        model, unlabeled, pretrain_cfg.epochs, pretrain_cfg.lr_max,
                        pretrain_cfg.batch_size, seed,
                    )
                    pretrained[key] = history, {n: p.data.copy() for n, p in model.params.items()}
                except TensorError as exc:
                    pretrained[key] = exc
            if isinstance(pretrained[key], TensorError):
                runs.append(pretrained[key])
                continue
            history, tensors = pretrained[key]
            run_key = (key, repr(unet))
            if run_key not in finetuned:
                split = manifest.split(seed)
                model, _ = build_swin_unet_from_checkpoint(tensors, unet, seed=seed)
                finetuned[run_key] = run_finetune(
                    model, images[split.train], labels[split.train], images[split.test],
                    labels[split.test], finetune_cfg.epochs, finetune_cfg.lr_max,
                    finetune_cfg.batch_size, seed, augment=finetune_cfg.augment,
                )
            runs.append((history, *finetuned[run_key]))
        results.append(runs)
    return results


def cmd_ablate(args):
    cfg = _config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    vit = dict(decoder_variant="VIT")
    swin = dict(decoder_variant="SWIN", decoder_width=0)
    pe = dict(use_abs_pos_embed=True)
    enc = {v: dict(encoder_variant=v, use_abs_pos_embed=(v != "III"), **vit)
           for v in ("I", "II", "III")}
    table = [
        ("none", None, {}),
        ("none+pe", None, pe),
        ("encoder-I", enc["I"], {}),
        ("encoder-I+pe", enc["I"], pe),
        ("encoder-II", enc["II"], {}),
        ("encoder-II+pe", enc["II"], pe),
        ("encoder-III", enc["III"], {}),
        ("decoder-vit", vit, {}),
        ("decoder-swin", swin, {}),
        ("decoder-swin+dw", swin, dict(transfer_decoder_weights=True)),
        ("decoder-vit+de", dict(decoder_width=cfg.embed_dim * 4, **vit), {}),
        ("masking-random", dict(mask_mode="random"), {}),
        ("masking-window", dict(mask_mode="window"), {}),
    ] + [(f"ratio-{r}", dict(mask_ratio=r), {}) for r in (0.45, 0.6, 0.75, 0.9)]
    rows = []
    for (tag, _, _), (run,) in zip(table, run_grid(table, (cfg.seed,), cfg, cfg)):
        if isinstance(run, TensorError):
            _log(f"{tag}: skipped ({run})")
            continue
        _, history, best = run
        rep = history[best]
        rows.append((tag, rep))
        _log(
            f"{tag}: dsc {rep['dsc_pct']:.2f} mpa {rep['mpa_pct']:.2f} "
            f"miou {rep['miou_pct']:.2f} hd {rep['hd']:.3f}"
        )

    out = os.path.join(cfg.out_dir, "ablation.csv")
    write_csv(
        out, ("experiment", *METRICS),
        ((tag, *(rep[k] for k in METRICS)) for tag, rep in rows),
    )
    _log(f"wrote {out}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swinmae",
        description="window-masked autoencoder pretraining and segmentation "
        "transfer, desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override a config key",
        )

    common(sub.add_parser("gen-data", help="write the synthetic dataset"))
    common(sub.add_parser("pretrain", help="self-supervised pretraining"))
    p = sub.add_parser("finetune", help="segmentation fine-tuning")
    common(p)
    p.add_argument("--checkpoint", help="pretraining checkpoint to transfer")
    p = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p = sub.add_parser("reconstruct", help="triptych from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("mask-demo", help="render a mask plan")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("window", "random"), default="window")
    p.add_argument("--out", default="mask_demo.ppm")
    p = sub.add_parser("grad-check", help="finite-difference check of a tiny model")
    p.add_argument("--seed", type=int, default=0)
    common(sub.add_parser("ablate", help="run the desk-scale ablation suites"))
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "reconstruct": cmd_reconstruct,
    "mask-demo": cmd_mask_demo,
    "grad-check": cmd_grad_check,
    "ablate": cmd_ablate,
}


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except (TensorError, D.ImageFormatError, OSError, ValueError) as exc:
        return _fail(exc)


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

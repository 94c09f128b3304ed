"""The benchmark's three workloads.

Each makes its inputs from the seed with `swinmae.data`, sets up (timed and
repeated by the runner), then runs closed-loop units: one caller, training
steps back to back, each waiting for the last. A unit starts from the same
state every time, so every unit of a run must give bit-identical losses.
All calls go through module attributes so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import time

import numpy as np

from swinmae import data as D
from swinmae import masking, segmentation, training
from swinmae import model as M
from swinmae.patches import PatchSpec
from swinmae.tensor import Tensor

DESK_BATCH = 16
DESK_EPOCHS = 2  # pretraining epochs per desk unit
DESK_LR = 1e-3
FIXTURE_EPOCHS = 2  # pretraining behind the transfer checkpoint
FIXTURE_SEED = 0
FT_EPOCHS = 4  # fine-tuning epochs per transfer unit
FT_LR = 1e-3
FULL_STEPS = 3  # B=1 Adam steps per full-scale unit
FULL_LR = 1e-4
FULL_IMAGES = 4
RECON_SEED_KEY = 99  # split_rng key of the evaluation mask plan, as the CLI uses


def fullscale_spec():
    """The paper geometry: 224², embed 96, depths 2/2/6/2, window 7, r=4."""
    return M.ModelSpec(
        image=PatchSpec(224, 224, 3, patch_side=4), encoder_variant="III",
        decoder_variant="SWIN", embed_dim=96, stage_depths=(2, 2, 6, 2),
        head_counts=(3, 6, 12, 24), attn_window=7, mask_window_r=4, mask_ratio=0.75,
    )


def _eval_plan(spec, seed):
    return masking.build_mask_plan(
        spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio,
        masking.split_rng(seed, RECON_SEED_KEY),
    )


def _digest(params):
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


class Workload:
    """prepare() builds untimed fixtures; setup() is what a user waits for
    before the first step; reset() puts the unit's start state back,
    untimed; unit() runs the timed closed loop and returns {"loss_final",
    "losses", "signature", "checks": [(name, ok, detail)]}, plus "miou_pct"
    on transfer. Checks made during set-up go to `self.checks`."""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.checks = []

    def path(self, *parts):
        return os.path.join(self.work_dir, *parts)

    def fresh_dir(self, name):
        path = self.path(name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def prepare(self):
        pass

    def warmup(self):
        pass

    def timed_eval(self, rec, tracer, fn, n_images):
        with tracer.span("bench.eval", kind="eval") if tracer else contextlib.nullcontext():
            t = time.perf_counter()
            out = fn()
            rec.add_eval(time.perf_counter() - t, n_images)
        return out


class DeskPretrain(Workload):
    """The shared desk spec, f64, B=16, window masking at 0.75 over the
    200-image unlabeled set, a checkpoint written every epoch."""

    name = "desk-pretrain"

    def setup(self):
        manifest = D.generate_synthetic_dataset(200, 100, self.seed, self.fresh_dir("data"))
        self.images = D.load_stack(manifest.unlabeled)
        self.held_out, _ = D.load_labeled(manifest.labeled)
        self.model = M.SwinMae(M.desk_spec(), seed=self.seed)

    def reset(self):
        if getattr(self, "_used", False):
            self.model = M.SwinMae(M.desk_spec(), seed=self.seed)
        self._used = True

    def unit(self, rec, tracer):
        first = len(rec.losses)
        history = training.run_pretraining(
            self.model, self.images, DESK_EPOCHS, DESK_LR, DESK_BATCH, self.seed,
            checkpoint_path=self.path("pretrain.ckpt"), checkpoint_every=1,
        )
        recon = self.timed_eval(rec, tracer, self.reconstruct, len(self.held_out))
        ok_shape = recon.shape == self.held_out.shape and np.isfinite(recon).all()
        return {
            "loss_final": history[-1],
            "losses": rec.losses[first:],
            "signature": (tuple(history), _digest(self.model.params)),
            "checks": [("reconstruction shape and finite", ok_shape, str(recon.shape))],
        }

    def reconstruct(self):
        plan = _eval_plan(self.model.spec, self.seed)
        out = []
        for lo in range(0, len(self.held_out), DESK_BATCH):
            batch = Tensor(self.held_out[lo:lo + DESK_BATCH])
            out.append(self.model.reconstruct(batch, plan).data)
        return np.concatenate(out)


class Transfer(Workload):
    """Load a pretrained checkpoint, build the Swin-Unet from it and
    fine-tune with augmentation over the 80/20 split, evaluating every epoch."""

    name = "transfer"

    def prepare(self):
        manifest = D.generate_synthetic_dataset(200, 1, FIXTURE_SEED, self.fresh_dir("fixture"))
        model = M.SwinMae(M.desk_spec(), seed=FIXTURE_SEED)
        training.run_pretraining(
            model, D.load_stack(manifest.unlabeled), FIXTURE_EPOCHS, DESK_LR,
            DESK_BATCH, FIXTURE_SEED, checkpoint_path=self.path("fixture.ckpt"),
        )

    def setup(self):
        data_dir = self.fresh_dir("data")
        D.generate_synthetic_dataset(200, 100, self.seed, data_dir)
        manifest = D.scan_dataset(data_dir).split(self.seed)
        images, labels = D.load_labeled(manifest.labeled)
        self.split = (images[manifest.train], labels[manifest.train],
                      images[manifest.test], labels[manifest.test])
        _, self.tensors = training.load_checkpoint(self.path("fixture.ckpt"))
        self.spec = segmentation.SwinUnetSpec(image=PatchSpec(32, 32, 3, patch_side=4))
        self.model, report = segmentation.build_swin_unet_from_checkpoint(
            self.tensors, self.spec, seed=self.seed
        )
        self.checks = [(
            "transfer: 0 missing encoder names", not report.missing,
            f"{len(report.loaded)} loaded, {len(report.missing)} missing",
        )]

    def reset(self):
        if getattr(self, "_used", False):
            self.model, _ = segmentation.build_swin_unet_from_checkpoint(
                self.tensors, self.spec, seed=self.seed
            )
        self._used = True

    def unit(self, rec, tracer):
        first = len(rec.losses)
        history, _ = segmentation.run_finetune(
            self.model, *self.split, FT_EPOCHS, FT_LR, DESK_BATCH, self.seed,
            augment=True, checkpoint_path=self.path("finetune_best.ckpt"),
        )
        losses = rec.losses[first:]
        per_epoch = -(-len(self.split[0]) // DESK_BATCH)
        miou = history[-1]["miou_pct"]
        return {
            "loss_final": float(np.mean(losses[-per_epoch:])),
            "losses": losses,
            "miou_pct": miou,
            "signature": (tuple(losses), tuple(h["miou_pct"] for h in history),
                          _digest(self.model.params)),
            "checks": [("0 <= miou_pct <= 100", 0.0 <= miou <= 100.0, f"{miou!r}")],
        }


class FullscaleStep(Workload):
    """The paper geometry in f32, B=1: Adam pretraining steps on 224² images,
    shifted windows with -inf masks, window-7 relative bias."""

    name = "fullscale-step"

    def setup(self):
        manifest = D.generate_synthetic_dataset(
            FULL_IMAGES, 1, self.seed, self.fresh_dir("data"), size=224
        )
        self.images = D.load_stack(manifest.unlabeled)
        self.held_out, _ = D.load_labeled(manifest.labeled)
        self.model = M.SwinMae(fullscale_spec(), seed=self.seed, dtype=np.float32)
        self._initial = None

    def reset(self):
        if self._initial is None:
            self._initial = {n: p.data.copy() for n, p in self.model.params.items()}
        else:
            for name, p in self.model.params.items():
                np.copyto(p.data, self._initial[name])

    def warmup(self):
        """One untimed step so first-touch page faults stay out of the timing."""
        self.reset()
        self._steps(1)

    def _steps(self, n):
        spec = self.model.spec
        optimizer = training.Adam(self.model.params)
        for i in range(n):
            plan = masking.build_mask_plan(
                spec.mask_grid_d, spec.mask_window_r, spec.mask_ratio,
                masking.split_rng(self.seed, 0, i),
            )
            k = i % len(self.images)
            training.train_step(self.model, self.images[k:k + 1], plan, optimizer, FULL_LR)

    def unit(self, rec, tracer):
        first = len(rec.losses)
        self._steps(FULL_STEPS)
        latent, tokens = self.timed_eval(rec, tracer, self.encode_decode, 1)
        losses = rec.losses[first:]
        shapes = ((latent.h_tokens, latent.w_tokens), tokens.shape)
        return {
            "loss_final": float(np.mean(losses[-2:])),
            "losses": losses,
            "signature": tuple(losses),
            "checks": [(
                "full-scale shapes: 7x7 latent, SWIN tokens (1, 3136, 48)",
                shapes == ((7, 7), (1, 3136, 48)) and np.isfinite(tokens.data).all(),
                str(shapes),
            )],
        }

    def encode_decode(self):
        x = Tensor(self.held_out.astype(np.float32))
        latent, _ = self.model.encode(x, _eval_plan(self.model.spec, self.seed))
        return latent, self.model.decode(latent)


WORKLOADS = {w.name: w for w in (DeskPretrain, Transfer, FullscaleStep)}

import shutil

import numpy as np
import pytest

from swinmae import cli
from swinmae.cli import cli_main
from swinmae.config import RunConfig
from swinmae.data import load_image, scan_dataset
from swinmae.tensor import TensorError
from swinmae.training import load_checkpoint


def gen(tmp_path, n_unlabeled=3, n_labeled=5, seed=0):
    data_dir = tmp_path / "data"
    rc = cli_main([
        "gen-data",
        "--set", f"data_dir={data_dir}",
        "--set", f"n_unlabeled={n_unlabeled}",
        "--set", f"n_labeled={n_labeled}",
        "--set", f"seed={seed}",
    ])
    assert rc == 0
    return data_dir


def test_usage_errors_exit_2(capsys):
    assert cli_main([]) == 2
    assert cli_main(["no-such-command"]) == 2
    assert cli_main(["mask-demo", "--bogus-flag"]) == 2
    assert cli_main(["mask-demo"]) == 2  # missing required args
    capsys.readouterr()


def test_runtime_errors_exit_1(tmp_path, capsys):
    # pretrain over a directory with no images
    rc = cli_main([
        "pretrain",
        "--set", f"data_dir={tmp_path / 'missing'}",
        "--set", f"out_dir={tmp_path / 'out'}",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # unknown config key
    rc = cli_main(["gen-data", "--set", "no_such_key=1"])
    assert rc == 1
    capsys.readouterr()
    # an image header that claims 10^9 x 10^9 pixels in a 30-byte file
    data_dir = tmp_path / "hostile"
    data_dir.mkdir()
    (data_dir / "unlabeled_00000.ppm").write_bytes(
        b"P6\n1000000000 1000000000\n255\n\x00"
    )
    rc = cli_main([
        "pretrain", "--set", f"data_dir={data_dir}",
        "--set", f"out_dir={tmp_path / 'out'}",
    ])
    assert rc == 1
    assert "truncated pixel data" in capsys.readouterr().err


def test_gen_data_writes_dataset(tmp_path, capsys):
    data_dir = gen(tmp_path)
    out = capsys.readouterr().out
    assert "3 unlabeled + 5 labeled" in out
    manifest = scan_dataset(data_dir)
    assert len(manifest.unlabeled) == 3
    assert len(manifest.labeled) == 5


def test_mask_demo_counts_and_output(tmp_path, capsys):
    out = tmp_path / "demo.ppm"
    rc = cli_main([
        "mask-demo", "--d", "7", "--r", "4", "--ratio", "0.75",
        "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    # floor(49 * 0.25) = 12 windows of 16 tokens each
    assert "kept 192/784 tokens (12 visible windows)" in text
    img = load_image(out)
    assert img.shape[0] == 3
    # random mode keeps scattered tokens, so the log counts no windows
    rc = cli_main([
        "mask-demo", "--d", "4", "--r", "2", "--ratio", "0.75", "--mode", "random",
        "--out", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert f"kept 16/64 tokens; wrote {out}" in text
    # nothing kept -> runtime failure
    rc = cli_main([
        "mask-demo", "--d", "2", "--r", "1", "--ratio", "0.9",
        "--out", str(tmp_path / "x.ppm"),
    ])
    assert rc == 1


def test_pretrain_finetune_eval_pipeline(tmp_path, capsys):
    data_dir = gen(tmp_path, n_unlabeled=2, n_labeled=5, seed=3)
    out_dir = tmp_path / "out"
    fast = [
        "--set", f"data_dir={data_dir}",
        "--set", f"out_dir={out_dir}",
        "--set", "epochs=1",
        "--set", "batch_size=2",
        "--set", "augment=0",
    ]
    assert cli_main(["pretrain", *fast]) == 0
    assert (out_dir / "pretrain_loss.csv").read_text().startswith("epoch,loss\n")
    meta, tensors = load_checkpoint(out_dir / "pretrain.ckpt")
    assert meta["kind"] == "pretrain"

    rc = cli_main([
        "finetune", "--checkpoint", str(out_dir / "pretrain.ckpt"), *fast
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "transfer:" in text and " 0 missing" in text
    metrics = (out_dir / "finetune_metrics.csv").read_text()
    assert metrics.startswith("epoch,dsc_pct,mpa_pct,miou_pct,hd\n")
    assert (out_dir / "finetune_best.ckpt").exists()

    rc = cli_main([
        "eval", "--checkpoint", str(out_dir / "finetune_best.ckpt"), *fast
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("dsc_pct", "mpa_pct", "miou_pct", "hd"):
        assert key in out


@pytest.mark.parametrize("command, setting", [
    ("pretrain", "epochs=0"),
    ("pretrain", "batch_size=-4"),
    ("pretrain", "batch_size=0"),
    ("finetune", "epochs=0"),
    ("finetune", "batch_size=-4"),
    ("ablate", "epochs=0"),
])
def test_bad_epochs_or_batch_size_exit_1_and_write_nothing(tmp_path, capsys, command, setting):
    data_dir = gen(tmp_path, n_unlabeled=2, n_labeled=5)
    out_dir = tmp_path / "out"
    rc = cli_main([
        command, "--set", f"data_dir={data_dir}", "--set", f"out_dir={out_dir}",
        "--set", "epochs=1", "--set", "batch_size=2", "--set", setting,
    ])
    assert rc == 1
    assert "epochs and batch_size must be >= 1" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_pretrain_then_finetune_reruns_are_byte_identical(tmp_path, capsys):
    data_dir = gen(tmp_path, n_unlabeled=4, n_labeled=5, seed=2)
    out_dir = tmp_path / "out"
    fast = [
        "--set", f"data_dir={data_dir}", "--set", f"out_dir={out_dir}",
        "--set", "epochs=2", "--set", "batch_size=2", "--set", "checkpoint_every=1",
    ]
    capsys.readouterr()

    def run():
        shutil.rmtree(out_dir, ignore_errors=True)
        assert cli_main(["pretrain", *fast]) == 0
        assert cli_main(["finetune", "--checkpoint", str(out_dir / "pretrain.ckpt"), *fast]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return files, capsys.readouterr().out

    first = run()
    assert sorted(first[0]) == [
        "finetune_best.ckpt", "finetune_metrics.csv", "pretrain.ckpt", "pretrain_loss.csv",
    ]
    assert run() == first


def test_masking_that_keeps_nothing_is_refused_before_any_file_is_read(
    tmp_path, capsys, monkeypatch
):
    out_dir = tmp_path / "out"
    reads = []
    for name in ("scan_dataset", "load_stack", "load_labeled", "load_image"):
        monkeypatch.setattr(cli.D, name, lambda *a, name=name: reads.append(name))
    monkeypatch.setattr(cli, "load_checkpoint", lambda *a: reads.append("load_checkpoint"))
    rc = cli_main([
        "pretrain", "--set", f"data_dir={tmp_path}", "--set", f"out_dir={out_dir}",
        "--set", "mask_ratio=0.95",
    ])
    assert rc == 1
    assert "nothing kept" in capsys.readouterr().err
    assert reads == []
    assert not out_dir.exists()
    # reconstruct builds its model before it opens the checkpoint
    rc = cli_main([
        "reconstruct", "--checkpoint", str(tmp_path / "absent.ckpt"),
        "--image", str(tmp_path / "absent.ppm"), "--out", str(tmp_path / "r.ppm"),
        "--set", "mask_ratio=0.95",
    ])
    assert rc == 1
    assert "nothing kept" in capsys.readouterr().err
    # finetune and eval build the Swin-Unet spec before they read anything;
    # the desk stage side 8 is not divisible by a window of 3
    for command in ("finetune", "eval"):
        rc = cli_main([
            command, "--checkpoint", str(tmp_path / "absent.ckpt"),
            "--set", f"data_dir={tmp_path / 'missing'}", "--set", f"out_dir={out_dir}",
            "--set", "attn_window=3",
        ])
        assert rc == 1
        assert "not divisible by attention window" in capsys.readouterr().err
    assert reads == []
    assert not out_dir.exists()


def test_reconstruct_writes_triptych(tmp_path, capsys):
    data_dir = gen(tmp_path, n_unlabeled=2, n_labeled=1, seed=1)
    out_dir = tmp_path / "out"
    fast = [
        "--set", f"data_dir={data_dir}",
        "--set", f"out_dir={out_dir}",
        "--set", "epochs=1",
        "--set", "batch_size=2",
    ]
    assert cli_main(["pretrain", *fast]) == 0
    capsys.readouterr()
    image_path = scan_dataset(data_dir).unlabeled[0]
    trip = tmp_path / "trip.ppm"
    rc = cli_main([
        "reconstruct",
        "--checkpoint", str(out_dir / "pretrain.ckpt"),
        "--image", str(image_path), "--out", str(trip), *fast,
    ])
    assert rc == 0
    img = load_image(trip)
    assert img.shape == (3, 32, 3 * 32 + 2 * 2)


def test_grad_check_exits_zero(capsys):
    assert cli_main(["grad-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


@pytest.mark.parametrize("sets, depths", [
    ({}, (1, 1, 1, 1)),
    ({"stage_depths": "2,2", "head_counts": "2,4"}, (2, 2)),
])
def test_resolved_config_reads_back(tmp_path, sets, depths):
    cfg = RunConfig(**sets)
    path = tmp_path / "resolved.cfg"
    path.write_text(cfg.resolved())
    back = RunConfig.from_file(path)
    assert back.stage_depths == depths
    assert back._values == cfg._values
    assert back.resolved() == cfg.resolved()
    assert cli._model_spec(back) == cli._model_spec(cfg)


def test_malformed_tuple_fails_when_the_config_is_read(tmp_path, capsys):
    rc = cli_main([
        "gen-data", "--set", f"data_dir={tmp_path / 'd'}", "--set", "n_unlabeled=1",
        "--set", "n_labeled=1", "--set", "stage_depths=1,x",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_decoder_embedding_is_not_a_config_key():
    with pytest.raises(TensorError, match="unknown key 'decoder_embedding'"):
        RunConfig(decoder_embedding=True)


ABLATION_TAGS = [
    "none", "none+pe", "encoder-I", "encoder-I+pe", "encoder-II", "encoder-II+pe",
    "encoder-III", "decoder-vit", "decoder-swin", "decoder-swin+dw",
    "decoder-vit+de", "masking-random", "masking-window",
    "ratio-0.45", "ratio-0.6", "ratio-0.75", "ratio-0.9",
]


def run_ablate(tmp_path, *sets):
    data_dir = gen(tmp_path, n_unlabeled=4, n_labeled=5)
    out_dir = tmp_path / "ablate"
    sets = [f"data_dir={data_dir}", f"out_dir={out_dir}", "epochs=1",
            "batch_size=4", "augment=false", *sets]
    assert cli_main(["ablate", *(a for kv in sets for a in ("--set", kv))]) == 0
    header, *rows = (out_dir / "ablation.csv").read_text().splitlines()
    assert header == "experiment,dsc_pct,mpa_pct,miou_pct,hd"
    rows = [row.split(",") for row in rows]
    assert [row[0] for row in rows] == ABLATION_TAGS
    assert all(np.isfinite(float(v)) for row in rows for v in row[1:4])


def test_ablate_writes_every_suite(tmp_path, capsys):
    run_ablate(tmp_path)


def test_ablate_drops_vit_decoder_width_for_swin_row(tmp_path, capsys):
    run_ablate(tmp_path, "decoder_variant=VIT", "decoder_width=32")


def record_pretraining_modes(monkeypatch):
    """The mask mode of every pretraining that cli runs, in call order."""
    calls = []
    real = cli.run_pretraining

    def counted(model, *args, **kw):
        calls.append(model.spec.mask_mode)
        return real(model, *args, **kw)

    monkeypatch.setattr(cli, "run_pretraining", counted)
    return calls


def test_ablate_pretrains_each_distinct_configuration_once(tmp_path, capsys, monkeypatch):
    """encoder-III is decoder-vit's spec, and decoder-swin, masking-window
    and ratio-0.75 share the default one: 12 pretraining rows, 9 runs."""
    calls = record_pretraining_modes(monkeypatch)
    run_ablate(tmp_path)
    assert sorted(calls) == ["random"] + ["window"] * 8


def test_ablate_rows_without_a_mask_mode_take_the_configs(tmp_path, capsys, monkeypatch):
    """With mask_mode=random every pretraining row but masking-window
    pretrains with random masking, so the encoder-II spec, which can only
    pack whole windows, is refused when built and its rows are skipped."""
    calls = record_pretraining_modes(monkeypatch)
    data_dir = gen(tmp_path, n_unlabeled=4, n_labeled=5)
    out_dir = tmp_path / "ablate"
    sets = [f"data_dir={data_dir}", f"out_dir={out_dir}", "epochs=1",
            "batch_size=4", "augment=false", "mask_mode=random"]
    assert cli_main(["ablate", *(a for kv in sets for a in ("--set", kv))]) == 0
    assert sorted(calls) == ["random"] * 7 + ["window"]
    out = capsys.readouterr().out
    for tag in ("encoder-II", "encoder-II+pe"):
        assert f"{tag}: skipped (cannot pack the kept windows of a random-mode plan)" in out
    _, *rows = (out_dir / "ablation.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == [
        t for t in ABLATION_TAGS if t not in ("encoder-II", "encoder-II+pe")
    ]


def test_ablate_skips_every_row_whose_pretraining_fails(tmp_path, capsys, monkeypatch):
    """At mask ratio 0.95 window masking keeps nothing, so every row that
    pretrains with it is logged as skipped: its spec is refused when built,
    and only the 5 distinct pretrainings that can run are called."""
    calls = record_pretraining_modes(monkeypatch)
    data_dir = gen(tmp_path, n_unlabeled=8, n_labeled=6)
    out_dir = tmp_path / "ablate"
    sets = [f"data_dir={data_dir}", f"out_dir={out_dir}", "epochs=1", "mask_ratio=0.95"]
    assert cli_main(["ablate", *(a for kv in sets for a in ("--set", kv))]) == 0
    kept = ["none", "none+pe", "masking-random",
            "ratio-0.45", "ratio-0.6", "ratio-0.75", "ratio-0.9"]
    _, *rows = (out_dir / "ablation.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == kept
    out = capsys.readouterr().out
    for tag in ABLATION_TAGS:
        assert (f"{tag}: skipped (" in out) == (tag not in kept), tag
    assert len(calls) == 5


def test_grid_runs_each_configuration_once_in_row_seed_order(tmp_path, monkeypatch):
    """Rows that share a pretraining or a whole run reuse it at each seed;
    a configuration whose pretraining fails, or whose spec cannot be built,
    skips exactly its rows at every seed."""
    pretrains, finetunes = [], []

    def fake_pretraining(model, images, epochs, lr_max, batch_size, seed):
        pretrains.append((model.spec.mask_ratio, model.spec.mask_mode, seed))
        if model.spec.mask_ratio == 0.6:
            raise TensorError("pretraining failed")
        return [model.spec.mask_mode, seed]

    def fake_finetune(model, *data_and_schedule, augment):
        seed = data_and_schedule[-1]
        finetunes.append(seed)
        return [{"seed": seed, "call": len(finetunes)}], 0

    monkeypatch.setattr(cli, "run_pretraining", fake_pretraining)
    monkeypatch.setattr(cli, "run_finetune", fake_finetune)
    pe = dict(use_abs_pos_embed=True)
    rows = [
        ("scratch", None, {}),
        ("window", {}, {}),
        ("fails", dict(mask_ratio=0.6), {}),
        ("window-again", dict(mask_mode="window"), {}),
        ("random", dict(mask_mode="random"), {}),
        ("window+pe", {}, pe),
        ("no-spec", dict(encoder_variant="II", mask_ratio=0.5), {}),
        ("fails+pe", dict(mask_ratio=0.6), pe),
        ("scratch-again", None, {}),
    ]
    cfg = RunConfig(data_dir=gen(tmp_path), epochs=1, batch_size=4)
    seeds = (2, 0)
    results = cli.run_grid(rows, seeds, cfg, cfg)

    assert sorted(pretrains) == sorted(
        (ratio, mode, seed) for ratio, mode in ((0.75, "window"), (0.75, "random"), (0.6, "window"))
        for seed in seeds
    )
    # scratch, window, random and window+pe at each seed
    assert len(finetunes) == 8
    assert [len(runs) for runs in results] == [len(seeds)] * len(rows)
    by_tag = dict(zip((tag for tag, _, _ in rows), results))
    for tag in ("fails", "fails+pe", "no-spec"):
        assert all(isinstance(run, TensorError) for run in by_tag[tag]), tag
    assert by_tag["window-again"] == by_tag["window"]
    assert by_tag["scratch-again"] == by_tag["scratch"]
    assert by_tag["window+pe"] != by_tag["window"]
    for tag, mode in (("scratch", None), ("window", "window"), ("random", "random")):
        for seed, (history, ft_history, best) in zip(seeds, by_tag[tag]):
            assert history == (None if mode is None else [mode, seed])
            assert ft_history[0]["seed"] == seed and best == 0


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn_unlabeled = 2\nn_labeled = 1\n")
    data_dir = tmp_path / "d"
    rc = cli_main([
        "gen-data", "--config", str(cfg), "--set", f"data_dir={data_dir}",
    ])
    assert rc == 0
    assert "2 unlabeled + 1 labeled" in capsys.readouterr().out

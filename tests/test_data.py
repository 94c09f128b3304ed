import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swinmae.data import (
    DatasetManifest, ImageFormatError, emit_triptych, generate_synthetic_dataset,
    load_image, load_labeled, load_stack, save_pgm, save_ppm, scan_dataset,
    synth_pair,
)
from swinmae.masking import build_mask_plan, split_rng
from swinmae.tensor import TensorError


def test_ppm_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(3, 5, 7)).astype(np.uint8)
    path = tmp_path / "x.ppm"
    save_ppm(path, raw)
    back = load_image(path)
    assert back.shape == (3, 5, 7)
    np.testing.assert_array_equal(np.round(back * 255).astype(np.uint8), raw)


def test_ppm_float_quantization(tmp_path):
    img = np.zeros((3, 2, 2))
    img[0, 0, 0] = 1.0
    img[1, 0, 1] = 0.5
    path = tmp_path / "q.ppm"
    save_ppm(path, img)
    back = load_image(path)
    assert back[0, 0, 0] == 1.0
    assert back[1, 0, 1] == pytest.approx(128 / 255)


def test_pgm_roundtrip_preserves_class_ids(tmp_path):
    labels = np.array([[0, 1, 2], [2, 1, 0]])
    path = tmp_path / "x.pgm"
    save_pgm(path, labels)
    back = load_image(path)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, labels)


def test_load_rejects_malformed_files(tmp_path):
    for raw, match in [
        (b"P3\n2 2\n255\n", "unsupported"),
        (b"P6\n4 4\n255\n\x00\x01", "truncated"),
        (b"P5\n2 2\n65535\n" + b"\x00" * 8, "maxval"),
        # 30 bytes that claim 10^9 x 10^9 pixels
        (b"P6\n1000000000 1000000000\n255\n\x00", "truncated pixel data"),
        (b"P6\n2.5 2\n255\n" + b"\x00" * 15, "not a decimal integer"),
        (b"P5\n-2 2\n255\n" + b"\x00" * 4, "not a decimal integer"),
        (b"P5\n+2 2\n255\n" + b"\x00" * 4, "not a decimal integer"),
        (b"P6\n2 2 255 7\n" + b"\x00" * 12, "extra header fields"),
        (b"P6\n0 5\n255\n", "empty"),
        (b"P5\n5 0\n255\n", "empty"),
    ]:
        path = tmp_path / "bad.pnm"
        path.write_bytes(raw)
        with pytest.raises(ImageFormatError, match=match):
            load_image(path)


_TOKENS = st.one_of(
    st.integers(-3, 10**10).map(lambda n: str(n).encode()),
    st.sampled_from([b"255", b"#", b"\n", b"1_0", b"+1", b"2.0", b"9" * 5000]),
    st.binary(max_size=4),
)


def test_only_image_format_error_escapes_header_parsing(tmp_path):
    path = tmp_path / "fuzz.pnm"

    @settings(max_examples=400, deadline=None)
    @given(
        magic=st.sampled_from([b"P5", b"P6", b"P3", b""]),
        header=st.one_of(st.lists(_TOKENS, max_size=8).map(b" ".join), st.binary(max_size=40)),
        pixels=st.binary(max_size=24),
    )
    def check(magic, header, pixels):
        path.write_bytes(magic + header + b"\n" + pixels)
        try:
            load_image(path)
        except ImageFormatError:
            pass

    check()


def test_ppm_header_comments_tolerated(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + b"\x10" * 6)
    img = load_image(path)
    assert img.shape == (3, 1, 2)


# ------------------------------------------------------------ synthetic set


def test_synth_pair_label_structure():
    for seed in range(10):
        rng = split_rng(99, seed)
        image, labels = synth_pair(32, rng, labeled=True, with_tumor=True)
        assert image.shape == (3, 32, 32)
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert set(np.unique(labels)) == {0, 1, 2}
        # tumor pixels sit strictly inside the gland: every class-2 pixel's
        # 4-neighbourhood contains no background
        ys, xs = np.nonzero(labels == 2)
        for y, x in zip(ys, xs):
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ny, nx = y + dy, x + dx
                if 0 <= ny < 32 and 0 <= nx < 32:
                    assert labels[ny, nx] != 0


def test_synth_pair_without_tumor():
    image, labels = synth_pair(32, split_rng(0, 0), labeled=True, with_tumor=False)
    assert set(np.unique(labels)) == {0, 1}


def test_synth_pair_unlabeled_returns_none():
    image, labels = synth_pair(32, split_rng(0, 1), labeled=False)
    assert labels is None


def test_generator_writes_expected_files(tmp_path):
    manifest = generate_synthetic_dataset(4, 3, seed=0, out_dir=tmp_path)
    assert len(manifest.unlabeled) == 4
    assert len(manifest.labeled) == 3
    for p in manifest.unlabeled:
        assert load_image(p).shape == (3, 32, 32)
    images, labels = load_labeled(manifest.labeled)
    assert images.shape == (3, 3, 32, 32)
    assert labels.shape == (3, 32, 32)
    # even indices carry the tumor class, odd ones do not
    assert 2 in labels[0] and 2 in labels[2]
    assert 2 not in labels[1]


def test_generator_deterministic(tmp_path):
    m1 = generate_synthetic_dataset(2, 2, seed=5, out_dir=tmp_path / "a")
    m2 = generate_synthetic_dataset(2, 2, seed=5, out_dir=tmp_path / "b")
    for p1, p2 in zip(m1.unlabeled, m2.unlabeled):
        np.testing.assert_array_equal(load_image(p1), load_image(p2))
    m3 = generate_synthetic_dataset(2, 2, seed=6, out_dir=tmp_path / "c")
    assert not np.array_equal(load_image(m1.unlabeled[0]), load_image(m3.unlabeled[0]))


def test_scan_rebuilds_manifest(tmp_path):
    written = generate_synthetic_dataset(3, 2, seed=1, out_dir=tmp_path)
    scanned = scan_dataset(tmp_path)
    assert [str(p) for p in scanned.unlabeled] == [str(p) for p in written.unlabeled]
    assert [tuple(map(str, t)) for t in scanned.labeled] == [
        tuple(map(str, t)) for t in written.labeled
    ]


def test_scan_rejects_orphan_labeled_image(tmp_path):
    save_ppm(tmp_path / "labeled_00000.ppm", np.zeros((3, 4, 4)))
    with pytest.raises(TensorError, match="label map missing"):
        scan_dataset(tmp_path)


def test_split_deterministic_and_disjoint():
    labeled = [(f"img_{i:03d}.ppm", f"img_{i:03d}.pgm") for i in range(10)]
    m = DatasetManifest(root=".", labeled=list(labeled)).split(seed=3)
    assert len(m.train) == 8 and len(m.test) == 2
    assert set(m.train) & set(m.test) == set()
    assert set(m.train) | set(m.test) == set(range(10))
    m2 = DatasetManifest(root=".", labeled=list(labeled)).split(seed=3)
    assert (m.train, m.test) == (m2.train, m2.test)
    # insensitive to listing order: a shuffled manifest splits identically
    shuffled = [labeled[i] for i in np.random.default_rng(0).permutation(10)]
    m3 = DatasetManifest(root=".", labeled=shuffled).split(seed=3)
    assert sorted(shuffled[i][0] for i in m3.train) == sorted(
        labeled[i][0] for i in m.train
    )


def test_split_rejects_degenerate_sets():
    with pytest.raises(TensorError, match="empty"):
        DatasetManifest(root=".", labeled=[("a.ppm", "a.pgm")] * 2).split(
            seed=0, train_frac=1.0
        )


# ----------------------------------------------------------------- triptych


def test_triptych_layout_and_masking(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.random((3, 32, 32))
    recon = rng.random((3, 32, 32))
    plan = build_mask_plan(4, 2, 0.75, split_rng(0, 0))
    path = tmp_path / "t.ppm"
    out = emit_triptych(image, recon, plan, path, sep=2)
    assert out.shape == (3, 32, 3 * 32 + 2 * 2)
    back = load_image(path)
    assert back.shape == out.shape
    # right panel is the untouched ground truth
    np.testing.assert_allclose(back[:, :, -32:], image, atol=1.0 / 255)
    # masked windows in the left panel are flat gray
    mask = plan.pixel_mask(32, 32) > 0
    left = back[:, :, :32]
    assert np.allclose(left[:, mask], 128 / 255, atol=1.0 / 255)
    # visible pixels survive
    np.testing.assert_allclose(left[:, ~mask], image[:, ~mask], atol=1.0 / 255)


def test_triptych_shape_mismatch_rejected(tmp_path):
    plan = build_mask_plan(4, 2, 0.75, split_rng(0, 0))
    with pytest.raises(TensorError, match="mismatch"):
        emit_triptych(
            np.zeros((3, 32, 32)), np.zeros((3, 16, 16)), plan, tmp_path / "x.ppm"
        )


def test_load_stack_shapes(tmp_path):
    m = generate_synthetic_dataset(2, 1, seed=0, out_dir=tmp_path)
    stack = load_stack(m.unlabeled)
    assert stack.shape == (2, 3, 32, 32)
    assert stack.dtype == np.float64

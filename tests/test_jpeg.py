"""Baseline JPEG codec tests (ops/jpeg.py): bit-exact round-trip on
tile-constant images (the property the SQL oracle relies on), bounded
error on arbitrary images at quant=1, entropy-coding edge cases (byte
stuffing, ZRL runs, DC category extremes), container honesty."""

import numpy as np
import pytest

from triple_accel_ray.ops.jpeg import (
    ZIGZAG,
    UNZIGZAG,
    jpeg_decode,
    jpeg_encode,
)


def test_zigzag_is_a_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))
    assert np.array_equal(ZIGZAG[UNZIGZAG], np.arange(64))


def test_tile_constant_roundtrip_bit_exact():
    rng = np.random.default_rng(43)
    for _ in range(25):
        tw, th = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        tiles = rng.integers(0, 256, size=(th, tw), dtype=np.uint8)
        img = np.kron(tiles, np.ones((8, 8), np.uint8))
        out = jpeg_decode(jpeg_encode(img))
        assert np.array_equal(out, img)


def test_dc_category_extremes_exact():
    # v=0 -> DC=-1024 (category 11, the standard table's last DC symbol);
    # v=255 -> DC=1016; both constant blocks must round-trip exactly,
    # including the max-negative one's-complement bit pattern
    for v in (0, 255, 128, 1, 254):
        img = np.full((8, 8), v, np.uint8)
        assert np.array_equal(jpeg_decode(jpeg_encode(img)), img)


def test_dc_differential_across_blocks():
    # alternating extreme blocks exercise large +/- DC diffs per MCU
    row = np.concatenate([np.full((8, 8), 0, np.uint8),
                          np.full((8, 8), 255, np.uint8)], axis=1)
    img = np.tile(row, (2, 3))[:, :40]
    out = jpeg_decode(jpeg_encode(img))
    assert np.array_equal(out, img)


@pytest.mark.parametrize("shape", [(8, 8), (9, 10), (37, 53), (64, 8), (8, 64)])
def test_random_image_bounded_error(shape):
    # quant=1 keeps every rounded coefficient within 0.5 of exact, so the
    # reconstruction error per pixel is tightly bounded (measured <= 1)
    rng = np.random.default_rng(hash(shape) % (2**32))
    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    out = jpeg_decode(jpeg_encode(img))
    assert out.shape == img.shape
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 2


def test_gradient_and_flat_images_exact():
    grad = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert np.abs(jpeg_decode(jpeg_encode(grad)).astype(int) - grad).max() <= 2
    flat = np.zeros((24, 16), np.uint8)
    assert np.array_equal(jpeg_decode(jpeg_encode(flat)), flat)


def test_quant_table_is_honored():
    # a coarse table must produce a smaller file and a lossier image
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    fine = jpeg_encode(img)
    coarse = jpeg_encode(img, quant=np.full(64, 32))
    assert len(coarse) < len(fine)
    err_fine = np.abs(jpeg_decode(fine).astype(int) - img.astype(int)).max()
    err_coarse = np.abs(jpeg_decode(coarse).astype(int) - img.astype(int)).max()
    assert err_fine <= 2 < err_coarse


def test_byte_stuffing_survives():
    # high-entropy images reliably produce 0xFF bytes in the entropy
    # stream; every one must be stuffed and unstuffed transparently
    rng = np.random.default_rng(11)
    for seed in range(8):
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        buf = jpeg_encode(img)
        body = buf[2:-2]
        assert b"\xff\x00" in body  # stuffing actually exercised
        out = jpeg_decode(buf)
        assert np.abs(out.astype(int) - img.astype(int)).max() <= 2


def test_zrl_long_zero_runs():
    # one isolated high-frequency coefficient after >16 zigzag zeros
    # forces ZRL emission
    img = np.full((8, 8), 100, np.float64)
    img[7, 7] += 40.0
    img = img.astype(np.uint8)
    out = jpeg_decode(jpeg_encode(img))
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 2


def test_rejects_malformed():
    img = np.zeros((8, 8), np.uint8)
    buf = jpeg_encode(img)
    with pytest.raises(ValueError):
        jpeg_decode(b"NOTAJPEG" + buf)
    with pytest.raises((ValueError, NotImplementedError, KeyError, IndexError)):
        jpeg_decode(buf[: len(buf) // 2])  # truncated mid-stream
    with pytest.raises(ValueError):
        jpeg_encode(np.zeros((8, 8, 2), np.uint8))  # 2-channel: not a thing
    with pytest.raises(ValueError):
        jpeg_encode(np.zeros((8, 8, 3), np.uint8), subsampling="411")
    # progressive frame marker is refused honestly
    prog = bytearray(buf)
    sof = prog.find(b"\xff\xc0")
    prog[sof + 1] = 0xC2
    with pytest.raises(NotImplementedError):
        jpeg_decode(bytes(prog))


def test_decoder_reads_foreign_huffman_tables():
    """The decoder must build codes from the file's DHT, not assume the
    Annex-K defaults: re-encode with a permuted-value DC table and check
    the decode still round-trips. (Constructs the variant file by patching
    the DHT segment and re-encoding the entropy stream accordingly is
    overkill — instead, encode normally and verify the decoder actually
    parses the embedded tables by corrupting one DHT count and observing
    failure.)"""
    img = np.full((8, 8), 7, np.uint8)
    buf = bytearray(jpeg_encode(img))
    dht = buf.find(b"\xff\xc4")
    # zero out every BITS count in the DC table -> no code can decode
    for i in range(dht + 5, dht + 5 + 16):
        buf[i] = 0
    with pytest.raises(ValueError):
        jpeg_decode(bytes(buf))


# ------------------------------------------------------------- color

def test_color_tile_constant_is_exact_ycbcr_roundtrip():
    """16x16-tile-constant RGB decodes to exactly F(rgb) =
    ycbcr_to_rgb(rgb_to_ycbcr(rgb)) at quant=1 for every subsampling
    mode (DCT path bit-exact; only the integer color transform is
    lossy)."""
    from triple_accel_ray.ops.jpeg import (
        _rgb_to_ycbcr, _ycbcr_to_rgb, jpeg_decode, jpeg_encode)

    rng = np.random.default_rng(11)
    tiles = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
    img = np.kron(tiles, np.ones((16, 16, 1), np.uint8))
    want = _ycbcr_to_rgb(_rgb_to_ycbcr(img))
    for mode in ("444", "422", "420"):
        got = jpeg_decode(jpeg_encode(img, subsampling=mode))
        assert got.shape == img.shape and got.dtype == np.uint8
        assert (got == want).all(), mode


def test_color_444_bounded_error_random():
    """4:4:4 at quant=1 keeps every channel within the color-transform
    rounding envelope on arbitrary images (no subsampling loss)."""
    from triple_accel_ray.ops.jpeg import jpeg_decode, jpeg_encode

    rng = np.random.default_rng(12)
    img = rng.integers(0, 256, size=(21, 35, 3), dtype=np.uint8)
    got = jpeg_decode(jpeg_encode(img, subsampling="444"))
    # +-1 quantized-DCT reconstruction per YCbCr plane, amplified by up
    # to ~1.8 through the inverse color transform, plus the +-2 integer
    # YCbCr round trip
    assert np.abs(got.astype(int) - img.astype(int)).max() <= 6


def test_color_420_odd_dims_and_upsample():
    """Odd dims force edge replication + MCU padding + chroma crop on
    both sides; smooth content keeps bounded error through 2x2
    subsample/replicate."""
    from triple_accel_ray.ops.jpeg import jpeg_decode, jpeg_encode

    x = np.linspace(0, 255, 37)
    y = np.linspace(255, 0, 29)
    img = np.stack([np.tile(x, (29, 1)), np.tile(y[:, None], (1, 37)),
                    np.full((29, 37), 100.0)], axis=-1).astype(np.uint8)
    got = jpeg_decode(jpeg_encode(img, subsampling="420"))
    assert got.shape == img.shape
    assert np.abs(got.astype(int) - img.astype(int)).max() <= 8


def test_color_chroma_tables_used():
    """The encoded stream carries 4 DHT tables (luma+chroma DC/AC) and
    2 DQT tables, and a 3-component SOF0/SOS."""
    from triple_accel_ray.ops.jpeg import jpeg_encode

    img = np.zeros((16, 16, 3), np.uint8)
    buf = jpeg_encode(img, subsampling="420")
    assert buf.count(b"\xff\xc4") == 4
    assert buf.count(b"\xff\xdb") == 2
    i = buf.index(b"\xff\xc0")
    assert buf[i + 9] == 3                     # SOF0 Nf
    assert buf[i + 11] == 0x22                 # Y sampling 2x2


def test_grayscale_unchanged_by_color_support():
    """Legacy grayscale surface: 2D in -> 2D out, tile-exact."""
    from triple_accel_ray.ops.jpeg import jpeg_decode, jpeg_encode

    rng = np.random.default_rng(13)
    img = np.kron(rng.integers(0, 256, (3, 4), np.uint8),
                  np.ones((8, 8), np.uint8))
    out = jpeg_decode(jpeg_encode(img))
    assert out.ndim == 2 and (out == img).all()


def test_color_fixture_twins_agree():
    """synthesize_media_table_jpeg_rgb decodes to exactly the byte
    matrix its fakeimg twin stores (same rng draws)."""
    from triple_accel_ray.ops.jpeg import jpeg_decode
    from triple_accel_ray.ops.multimodal import (
        synthesize_media_table_jpeg_rgb, synthesize_media_table_tiles_rgb)

    jt = synthesize_media_table_jpeg_rgb(8, seed=44)
    tt = synthesize_media_table_tiles_rgb(8, seed=44)
    for i in range(8):
        rgb = jpeg_decode(jt["payload"][i].as_py())
        h, w3 = rgb.shape[0], rgb.shape[1] * 3
        twin = tt["payload"][i].as_py()
        assert int.from_bytes(twin[8:10], "little") == w3
        px = np.frombuffer(twin[12:], np.uint8).reshape(h, w3)
        assert (rgb.reshape(h, w3) == px).all()


def _encode_color_custom(img, samp, order, q=None):
    """Test-only mini encoder: baseline interleaved color JPEG with an
    arbitrary per-component sampling grid AND an arbitrary SCAN
    component order (the SOS list and the per-MCU data-unit interleave
    both follow ``order``). Mirrors ops.jpeg._encode_color; exists to
    produce the reordered-scan / non-divisor-grid files the library
    encoder deliberately never emits."""
    from triple_accel_ray.ops.jpeg import (
        AC_CHR_BITS, AC_CHR_VALS, AC_LUM_BITS, AC_LUM_VALS,
        DC_CHR_BITS, DC_CHR_VALS, DC_LUM_BITS, DC_LUM_VALS,
        _BitWriter, _blockify, _box, _canonical_codes, _dct_quant_zz,
        _encode_block, _rgb_to_ycbcr, _seg,
    )

    h, w = img.shape[:2]
    q = np.ones(64, np.int64) if q is None else q
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    ycc = _rgb_to_ycbcr(img)
    zzs = []
    for c, (hc, vc) in enumerate(samp):
        plane = ycc[..., c]
        if hc < hmax or vc < vmax:
            plane = _box(plane, vmax // vc, hmax // hc)
        zzs.append(_dct_quant_zz(
            _blockify(plane, h8=mcuy * vc * 8, w8=mcux * hc * 8) - 128.0, q))
    lum = (_canonical_codes(DC_LUM_BITS, DC_LUM_VALS),
           _canonical_codes(AC_LUM_BITS, AC_LUM_VALS))
    chro = (_canonical_codes(DC_CHR_BITS, DC_CHR_VALS),
            _canonical_codes(AC_CHR_BITS, AC_CHR_VALS))
    bw = _BitWriter()
    pred = [0, 0, 0]
    for my in range(mcuy):
        for mx in range(mcux):
            for c in order:
                hc, vc = samp[c]
                dc_c, ac_c = lum if c == 0 else chro
                for by in range(vc):
                    for bx in range(hc):
                        n = (my * vc + by) * (hc * mcux) + (mx * hc + bx)
                        pred[c] = _encode_block(bw, zzs[c][n], pred[c],
                                                dc_c, ac_c)
    bw.flush()
    out = bytearray(b"\xff\xd8")
    out += _seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += _seg(0xDB, bytes([0x00]) + bytes(q[ZIGZAG].astype(np.uint8)))
    out += _seg(0xDB, bytes([0x01]) + bytes(q[ZIGZAG].astype(np.uint8)))
    sof = bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big") + bytes([3])
    for c, (hc, vc) in enumerate(samp):
        sof += bytes([c + 1, (hc << 4) | vc, 0 if c == 0 else 1])
    out += _seg(0xC0, sof)
    out += _seg(0xC4, bytes([0x00]) + bytes(DC_LUM_BITS) + bytes(DC_LUM_VALS))
    out += _seg(0xC4, bytes([0x10]) + bytes(AC_LUM_BITS) + bytes(AC_LUM_VALS))
    out += _seg(0xC4, bytes([0x01]) + bytes(DC_CHR_BITS) + bytes(DC_CHR_VALS))
    out += _seg(0xC4, bytes([0x11]) + bytes(AC_CHR_BITS) + bytes(AC_CHR_VALS))
    sos = bytes([3])
    for c in order:
        sos += bytes([c + 1, 0x00 if c == 0 else 0x11])
    out += _seg(0xDA, sos + bytes([0, 63, 0]))
    out += bw.out
    out += b"\xff\xd9"
    return bytes(out)


def test_color_scan_order_differs_from_frame_order():
    """Round-4 advice: a scan listing components in a different order
    than the frame header must decode identically, not pair tables and
    sampling factors positionally. Same image, scan orders (Y,Cb,Cr)
    vs (Cr,Cb,Y) -> identical pixels, equal to the library encoder's
    canonical 4:4:4 output."""
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(16, 24, 3), dtype=np.uint8)
    canonical = jpeg_decode(jpeg_encode(img, subsampling="444"))
    fwd = jpeg_decode(_encode_color_custom(img, [(1, 1)] * 3, (0, 1, 2)))
    rev = jpeg_decode(_encode_color_custom(img, [(1, 1)] * 3, (2, 1, 0)))
    assert np.array_equal(fwd, canonical)
    assert np.array_equal(rev, canonical)
    # and with subsampled chroma (4:2:0), where wrong sampling factors
    # would desync the MCU block layout immediately
    samp420 = [(2, 2), (1, 1), (1, 1)]
    c420 = jpeg_decode(jpeg_encode(img, subsampling="420"))
    r420 = jpeg_decode(_encode_color_custom(img, samp420, (2, 1, 0)))
    assert np.array_equal(r420, c420)


def test_color_non_divisor_sampling_grid_decodes():
    """Round-4 advice: 3x1 luma with 1x1 chroma (3 does not divide into
    replication) used to crash in np.stack with a shape mismatch; the
    nearest-neighbor index upsample must decode it. Constant gray is
    bit-exact (Y=R, Cb=Cr=128 round-trips losslessly); constant color
    within the +-1 YCbCr integer-rounding envelope."""
    samp = [(3, 1), (1, 1), (1, 1)]
    gray = np.full((8, 24, 3), 77, np.uint8)
    out = jpeg_decode(_encode_color_custom(gray, samp, (0, 1, 2)))
    assert out.shape == gray.shape
    assert np.array_equal(out, gray)
    img = np.empty((8, 24, 3), np.uint8)
    img[..., 0], img[..., 1], img[..., 2] = 90, 160, 40
    out = jpeg_decode(_encode_color_custom(img, samp, (0, 1, 2)))
    assert out.shape == img.shape
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 1


def test_rejects_scan_listing_a_component_twice():
    """A corrupted SOS header naming Cb twice (and Cr never) is refused,
    not decoded as Cb data in Cr's place with a blank Cr plane."""
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    buf = bytearray(jpeg_encode(img, subsampling="444"))
    sos = buf.find(b"\xff\xda")
    # FF DA Lh Ll Ns (C1 T1) (C2 T2) (C3 T3): set C3 = C2
    assert buf[sos + 4] == 3
    buf[sos + 9] = buf[sos + 7]
    with pytest.raises(ValueError, match="twice"):
        jpeg_decode(bytes(buf))

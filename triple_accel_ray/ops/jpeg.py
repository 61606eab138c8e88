"""Baseline JPEG (ITU-T T.81) codec — pure numpy + stdlib, no libraries.

Closes the last multimodal "partial": rounds 1-2 stubbed JPEG behind a
NotImplementedError because no imaging library ships in the container.
But baseline JPEG needs nothing a library provides: the DCT is an 8x8
matrix product, entropy coding is canonical Huffman over (run, size)
symbols, and the container is a flat marker walk — all implementable
from the public spec. Scope (honestly bounded):

* grayscale (1 component) AND — since round 4 — 3-component YCbCr
  color: interleaved SOF0 scans, any integer sampling-factor grid on
  decode (4:4:4 / 4:2:2 / 4:2:0, chroma upsampled by replication),
  4:4:4 and 4:2:0 (2x2 box average) on encode, JFIF/CCIR-601 color
  transforms,
* baseline sequential DCT (SOF0) — progressive (SOF2), arithmetic
  coding, 12-bit precision, restart intervals and multi-scan
  non-interleaved color raise NotImplementedError,
* Huffman tables: the spec's Annex K "typical" luminance + chrominance
  tables are the encoder defaults; the decoder builds canonical codes
  from whatever (BITS, HUFFVAL) the file's DHT segments carry, so any
  baseline JPEG within the above frame scope decodes, not just our own.

Color exactness model: RGB->YCbCr rounds each plane to integers (lossy
by ±~2 through the round trip), but from there the integer YCbCr planes
round-trip BIT-EXACTLY at quant=1 on block-constant data (16x16-aligned
constants for 4:2:0 — the 2x2 chroma box average is exact on constants),
so decode(encode(rgb)) == _ycbcr_to_rgb(_rgb_to_ycbcr(rgb)) exactly:
the color twin fixtures store that deterministic image and the SQL
oracle byte-parses it (tests/test_jpeg.py pins this).

Exactness model (what the SQL oracle relies on): JPEG is lossy in
general, but an image whose 8x8-aligned blocks are each CONSTANT
round-trips BIT-EXACTLY at quant=1 — the forward DCT of a constant
block is DC-only (DC = 8*(v-128), an exact small integer; every AC term
is a constant times a cosine row-sum that is exactly zero in real
arithmetic and ~1e-13 in float64, rounding to 0), and the IDCT of a
DC-only block is exactly the constant back (8c * 1/8 in pure float64
products of exact dyadic factors). tests/test_codecs.py pins this, plus
a bounded-error property for arbitrary images.

Reference for the operator's ROLE (decode stage semantics): the
reference repo has no media path at all — this is part of the
engine-side training-data-pipeline surface the brief mandates.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------- tables

# zigzag scan order: ZIGZAG[k] = raster index of the k-th zigzag element
ZIGZAG = np.array([
    0,  1,  8, 16,  9,  2,  3, 10, 17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

# Annex K.3 typical luminance Huffman tables: BITS[i] = number of codes
# of length i+1, HUFFVAL = symbol values in code order.
DC_LUM_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUM_VALS = list(range(12))
AC_LUM_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUM_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

# Annex K.3 typical CHROMINANCE Huffman tables (round-4: color support)
DC_CHR_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHR_VALS = list(range(12))
AC_CHR_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHR_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]
assert sum(AC_CHR_BITS) == len(AC_CHR_VALS) == 162

# orthonormal 8x8 DCT basis: F = M @ B @ M.T is exactly the spec's
# F(u,v) = 1/4 C(u) C(v) sum f(x,y) cos((2x+1)u pi/16) cos((2y+1)v pi/16)
_M = np.zeros((8, 8))
for _u in range(8):
    _c = (1.0 / np.sqrt(2.0)) if _u == 0 else 1.0
    for _x in range(8):
        _M[_u, _x] = 0.5 * _c * np.cos((2 * _x + 1) * _u * np.pi / 16.0)
del _u, _c, _x


def _canonical_codes(bits, vals):
    """(BITS, HUFFVAL) -> {symbol: (code, length)} per spec C.2."""
    codes = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return codes


def _blockify(img: np.ndarray, h8: int | None = None, w8: int | None = None):
    """(h, w) plane -> float64 (nb, 8, 8) blocks in raster order,
    edge-replicated to the padded dims (default: next multiples of 8;
    color passes MCU-aligned targets)."""
    h, w = img.shape
    if h8 is None:
        h8 = -(-h // 8) * 8
    if w8 is None:
        w8 = -(-w // 8) * 8
    pad = np.empty((h8, w8), img.dtype)
    pad[:h, :w] = img
    if w8 > w:
        pad[:h, w:] = img[:, -1:]
    if h8 > h:
        pad[h:, :] = pad[h - 1, :]
    return (
        pad.reshape(h8 // 8, 8, w8 // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
        .astype(np.float64)
    )


# JFIF/CCIR-601 color transforms. Both directions are deterministic
# float64 + rint, so F = _ycbcr_to_rgb ∘ _rgb_to_ycbcr is a fixed
# integer-to-integer map: the color twin fixtures store F(rgb) and the
# DCT path round-trips the integer YCbCr planes bit-exactly at quant=1
# on block-constant data (module docstring).

def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    """uint8 (h, w, 3) RGB -> int64 (h, w, 3) YCbCr, rounded 0..255."""
    r = img[..., 0].astype(np.float64)
    g = img[..., 1].astype(np.float64)
    b = img[..., 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 + (b - y) * (0.5 / (1.0 - 0.114))
    cr = 128.0 + (r - y) * (0.5 / (1.0 - 0.299))
    return np.clip(np.rint(np.stack([y, cb, cr], axis=-1)), 0,
                   255).astype(np.int64)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """int64 (h, w, 3) YCbCr -> uint8 (h, w, 3) RGB, rounded/clipped."""
    y = ycc[..., 0].astype(np.float64)
    cb = ycc[..., 1].astype(np.float64) - 128.0
    cr = ycc[..., 2].astype(np.float64) - 128.0
    r = y + (2.0 - 2.0 * 0.299) * cr
    b = y + (2.0 - 2.0 * 0.114) * cb
    g = (y - 0.299 * r - 0.114 * b) / 0.587
    return np.clip(np.rint(np.stack([r, g, b], axis=-1)), 0,
                   255).astype(np.uint8)


def _box(plane: np.ndarray, fy: int, fx: int) -> np.ndarray:
    """fy x fx box downsample with round-half-up ((sum + n/2) // n);
    trailing rows/cols edge-replicated first. Exact on box-constant
    data."""
    h, w = plane.shape
    ph, pw = -(-h // fy) * fy, -(-w // fx) * fx
    if ph > h or pw > w:
        p = np.empty((ph, pw), plane.dtype)
        p[:h, :w] = plane
        if pw > w:
            p[:h, w:] = plane[:, -1:]
        if ph > h:
            p[h:, :] = p[h - 1, :]
        plane = p
    s = plane.reshape(ph // fy, fy, pw // fx, fx).astype(np.int64)
    s = s.sum(axis=(1, 3))
    n = fy * fx
    return (s + n // 2) // n


def _category(v: np.ndarray) -> np.ndarray:
    """JPEG magnitude category: number of bits of |v| (0 for v == 0)."""
    av = np.abs(v).astype(np.int64)
    cat = np.zeros_like(av)
    nz = av > 0
    cat[nz] = np.floor(np.log2(av[nz])).astype(np.int64) + 1
    return cat


class _BitWriter:
    __slots__ = ("out", "acc", "nbits")

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, value: int, length: int):
        if length == 0:
            return
        self.acc = (self.acc << length) | (value & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            b = (self.acc >> self.nbits) & 0xFF
            self.out.append(b)
            if b == 0xFF:          # byte stuffing (B.1.1.5)
                self.out.append(0x00)
        self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.put((1 << pad) - 1, pad)   # pad with 1-bits (F.1.2.3)


def _seg(marker: int, payload: bytes) -> bytes:
    return bytes([0xFF, marker]) + (len(payload) + 2).to_bytes(2, "big") + payload


def _dct_quant_zz(blocks: np.ndarray, q: np.ndarray) -> np.ndarray:
    """float64 (nb, 8, 8) level-shifted blocks -> int64 (nb, 64) zigzag
    quantized coefficients."""
    coefs = np.einsum("ux,nxy,vy->nuv", _M, blocks, _M, optimize=True)
    coefs = np.rint(coefs.reshape(-1, 64) / q.reshape(64)).astype(np.int64)
    return coefs[:, ZIGZAG]


def _encode_block(bw: _BitWriter, row: np.ndarray, pred: int,
                  dc_codes: dict, ac_codes: dict) -> int:
    """Entropy-encode one zigzag block; returns the new DC predictor."""
    v = int(row[0]) - pred
    cat = int(_category(np.array([v]))[0])
    code, ln = dc_codes[cat]
    bw.put(code, ln)
    if cat:
        bw.put(v if v > 0 else v + (1 << cat) - 1, cat)
    run = 0
    last_nz = int(np.max(np.nonzero(row)[0])) if (row[1:] != 0).any() else 0
    for k in range(1, last_nz + 1):
        a = int(row[k])
        if a == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_codes[0xF0]          # ZRL
            bw.put(code, ln)
            run -= 16
        cat = int(_category(np.array([a]))[0])
        code, ln = ac_codes[(run << 4) | cat]
        bw.put(code, ln)
        bw.put(a if a > 0 else a + (1 << cat) - 1, cat)
        run = 0
    if last_nz < 63:
        code, ln = ac_codes[0x00]              # EOB
        bw.put(code, ln)
    return int(row[0])


def _check_quant(quant, default=None) -> np.ndarray:
    q = (np.ones(64, np.int64) if quant is None and default is None
         else np.asarray(default if quant is None else quant,
                         np.int64).reshape(64))
    if (q < 1).any() or (q > 255).any():
        raise ValueError("quant entries must be 1..255")
    return q


def jpeg_encode(img: np.ndarray, quant: np.ndarray | None = None,
                subsampling: str = "420",
                quant_chroma: np.ndarray | None = None) -> bytes:
    """Encode a uint8 image as a baseline JPEG.

    * ``(h, w)``    — grayscale, single-component non-interleaved scan.
    * ``(h, w, 3)`` — RGB: JFIF YCbCr, interleaved SOF0 scan with
      ``subsampling`` ``"444"`` (no chroma subsampling) or ``"420"``
      (2x2 box-averaged chroma); Annex K chroma Huffman tables and a
      second quant table (``quant_chroma``, default = ``quant``).

    ``quant`` is the 64-entry quantization table in RASTER order
    (default: all ones — maximum fidelity, and exact on constant
    8x8-aligned — 16x16-aligned for 4:2:0 — blocks; see module
    docstring)."""
    img = np.asarray(img, np.uint8)
    if img.ndim == 2:
        return _encode_gray(img, _check_quant(quant))
    if img.ndim == 3 and img.shape[2] == 3:
        qy = _check_quant(quant)
        qc = _check_quant(quant_chroma, default=qy)
        return _encode_color(img, qy, qc, subsampling)
    raise ValueError("jpeg_encode: expected (h, w) or (h, w, 3) uint8")


def _encode_gray(img: np.ndarray, q: np.ndarray) -> bytes:
    h, w = img.shape
    if h == 0 or w == 0 or h > 0xFFFF or w > 0xFFFF:
        raise ValueError(f"jpeg_encode: bad dimensions {h}x{w}")
    zz = _dct_quant_zz(_blockify(img) - 128.0, q)
    dc_codes = _canonical_codes(DC_LUM_BITS, DC_LUM_VALS)
    ac_codes = _canonical_codes(AC_LUM_BITS, AC_LUM_VALS)
    bw = _BitWriter()
    pred = 0
    for n in range(zz.shape[0]):
        pred = _encode_block(bw, zz[n], pred, dc_codes, ac_codes)
    bw.flush()

    out = bytearray(b"\xff\xd8")               # SOI
    out += _seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += _seg(0xDB, bytes([0x00]) + bytes(q[ZIGZAG].astype(np.uint8)))
    out += _seg(0xC0, bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big")
                + bytes([1, 1, 0x11, 0]))
    out += _seg(0xC4, bytes([0x00]) + bytes(DC_LUM_BITS) + bytes(DC_LUM_VALS))
    out += _seg(0xC4, bytes([0x10]) + bytes(AC_LUM_BITS) + bytes(AC_LUM_VALS))
    out += _seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
    out += bw.out
    out += b"\xff\xd9"                         # EOI
    return bytes(out)


def _encode_color(img: np.ndarray, qy: np.ndarray, qc: np.ndarray,
                  subsampling: str) -> bytes:
    h, w = img.shape[:2]
    if h == 0 or w == 0 or h > 0xFFFF or w > 0xFFFF:
        raise ValueError(f"jpeg_encode: bad dimensions {h}x{w}")
    if subsampling == "444":
        samp = [(1, 1), (1, 1), (1, 1)]
    elif subsampling == "422":
        samp = [(2, 1), (1, 1), (1, 1)]
    elif subsampling == "420":
        samp = [(2, 2), (1, 1), (1, 1)]
    else:
        raise ValueError("subsampling must be '444', '422' or '420'")
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))

    ycc = _rgb_to_ycbcr(img)
    zzs = []                                   # per-comp (nb, 64) zigzag
    for c, (hc, vc) in enumerate(samp):
        plane = ycc[..., c]
        if hc < hmax or vc < vmax:             # subsampled chroma
            plane = _box(plane, vmax // vc, hmax // hc)
        zzs.append(_dct_quant_zz(
            _blockify(plane, h8=mcuy * vc * 8, w8=mcux * hc * 8) - 128.0,
            qy if c == 0 else qc))

    codes = [
        (_canonical_codes(DC_LUM_BITS, DC_LUM_VALS),
         _canonical_codes(AC_LUM_BITS, AC_LUM_VALS)),
        (_canonical_codes(DC_CHR_BITS, DC_CHR_VALS),
         _canonical_codes(AC_CHR_BITS, AC_CHR_VALS)),
    ]
    bw = _BitWriter()
    pred = [0, 0, 0]
    for my in range(mcuy):                     # interleaved MCU order (A.2.3)
        for mx in range(mcux):
            for c, (hc, vc) in enumerate(samp):
                dc_c, ac_c = codes[0 if c == 0 else 1]
                for by in range(vc):
                    for bx in range(hc):
                        n = (my * vc + by) * (hc * mcux) + (mx * hc + bx)
                        pred[c] = _encode_block(
                            bw, zzs[c][n], pred[c], dc_c, ac_c)
    bw.flush()

    out = bytearray(b"\xff\xd8")               # SOI
    out += _seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += _seg(0xDB, bytes([0x00]) + bytes(qy[ZIGZAG].astype(np.uint8)))
    out += _seg(0xDB, bytes([0x01]) + bytes(qc[ZIGZAG].astype(np.uint8)))
    sof = bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big") + bytes([3])
    for c, (hc, vc) in enumerate(samp):
        sof += bytes([c + 1, (hc << 4) | vc, 0 if c == 0 else 1])
    out += _seg(0xC0, sof)
    out += _seg(0xC4, bytes([0x00]) + bytes(DC_LUM_BITS) + bytes(DC_LUM_VALS))
    out += _seg(0xC4, bytes([0x10]) + bytes(AC_LUM_BITS) + bytes(AC_LUM_VALS))
    out += _seg(0xC4, bytes([0x01]) + bytes(DC_CHR_BITS) + bytes(DC_CHR_VALS))
    out += _seg(0xC4, bytes([0x11]) + bytes(AC_CHR_BITS) + bytes(AC_CHR_VALS))
    out += _seg(0xDA, bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]))
    out += bw.out
    out += b"\xff\xd9"                         # EOI
    return bytes(out)


class _HuffTable:
    """Spec F.2.2.3 DECODE support: per-length min/max codes + value ptr."""

    __slots__ = ("mincode", "maxcode", "valptr", "vals")

    def __init__(self, bits, vals):
        self.vals = list(vals)
        self.mincode = [0] * 17
        self.maxcode = [-1] * 17
        self.valptr = [0] * 17
        code = 0
        k = 0
        for length in range(1, 17):
            n = bits[length - 1]
            if n:
                self.valptr[length] = k
                self.mincode[length] = code
                code += n
                k += n
                self.maxcode[length] = code - 1
            code <<= 1


class _BitReader:
    __slots__ = ("bits", "pos")

    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, np.uint8))
        self.pos = 0

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        p = self.pos
        self.pos = p + n
        chunk = self.bits[p:p + n]
        if chunk.size < n:
            raise ValueError("jpeg: truncated entropy stream")
        v = 0
        for b in chunk:
            v = (v << 1) | int(b)
        return v

    def decode_symbol(self, tbl: _HuffTable) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read(1)
            if code <= tbl.maxcode[length]:
                return tbl.vals[tbl.valptr[length] + code - tbl.mincode[length]]
        raise ValueError("jpeg: invalid Huffman code")


def _extend(v: int, cat: int) -> int:
    """Spec F.2.2.1 EXTEND: cat-bit raw value -> signed coefficient."""
    return v if v >= (1 << (cat - 1)) else v - (1 << cat) + 1


def _decode_block(br: _BitReader, dc_tbl: _HuffTable, ac_tbl: _HuffTable,
                  pred: int, out_row: np.ndarray) -> int:
    """Entropy-decode one zigzag block into ``out_row``; returns the new
    DC predictor."""
    cat = br.decode_symbol(dc_tbl)
    diff = _extend(br.read(cat), cat) if cat else 0
    pred += diff
    out_row[0] = pred
    k = 1
    while k < 64:
        sym = br.decode_symbol(ac_tbl)
        if sym == 0x00:                        # EOB
            break
        if sym == 0xF0:                        # ZRL
            k += 16
            continue
        k += sym >> 4
        cat = sym & 0x0F
        if k > 63:
            raise ValueError("jpeg: coefficient index out of range")
        out_row[k] = _extend(br.read(cat), cat)
        k += 1
    return pred


def jpeg_decode(buf: bytes) -> np.ndarray:
    """Decode a baseline sequential JPEG -> uint8 (h, w) for grayscale,
    uint8 (h, w, 3) RGB for 3-component YCbCr frames (any integer
    sampling-factor grid, e.g. 4:4:4 / 4:2:2 / 4:2:0; chroma upsampled
    nearest-neighbor — exact sample replication on divisor grids, index
    mapping on non-divisor ones). Data-unit interleave and table lookup
    follow the scan's own component sequence, so a scan listing
    components in a different order than the frame header still decodes
    correctly.

    Raises NotImplementedError on progressive/extended/arithmetic frames,
    restart intervals, or multi-scan non-interleaved color — the honest
    boundary of this codec — and ValueError on malformed data."""
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    i = 2
    quant: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _HuffTable] = {}
    h = w = -1
    comps: list[tuple[int, int, int, int]] = []    # (cid, hc, vc, tq)
    scan: list[tuple[int, int, int]] = []          # (comp_idx, td, ta)
    entropy = None
    while i < len(buf):
        if buf[i] != 0xFF:
            raise ValueError(f"jpeg: expected marker at byte {i}")
        marker = buf[i + 1]
        if marker == 0xD9:                     # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            i += 2
            continue
        ln = int.from_bytes(buf[i + 2:i + 4], "big")
        seg = buf[i + 4:i + 2 + ln]
        if marker == 0xDB:                     # DQT
            j = 0
            while j < len(seg):
                pq, tq = seg[j] >> 4, seg[j] & 0x0F
                if pq != 0:
                    raise NotImplementedError("jpeg: 16-bit quant tables")
                tbl = np.frombuffer(seg[j + 1:j + 65], np.uint8).astype(np.int64)
                quant[tq] = tbl[UNZIGZAG]      # store in raster order
                j += 65
        elif marker == 0xC4:                   # DHT
            j = 0
            while j < len(seg):
                tc, th = seg[j] >> 4, seg[j] & 0x0F
                bits = list(seg[j + 1:j + 17])
                nv = sum(bits)
                vals = list(seg[j + 17:j + 17 + nv])
                if len(bits) < 16 or len(vals) < nv:
                    raise ValueError("jpeg: truncated DHT segment")
                huff[(tc, th)] = _HuffTable(bits, vals)
                j += 17 + nv
        elif marker == 0xC0:                   # SOF0 baseline
            if seg[0] != 8:
                raise NotImplementedError("jpeg: only 8-bit precision")
            h = int.from_bytes(seg[1:3], "big")
            w = int.from_bytes(seg[3:5], "big")
            nc = seg[5]
            if nc not in (1, 3):
                raise NotImplementedError(
                    f"jpeg: {nc}-component frames (grayscale or YCbCr)")
            comps = []
            for c in range(nc):
                cid = seg[6 + 3 * c]
                hv = seg[7 + 3 * c]
                comps.append((cid, hv >> 4, hv & 0x0F, seg[8 + 3 * c]))
            if any(hc < 1 or vc < 1 for _, hc, vc, _ in comps):
                raise ValueError("jpeg: bad sampling factors")
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"jpeg: frame type 0xFF{marker:02X} (baseline SOF0 only)")
        elif marker == 0xDD:
            raise NotImplementedError("jpeg: restart intervals (DRI)")
        elif marker == 0xDA:                   # SOS — entropy data follows
            ns = seg[0]
            if not comps:
                raise ValueError("jpeg: SOS before SOF")
            if ns != len(comps):
                raise NotImplementedError(
                    "jpeg: multi-scan non-interleaved color")
            by_id = {cid: idx for idx, (cid, *_r) in enumerate(comps)}
            scan = []
            for s in range(ns):
                cs = seg[1 + 2 * s]
                tt = seg[2 + 2 * s]
                if cs not in by_id:
                    raise ValueError("jpeg: scan references unknown component")
                scan.append((by_id[cs], tt >> 4, tt & 0x0F))
            if len({ci for ci, _, _ in scan}) != ns:
                # the MCU loop would decode one component's data units
                # twice per MCU and never fill the other's
                raise ValueError("jpeg: scan lists a component twice")
            j = i + 2 + ln
            k = j
            while k < len(buf) - 1:
                if buf[k] == 0xFF and buf[k + 1] not in (0x00,):
                    break
                k += 1 + (buf[k] == 0xFF)      # skip stuffed FF 00 as a pair
            entropy = buf[j:k].replace(b"\xff\x00", b"\xff")
            i = k
            continue
        i += 2 + ln
    if h < 0 or entropy is None or not scan:
        raise ValueError("jpeg: missing SOF/SOS")

    hmax = max(hc for _, hc, _, _ in comps)
    vmax = max(vc for _, _, vc, _ in comps)
    br = _BitReader(entropy)
    if len(comps) == 1:
        # single-component scan: data units in raster order of the
        # component's own block grid (A.2.2), MCU = one block
        _, hc, vc, tq = comps[0]
        _, td, ta = scan[0]
        nbx, nby = -(-w // 8), -(-h // 8)
        zz = np.zeros((nbx * nby, 64), np.int64)
        pred = 0
        dc_tbl, ac_tbl = huff[(0, td)], huff[(1, ta)]
        for n in range(nbx * nby):
            pred = _decode_block(br, dc_tbl, ac_tbl, pred, zz[n])
        return _idct_plane(zz, quant[tq], nbx, h, w)

    # interleaved 3-component scan (A.2.3): per-MCU, per-component
    # hc x vc data units; per-component DC predictors
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    zzs = [np.zeros(((vc * mcuy) * (hc * mcux), 64), np.int64)
           for _, hc, vc, _ in comps]
    preds = [0] * len(comps)
    # per-MCU data-unit order follows the SCAN's component sequence
    # (A.2.3); Huffman tables AND sampling factors are looked up by the
    # scan entry's own frame-component index ci — B.2.3 requires scan
    # order to equal frame order, but pairing them positionally would
    # silently decode garbage (wrong tables/factors per component) on a
    # reordered-scan file instead of handling it
    tbls = {ci: (huff[(0, td)], huff[(1, ta)]) for ci, td, ta in scan}
    for my in range(mcuy):
        for mx in range(mcux):
            for ci, _, _ in scan:
                _, hc, vc, _ = comps[ci]
                dc_tbl, ac_tbl = tbls[ci]
                for by in range(vc):
                    for bx in range(hc):
                        n = (my * vc + by) * (hc * mcux) + (mx * hc + bx)
                        preds[ci] = _decode_block(
                            br, dc_tbl, ac_tbl, preds[ci], zzs[ci][n])

    planes = []
    for (cid, hc, vc, tq), zz in zip(comps, zzs):
        ch = -(-h * vc // vmax)                # component dims (A.1.1)
        cw = -(-w * hc // hmax)
        plane = _idct_plane(zz, quant[tq], hc * mcux, ch, cw)
        if vc < vmax or hc < hmax:
            # nearest-neighbor index upsample: output pixel (y, x) reads
            # component pixel (y*vc//vmax, x*hc//hmax). Identical to
            # replication (np.repeat) when the factors divide the max;
            # unlike repeat it also covers non-divisor grids (e.g. 3x1
            # luma with 2x1 chroma) instead of a shape-mismatch crash
            rows = (np.arange(h, dtype=np.int64) * vc) // vmax
            cols = (np.arange(w, dtype=np.int64) * hc) // hmax
            plane = plane[rows][:, cols]
        planes.append(plane[:h, :w].astype(np.int64))
    return _ycbcr_to_rgb(np.stack(planes, axis=-1))


def _idct_plane(zz: np.ndarray, q: np.ndarray, nbx: int, h: int,
                w: int) -> np.ndarray:
    """(nb, 64) zigzag coefficients -> uint8 (h, w) plane (nbx blocks
    per row; h/w may be smaller than the padded block grid)."""
    nb = zz.shape[0]
    coefs = (zz * q[ZIGZAG])[:, UNZIGZAG].reshape(nb, 8, 8).astype(np.float64)
    blocks = np.einsum("ux,nuv,vy->nxy", _M, coefs, _M, optimize=True) + 128.0
    img = np.clip(np.rint(blocks), 0, 255).astype(np.uint8)
    h8 = (nb // nbx) * 8
    w8 = nbx * 8
    img = (
        img.reshape(nb // nbx, nbx, 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(h8, w8)
    )
    return img[:h, :w]

"""Multimodal column stages (image/audio/video as opaque binary).

Two codec tiers:
- REAL, in-container, pure numpy (+stdlib zlib for PNG) — no image/
  audio library needed: PNG (zlib inflate + all 5 filter types), PPM
  (P6), BMP (24-bpp uncompressed) and baseline + progressive JPEG
  (huffman + spectral-selection/successive-approximation scans + IDCT)
  decode; WAV (PCM16) decode + FFT spectral features; Y4M and
  MJPEG-in-AVI (RIFF parse + per-frame JPEG decode) frame sampling;
  nearest-neighbor resize; PPM/PNG/JPEG (baseline + progressive)/AVI
  encode. The real-codec path is exercisable end-to-end here (decode
  -> luminance histogram features, resize -> re-encode).
- STUBBED: inter-frame compressed video (H.264 etc.) and
  arithmetic-coded JPEG need codecs absent from this container; those
  payloads raise a clearly-marked NotImplementedError in real mode,
  and `fake=True` provides the deterministic content-derived test
  double for plumbing tests.

Contract: a multimodal table carries `(item_id:string, payload:binary,
media_type:string, meta:string-json)`. Decode stages are callable
classes over small batches (payloads are wide — batch_size must be
set from payload size, not row count). The pipelines here pass an
instance to map_batches, so each stage runs as a task function; a
stage with a costly constructor (a model load) would go to an actor
pool as the class.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa


# ---------------------------------------------------------------------------
# pure-numpy codecs (the in-container "real" tier)


def decode_ppm(payload: bytes) -> np.ndarray:
    """Binary PPM (P6) -> (h, w, 3) uint8. Handles whitespace-separated
    header fields and '#' comment lines per the netpbm spec."""
    if payload[:2] != b"P6":
        raise ValueError("not a P6 PPM payload")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        # skip whitespace and comments
        while pos < len(payload) and payload[pos : pos + 1].isspace():
            pos += 1
        if payload[pos : pos + 1] == b"#":
            while pos < len(payload) and payload[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(payload[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    n = w * h * 3
    arr = np.frombuffer(payload, dtype=np.uint8, count=n, offset=pos)
    return arr.reshape(h, w, 3)


def encode_ppm(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 -> binary PPM (P6) payload."""
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(img, dtype=np.uint8).tobytes()


def decode_bmp(payload: bytes) -> np.ndarray:
    """Uncompressed 24-bpp BMP (BITMAPINFOHEADER) -> (h, w, 3) uint8 RGB.
    Rows are stored bottom-up and padded to 4 bytes; pixels are BGR."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    data_off = int.from_bytes(payload[10:14], "little")
    w = int.from_bytes(payload[18:22], "little", signed=True)
    h = int.from_bytes(payload[22:26], "little", signed=True)
    bpp = int.from_bytes(payload[28:30], "little")
    compression = int.from_bytes(payload[30:34], "little")
    if bpp != 24 or compression != 0:
        raise ValueError(f"unsupported BMP (bpp={bpp}, compression={compression})")
    top_down = h < 0
    h = abs(h)
    stride = (w * 3 + 3) & ~3
    rows = np.frombuffer(payload, dtype=np.uint8, count=stride * h, offset=data_off)
    img = rows.reshape(h, stride)[:, : w * 3].reshape(h, w, 3)
    if not top_down:
        img = img[::-1]
    return img[:, :, ::-1].copy()  # BGR -> RGB


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def decode_png(payload: bytes) -> np.ndarray:
    """PNG -> (h, w, c) uint8, pure stdlib-zlib + numpy (no image lib).

    Supports the dominant web shapes: 8-bit depth, grayscale (color
    type 0), RGB (2) and RGBA (6), non-interlaced. All five scanline
    filters reconstruct correctly: None/Up are whole-row vector ops,
    Sub is a per-channel-lane cumsum (uint8 wraparound = mod-256
    arithmetic for free), Average/Paeth carry a true left dependency
    and run a per-pixel loop within the row — correctness-first; the
    in-repo encoder emits filter 0, so the hot roundtrip path stays
    fully vectorized."""
    import zlib

    if payload[: len(_PNG_SIG)] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos = len(_PNG_SIG)
    idat = bytearray()
    w = h = depth = ctype = interlace = None
    while pos + 8 <= len(payload):
        ln = int.from_bytes(payload[pos : pos + 4], "big")
        tag = payload[pos + 4 : pos + 8]
        body = payload[pos + 8 : pos + 8 + ln]
        pos += 12 + ln  # len + tag + body + crc
        if tag == b"IHDR":
            w = int.from_bytes(body[0:4], "big")
            h = int.from_bytes(body[4:8], "big")
            depth, ctype, interlace = body[8], body[9], body[12]
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    channels = {0: 1, 2: 3, 6: 4}.get(ctype)
    if w is None or depth != 8 or channels is None or interlace != 0:
        raise NotImplementedError(
            f"unsupported PNG (depth={depth}, color_type={ctype}, "
            f"interlace={interlace}); 8-bit gray/RGB/RGBA non-interlaced decode here"
        )
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    stride = w * channels
    rows = raw.reshape(h, stride + 1)
    filters = rows[:, 0]
    data = rows[:, 1:]
    out = np.zeros((h, stride), dtype=np.uint8)
    bpp = channels
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        f = filters[y]
        line = data[y]
        if f == 0:  # None
            rec = line.copy()
        elif f == 2:  # Up
            rec = line + prev  # uint8 wraps = mod 256
        elif f == 1:  # Sub: prefix sum per channel lane
            lanes = line.reshape(w, bpp).astype(np.uint64)
            rec = np.cumsum(lanes, axis=0).astype(np.uint8).reshape(stride)
        elif f == 3:  # Average
            rec = np.empty(stride, dtype=np.uint8)
            for x in range(stride):
                left = int(rec[x - bpp]) if x >= bpp else 0
                rec[x] = (int(line[x]) + ((left + int(prev[x])) >> 1)) & 0xFF
        elif f == 4:  # Paeth
            rec = np.empty(stride, dtype=np.uint8)
            for x in range(stride):
                a = int(rec[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                c = int(prev[x - bpp]) if x >= bpp else 0
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else (b if pb <= pc_ else c)
                rec[x] = (int(line[x]) + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter {f}")
        out[y] = rec
        prev = rec
    return out.reshape(h, w, channels)


def encode_png(img: np.ndarray) -> bytes:
    """(h, w) or (h, w, c) uint8 -> PNG bytes (filter 0, one zlib
    stream) — the minimal spec-valid writer, every row vectorized."""
    import struct
    import zlib

    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    ctype = {1: 0, 3: 2, 4: 6}[c]

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    flat = np.ascontiguousarray(img, dtype=np.uint8).reshape(h, w * c)
    scan = np.concatenate([np.zeros((h, 1), dtype=np.uint8), flat], axis=1)
    return (
        _PNG_SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(scan.tobytes(), 6))
        + chunk(b"IEND", b"")
    )


def resize_nearest(img: np.ndarray, scale: float) -> np.ndarray:
    """Nearest-neighbor resize by `scale` (pure index maps, no codec)."""
    h, w = img.shape[:2]
    nh, nw = max(int(round(h * scale)), 1), max(int(round(w * scale)), 1)
    ri = np.minimum((np.arange(nh) / scale).astype(np.int64), h - 1)
    ci = np.minimum((np.arange(nw) / scale).astype(np.int64), w - 1)
    return img[ri][:, ci]


def decode_image(payload: bytes, media_type: str | None = None) -> np.ndarray:
    """Dispatch on payload magic (authoritative) with media_type as the
    error-message hint. PPM/BMP/PNG/baseline-JPEG decode in pure numpy
    (+stdlib zlib for PNG); anything else is the declared stub."""
    if payload[:2] == b"P6":
        return decode_ppm(payload)
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[: len(_PNG_SIG)] == _PNG_SIG:
        img = decode_png(payload)
        if img.shape[2] == 1:  # grayscale -> RGB for a uniform contract
            img = np.repeat(img, 3, axis=2)
        elif img.shape[2] == 4:  # drop alpha
            img = img[:, :, :3].copy()
        return img
    if payload[:3] == b"\xff\xd8\xff":
        from .jpeg import decode_jpeg

        img = decode_jpeg(payload)
        if img.shape[2] == 1:
            img = np.repeat(img, 3, axis=2)
        return img
    raise NotImplementedError(
        f"no in-container codec for payload (media_type={media_type!r}); "
        "PPM (P6), 24-bpp BMP, 8-bit PNG and baseline+progressive JPEG "
        "decode here; compressed video needs libraries absent from this "
        "environment"
    )


MEDIA_SCHEMA = pa.schema(
    [
        ("item_id", pa.string()),
        ("payload", pa.binary()),
        ("media_type", pa.string()),
        ("meta", pa.string()),
    ]
)


def synthetic_media_table(n_rows: int, seed: int = 42, payload_bytes: int = 4096) -> pa.Table:
    """Deterministic fake media rows for exercising the plumbing."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes() for _ in range(n_rows)]
    kinds = [("image/png", {"w": 64, "h": 64}), ("audio/wav", {"sr": 16000, "sec": 1})]
    ids, types, metas = [], [], []
    for i in range(n_rows):
        t, m = kinds[i % len(kinds)]
        ids.append(f"item-{i:08d}")
        types.append(t)
        metas.append(json.dumps(m))
    return pa.table(
        {"item_id": ids, "payload": payloads, "media_type": types, "meta": metas},
        schema=MEDIA_SCHEMA,
    )


def synthetic_png_table(n_rows: int, seed: int = 43, w: int = 32, h: int = 24) -> pa.Table:
    """Deterministic REAL PNG payloads (stdlib-zlib codec, decodable
    in-container) — same gradient+noise pattern as the PPM twin, so the
    downstream feature stages are exercised over a compressed format."""
    rng = np.random.default_rng(seed)
    ids, payloads, metas = [], [], []
    gx = np.linspace(0, 255, w, dtype=np.float64)
    for i in range(n_rows):
        base = np.zeros((h, w, 3), dtype=np.float64)
        base[:, :, 0] = gx[None, :]
        base[:, :, 1] = np.linspace(0, 255, h)[:, None]
        base[:, :, 2] = (i * 53) % 256
        noise = rng.integers(0, 32, size=(h, w, 3))
        img = np.clip(base + noise, 0, 255).astype(np.uint8)
        ids.append(f"png-{i:08d}")
        payloads.append(encode_png(img))
        metas.append(json.dumps({"w": w, "h": h}))
    return pa.table(
        {
            "item_id": ids,
            "payload": payloads,
            "media_type": ["image/png"] * n_rows,
            "meta": metas,
        },
        schema=MEDIA_SCHEMA,
    )


def synthetic_jpeg_table(n_rows: int, seed: int = 44, w: int = 32,
                         h: int = 24, progressive: bool = False) -> pa.Table:
    """Deterministic REAL JPEG payloads (pure-numpy codec,
    stages/jpeg.py) — same gradient+noise pattern as the PNG twin;
    alternating 4:4:4 / 4:2:0 subsampling so the decoder's MCU
    interleave + chroma upsample paths are both exercised.
    progressive=True emits SOF2 multi-scan streams instead — the SAME
    coefficients reordered, so decode output is bit-identical to the
    baseline table's."""
    from .jpeg import encode_jpeg, encode_jpeg_progressive

    enc = encode_jpeg_progressive if progressive else encode_jpeg
    rng = np.random.default_rng(seed)
    ids, payloads, metas = [], [], []
    gx = np.linspace(0, 255, w, dtype=np.float64)
    for i in range(n_rows):
        base = np.zeros((h, w, 3), dtype=np.float64)
        base[:, :, 0] = gx[None, :]
        base[:, :, 1] = np.linspace(0, 255, h)[:, None]
        base[:, :, 2] = (i * 53) % 256
        noise = rng.integers(0, 32, size=(h, w, 3))
        img = np.clip(base + noise, 0, 255).astype(np.uint8)
        sub = "420" if i % 2 else "444"
        ids.append(f"jpg-{i:08d}")
        payloads.append(enc(img, quality=90, subsample=sub))
        metas.append(json.dumps({"w": w, "h": h, "subsample": sub}))
    return pa.table(
        {
            "item_id": ids,
            "payload": payloads,
            "media_type": ["image/jpeg"] * n_rows,
            "meta": metas,
        },
        schema=MEDIA_SCHEMA,
    )


def synthetic_ppm_table(n_rows: int, seed: int = 42, w: int = 32, h: int = 24) -> pa.Table:
    """Deterministic REAL PPM payloads (decodable in-container) — a
    gradient + per-item noise pattern, encoded P6."""
    rng = np.random.default_rng(seed)
    ids, payloads, metas = [], [], []
    gx = np.linspace(0, 255, w, dtype=np.float64)
    for i in range(n_rows):
        base = np.zeros((h, w, 3), dtype=np.float64)
        base[:, :, 0] = gx[None, :]
        base[:, :, 1] = np.linspace(0, 255, h)[:, None]
        base[:, :, 2] = (i * 37) % 256
        noise = rng.integers(0, 32, size=(h, w, 3))
        img = np.clip(base + noise, 0, 255).astype(np.uint8)
        ids.append(f"ppm-{i:08d}")
        payloads.append(encode_ppm(img))
        metas.append(json.dumps({"w": w, "h": h}))
    return pa.table(
        {
            "item_id": ids,
            "payload": payloads,
            "media_type": ["image/x-portable-pixmap"] * n_rows,
            "meta": metas,
        },
        schema=MEDIA_SCHEMA,
    )


class ImageDecode:
    """Map stage: binary payload -> decoded feature vector.

    Real mode decodes PPM/BMP payloads with the pure-numpy codecs above
    and emits a 16-bin luminance histogram; unsupported formats raise
    the declared NotImplementedError. `fake=True` keeps the
    content-derived byte-histogram double for plumbing tests.
    """

    FEATURE_DIM = 16

    def __init__(self, fake: bool = False):
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        types = batch["media_type"].to_pylist() if "media_type" in batch.column_names else [None] * len(batch)
        for payload, mtype in zip(batch["payload"].to_pylist(), types):
            if self.fake:
                arr = np.frombuffer(payload, dtype=np.uint8)
                # deterministic fake "embedding": bucketed byte histogram
                hist = np.bincount(arr >> 4, minlength=self.FEATURE_DIM)[: self.FEATURE_DIM]
                feats.append((hist / max(len(arr), 1)).astype(np.float32))
                continue
            img = decode_image(payload, mtype)
            luma = (
                0.299 * img[:, :, 0] + 0.587 * img[:, :, 1] + 0.114 * img[:, :, 2]
            ).astype(np.uint8)
            hist = np.bincount(luma.reshape(-1) >> 4, minlength=self.FEATURE_DIM)[
                : self.FEATURE_DIM
            ]
            feats.append((hist / max(luma.size, 1)).astype(np.float32))
        return batch.append_column(
            "features", pa.array([f.tolist() for f in feats], type=pa.list_(pa.float32()))
        )


class ImageResize:
    """Map stage: resize the image payload.

    Real mode decodes PPM/BMP with the numpy codecs, nearest-neighbor
    resizes, and re-encodes as PPM (meta w/h updated from the ACTUAL
    decoded dimensions); unsupported formats raise the declared
    NotImplementedError. Fake mode byte-strides the payload down to
    ~(w*h*scale^2) deterministically for plumbing tests.
    """

    def __init__(self, scale: float = 0.5, fake: bool = True):
        self.scale = scale
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_payload, out_meta = [], []
        stride = max(int(round(1 / (self.scale**2))), 1)
        types = batch["media_type"].to_pylist() if "media_type" in batch.column_names else None
        out_types = list(types) if types is not None else None
        for i, (payload, meta) in enumerate(
            zip(batch["payload"].to_pylist(), batch["meta"].to_pylist())
        ):
            # resize applies to image rows only; audio/video payloads
            # pass through untouched (a mixed media table must not have
            # its audio bytes decimated before frame sampling)
            if types is not None and not (types[i] or "").startswith("image"):
                out_payload.append(payload)
                out_meta.append(meta)
                continue
            m = json.loads(meta) if meta else {}
            if self.fake:
                out_payload.append(payload[::stride])
                for dim in ("w", "h"):
                    if dim in m:
                        m[dim] = int(m[dim] * self.scale)
            else:
                img = resize_nearest(decode_image(payload, types[i] if types else None), self.scale)
                out_payload.append(encode_ppm(img))
                m["h"], m["w"] = int(img.shape[0]), int(img.shape[1])
                # real mode transcodes every image to PPM; the column
                # must say so or downstream dispatch-by-declared-type
                # reads stale BMP metadata against PPM bytes
                if out_types is not None:
                    out_types[i] = "image/x-portable-pixmap"
            out_meta.append(json.dumps(m))
        batch = batch.set_column(
            batch.column_names.index("payload"), "payload",
            pa.array(out_payload, type=pa.binary()),
        )
        if out_types is not None and not self.fake:
            batch = batch.set_column(
                batch.column_names.index("media_type"), "media_type",
                pa.array(out_types, type=pa.string()),
            )
        return batch.set_column(
            batch.column_names.index("meta"), "meta", pa.array(out_meta, type=pa.string())
        )


class AudioFrameSample:
    """Map stage: sample N fixed-stride frames from an audio payload.

    Stubbed the same way: deterministic byte-stride sampling stands in
    for a real codec; the schema/stage/batch plumbing is the real part.
    """

    def __init__(self, n_frames: int = 4, frame_bytes: int = 256):
        self.n_frames = n_frames
        self.frame_bytes = frame_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        frames_col = []
        for payload in batch["payload"].to_pylist():
            n = len(payload)
            stride = max((n - self.frame_bytes) // max(self.n_frames - 1, 1), 1)
            frames = [
                payload[off : off + self.frame_bytes]
                for off in range(0, min(n, stride * self.n_frames), stride)
            ][: self.n_frames]
            frames_col.append(frames)
        return batch.append_column(
            "frames", pa.array(frames_col, type=pa.list_(pa.binary()))
        )


def decode_pipeline(
    ds,
    *,
    fake: bool = True,
    concurrency: int = 2,
    batch_size: int = 64,
    resize_scale: float | None = None,
):
    """[resize ->] image-decode + audio-frame-sample over a media dataset.

    Each stage is a task function capped at `concurrency` tasks at once:
    as chained actor pools they held every CPU of a one-CPU cluster
    and never finished. batch_size is small on purpose: payload bytes
    x batch x concurrency must fit the workers' heap (wide-row rule).
    `resize_scale` inserts the ImageResize stage ahead of the decode
    (payload shrink before feature extraction)."""
    if resize_scale is not None:
        ds = ds.map_batches(
            ImageResize(scale=resize_scale, fake=fake),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
    return ds.map_batches(
        ImageDecode(fake=fake),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    ).map_batches(
        AudioFrameSample(),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# real WAV (RIFF PCM16) codec — pure numpy/struct, no audio library


def encode_wav(samples: np.ndarray, sample_rate: int = 8000) -> bytes:
    """Mono or (n, ch) int16 samples -> canonical RIFF/WAVE PCM16 bytes."""
    import struct

    x = np.asarray(samples, dtype="<i2")
    n_ch = 1 if x.ndim == 1 else x.shape[1]
    data = x.tobytes()
    fmt = b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, n_ch, sample_rate, sample_rate * 2 * n_ch, 2 * n_ch, 16
    )
    hdr = b"RIFF" + struct.pack("<I", 4 + len(fmt) + 8 + len(data)) + b"WAVE"
    return hdr + fmt + b"data" + struct.pack("<I", len(data)) + data


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM16 -> (samples int16 [n] or [n, ch], sample_rate).
    Walks chunks (odd sizes padded per RIFF); only uncompressed 16-bit
    PCM decodes — anything else is the declared stub."""
    import struct

    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise NotImplementedError("payload is not a RIFF/WAVE container")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos : pos + 4]
        (sz,) = struct.unpack("<I", payload[pos + 4 : pos + 8])
        body = payload[pos + 8 : pos + 8 + sz]
        if cid == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + sz + (sz & 1)  # RIFF pads odd chunks
    if fmt is None or data is None:
        raise ValueError("malformed WAV: missing fmt or data chunk")
    audio_format, n_ch, sr, _, _, bits = fmt
    if audio_format != 1 or bits != 16:
        raise NotImplementedError(
            f"only PCM16 decodes in-container (format={audio_format}, bits={bits})"
        )
    x = np.frombuffer(data[: (len(data) // (2 * n_ch)) * 2 * n_ch], dtype="<i2")
    return (x if n_ch == 1 else x.reshape(-1, n_ch)), sr


def synthetic_wav_table(n_rows: int, seed: int = 42, sr: int = 8000, n_samples: int = 2048) -> pa.Table:
    """Deterministic seeded sine+noise PCM16 payloads."""
    rng = np.random.default_rng(seed)
    rows = {"item_id": [], "payload": [], "media_type": [], "meta": []}
    t = np.arange(n_samples) / sr
    for i in range(n_rows):
        f = 100 + 50 * (i % 17)
        amp = 0.2 + 0.6 * ((i % 5) / 4)
        wave = amp * np.sin(2 * np.pi * f * t) + 0.01 * rng.standard_normal(n_samples)
        pcm = np.clip(wave * 32767, -32768, 32767).astype(np.int16)
        rows["item_id"].append(f"wav{i:05d}")
        rows["payload"].append(encode_wav(pcm, sr))
        rows["media_type"].append("audio/wav")
        rows["meta"].append(json.dumps({"sr": sr, "n": n_samples, "freq": f}))
    return pa.table(
        {
            "item_id": pa.array(rows["item_id"], type=pa.string()),
            "payload": pa.array(rows["payload"], type=pa.binary()),
            "media_type": pa.array(rows["media_type"], type=pa.string()),
            "meta": pa.array(rows["meta"], type=pa.string()),
        }
    )


class AudioDecode:
    """Map stage: REAL WAV decode -> per-item acoustic features
    (duration, normalized RMS, zero-crossing rate, per-frame RMS).
    Same wide-row rule as images: batch_size from payload size."""

    def __init__(self, n_frames: int = 8):
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        dur, rms, zcr, frames = [], [], [], []
        for payload in batch["payload"].to_pylist():
            x, sr = decode_wav(payload)
            if x.ndim > 1:
                x = x.mean(axis=1)
            xf = x.astype(np.float64) / 32768.0
            dur.append(round(len(xf) / sr, 6))
            rms.append(round(float(np.sqrt(np.mean(xf**2))) if len(xf) else 0.0, 6))
            zcr.append(
                round(float(np.mean(np.diff(np.signbit(xf)) != 0)) if len(xf) > 1 else 0.0, 6)
            )
            k = max(len(xf) // self.n_frames, 1)
            usable = xf[: k * self.n_frames] if len(xf) >= self.n_frames else xf
            fr = (
                np.sqrt(np.mean(usable.reshape(-1, k) ** 2, axis=1))
                if len(usable) >= self.n_frames
                else np.array([rms[-1]])
            )
            frames.append(np.round(fr, 6).tolist())
        return pa.table(
            {
                "item_id": batch["item_id"],
                "duration_s": pa.array(dur, type=pa.float64()),
                "rms": pa.array(rms, type=pa.float64()),
                "zcr": pa.array(zcr, type=pa.float64()),
                "frame_rms": pa.array(frames, type=pa.list_(pa.float64())),
            }
        )


def _dct_matrix(n: int = 32) -> np.ndarray:
    k = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    return np.cos(np.pi * (x + 0.5) * k / n)


_DCT32 = _dct_matrix(32)


def phash64_batch(payloads: list[bytes]) -> np.ndarray:
    """Perceptual hashes (uint64) for a batch of image payloads — the
    image-space analog of SimHash: decode -> luma -> 32x32 -> 2D DCT-II
    (one batched einsum for the whole batch) -> top-left 8x8 low-
    frequency block thresholded at its median. Near-identical images
    (re-encode, slight noise, small edits) land within a few bits;
    unrelated images ~32 bits apart."""
    lumas = []
    for p in payloads:
        img = decode_image(p).astype(np.float64)
        luma = 0.299 * img[:, :, 0] + 0.587 * img[:, :, 1] + 0.114 * img[:, :, 2]
        h, w = luma.shape
        ri = np.minimum((np.arange(32) * h) // 32, h - 1)
        ci = np.minimum((np.arange(32) * w) // 32, w - 1)
        lumas.append(luma[ri][:, ci])
    X = np.stack(lumas)  # (n, 32, 32)
    F = np.einsum("kn,bnm,lm->bkl", _DCT32, X, _DCT32)  # batched D X D^T
    block = F[:, :8, :8].reshape(len(X), 64)[:, 1:]  # drop the DC term
    med = np.median(block, axis=1, keepdims=True)
    bits = block > med  # (n, 63)
    weights = (np.uint64(1) << np.arange(63, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


class AudioSpectral:
    """Map stage: REAL spectral features via numpy's FFT —
    per-item spectral centroid/rolloff (Hz) and log energy in four
    octave-ish bands, from the Hann-windowed magnitude spectrum of
    framed audio. The whole batch's frames go through ONE vectorized
    rfft call (frames stack across items), so the stage stays
    batch-vectorized even though payload decode is per-row."""

    def __init__(self, frame: int = 512, rolloff: float = 0.85):
        self.frame = frame
        self.rolloff = rolloff
        self.window = np.hanning(frame)

    def __call__(self, batch: pa.Table) -> pa.Table:
        frames, owner, srs = [], [], []
        for i, payload in enumerate(batch["payload"].to_pylist()):
            x, sr = decode_wav(payload)
            if x.ndim > 1:
                x = x.mean(axis=1)
            xf = x.astype(np.float64) / 32768.0
            n = (len(xf) // self.frame) * self.frame
            if n == 0:  # pad a short clip to one frame
                pad = np.zeros(self.frame)
                pad[: len(xf)] = xf
                fr = pad[None, :]
            else:
                fr = xf[:n].reshape(-1, self.frame)
            frames.append(fr)
            owner.extend([i] * len(fr))
            srs.append(sr)
        F = np.concatenate(frames) * self.window  # (total_frames, frame)
        mag = np.abs(np.fft.rfft(F, axis=1))  # one FFT for the batch
        owner = np.asarray(owner)
        n_items = len(srs)
        k = mag.shape[1]
        # per-item mean spectrum via bincount over the owner index
        spec = np.vstack([
            np.bincount(owner, weights=mag[:, j], minlength=n_items)
            for j in range(k)
        ]).T / np.maximum(np.bincount(owner, minlength=n_items), 1)[:, None]
        freqs = np.vstack([np.fft.rfftfreq(self.frame, d=1.0 / sr) for sr in srs])
        tot = spec.sum(axis=1)
        safe = np.maximum(tot, 1e-12)
        centroid = (spec * freqs).sum(axis=1) / safe
        cum = np.cumsum(spec, axis=1)
        ro_idx = np.argmax(cum >= self.rolloff * safe[:, None], axis=1)
        rolloff_hz = freqs[np.arange(n_items), ro_idx]
        # four log-spaced band energies (log1p, rounded)
        edges = np.array([0.0, 0.02, 0.08, 0.25, 1.01]) * (k - 1)
        bands = np.vstack([
            spec[:, int(lo) : max(int(hi), int(lo) + 1)].sum(axis=1)
            for lo, hi in zip(edges[:-1], edges[1:])
        ]).T
        return pa.table({
            "item_id": batch["item_id"],
            "centroid_hz": pa.array(np.round(centroid, 3)),
            "rolloff_hz": pa.array(np.round(rolloff_hz, 3)),
            "band_log_energy": pa.array(
                [np.round(np.log1p(b), 6).tolist() for b in bands],
                type=pa.list_(pa.float64()),
            ),
        })


# ---------------------------------------------------------------------------
# video: Y4M (YUV4MPEG2) — a REAL, pure-numpy-decodable container
# (plain-text stream header + uncompressed C420 frames), so the video
# frame-sample path is exercisable in-container without codec libs.


def encode_y4m(frames: np.ndarray, fps: int = 25) -> bytes:
    """frames: (n, h, w) uint8 LUMA planes; chroma written as flat 128
    (C420jpeg: per frame w*h luma bytes + 2 * (w/2*h/2) chroma)."""
    n, h, w = frames.shape
    assert h % 2 == 0 and w % 2 == 0, (h, w)
    out = [f"YUV4MPEG2 W{w} H{h} F{fps}:1 Ip A1:1 C420jpeg\n".encode()]
    chroma = np.full((h // 2) * (w // 2), 128, dtype=np.uint8).tobytes()
    for i in range(n):
        out.append(b"FRAME\n")
        out.append(frames[i].tobytes())
        out.append(chroma)
        out.append(chroma)
    return b"".join(out)


def decode_y4m(payload: bytes) -> tuple[np.ndarray, int]:
    """Returns ((n_frames, h, w) uint8 luma, fps). Zero-copy per frame
    via np.frombuffer slices; chroma planes are skipped, not copied."""
    nl = payload.index(b"\n")
    header = payload[:nl].decode("ascii", "replace").split()
    if not header or header[0] != "YUV4MPEG2":
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = 0
    fps = 25
    for tok in header[1:]:
        if tok.startswith("W"):
            w = int(tok[1:])
        elif tok.startswith("H"):
            h = int(tok[1:])
        elif tok.startswith("F"):
            num, den = tok[1:].split(":")
            fps = max(1, int(round(int(num) / int(den))))
        elif tok.startswith("C") and not tok.startswith("C420"):
            raise ValueError(f"unsupported chroma mode {tok}")
    if not w or not h:
        raise ValueError("Y4M header missing W/H")
    luma_n, chroma_n = w * h, 2 * (w // 2) * (h // 2)
    frame_n = len(b"FRAME\n") + luma_n + chroma_n
    pos = nl + 1
    frames = []
    while pos + frame_n <= len(payload) + chroma_n:  # last chroma may be exact end
        fh_end = payload.index(b"\n", pos)  # FRAME line (may carry params)
        if not payload[pos:fh_end].startswith(b"FRAME"):
            raise ValueError("bad FRAME marker")
        start = fh_end + 1
        if start + luma_n > len(payload):
            break
        luma = np.frombuffer(payload, dtype=np.uint8, count=luma_n, offset=start)
        frames.append(luma.reshape(h, w))
        pos = start + luma_n + chroma_n
        if pos >= len(payload):
            break
    if not frames:
        raise ValueError("no frames")
    return np.stack(frames), fps


def synthetic_y4m_table(
    n_rows: int, seed: int = 42, w: int = 32, h: int = 24, n_frames: int = 12
) -> pa.Table:
    """Deterministic Y4M clips: a moving bright square over a per-row
    base gray — frame k's luma mean is analytically checkable."""
    rng = np.random.default_rng(seed)
    payloads, ids = [], []
    for i in range(n_rows):
        base = int(rng.integers(20, 120))
        frames = np.full((n_frames, h, w), base, dtype=np.uint8)
        for k in range(n_frames):
            x = (3 * k) % (w - 8)
            frames[k, 4:12, x : x + 8] = 235
        payloads.append(encode_y4m(frames, fps=25))
        ids.append(i)
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "payload": pa.array(payloads, type=pa.binary()),
        "media_type": pa.array(["video/x-yuv4mpeg"] * n_rows),
    })


# ---------------------------------------------------------------------------
# video: MJPEG-in-AVI — a REAL compressed-video path. The RIFF/AVI
# container is pure struct parsing and every '00dc' chunk is a complete
# baseline JPEG, decoded by the in-repo pure-numpy codec (stages/jpeg.py)
# — no external video library.


def _riff_chunks(buf: bytes, pos: int, end: int):
    """Yield (fourcc, payload_start, payload_size) walking a RIFF chunk
    sequence; chunks are word-aligned (odd sizes pad one byte)."""
    while pos + 8 <= end:
        fourcc = buf[pos : pos + 4]
        size = int.from_bytes(buf[pos + 4 : pos + 8], "little")
        yield fourcc, pos + 8, size
        pos += 8 + size + (size & 1)


def encode_avi_mjpeg(frames: np.ndarray, fps: int = 25, quality: int = 90) -> bytes:
    """(n, h, w) uint8 luma frames -> minimal MJPEG AVI: RIFF('AVI ')
    with an hdrl LIST (avih + one 'vids'/'MJPG' stream), a movi LIST of
    '00dc' chunks (one grayscale baseline JPEG per frame, word-padded)
    and an idx1 index."""
    import struct

    from .jpeg import encode_jpeg

    n, h, w = frames.shape
    jpegs = [encode_jpeg(frames[i], quality=quality) for i in range(n)]
    max_sz = max(len(j) for j in jpegs)

    avih = struct.pack(
        "<IIIIIIIIIIIIII",
        1_000_000 // max(fps, 1),  # MicroSecPerFrame
        max_sz * fps,  # MaxBytesPerSec
        0,  # PaddingGranularity
        0x10,  # AVIF_HASINDEX
        n, 0, 1,  # TotalFrames, InitialFrames, Streams
        max_sz, w, h, 0, 0, 0, 0,
    )
    strh = struct.pack(
        "<4s4sIHHIIIIIIIIhhhh",
        b"vids", b"MJPG", 0, 0, 0, 0,
        1, fps,  # Scale, Rate (Rate/Scale = fps)
        0, n, max_sz, 0xFFFFFFFF, 0,  # Start, Length, BufSize, Quality, SampleSize
        0, 0, w, h,  # rcFrame
    )
    strf = struct.pack(
        "<IiiHH4sIiiII", 40, w, h, 1, 24, b"MJPG", w * h * 3, 0, 0, 0, 0
    )

    def chunk(fourcc: bytes, body: bytes) -> bytes:
        return fourcc + len(body).to_bytes(4, "little") + body + (b"\x00" * (len(body) & 1))

    def lst(kind: bytes, body: bytes) -> bytes:
        return chunk(b"LIST", kind + body)

    strl = lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf))
    hdrl = lst(b"hdrl", chunk(b"avih", avih) + strl)

    movi_body = b"movi"
    idx = []
    for j in jpegs:
        idx.append((len(movi_body), len(j)))
        movi_body += chunk(b"00dc", j)
    movi = chunk(b"LIST", movi_body)
    idx1 = chunk(
        b"idx1",
        b"".join(
            struct.pack("<4sIII", b"00dc", 0x10, off, sz) for off, sz in idx
        ),
    )
    return chunk(b"RIFF", b"AVI " + hdrl + movi + idx1)


def decode_avi_mjpeg(payload: bytes) -> tuple[list[bytes], int, int, int]:
    """MJPEG AVI -> (list of per-frame JPEG payloads, fps, w, h). Walks
    the RIFF tree; frames are the '..dc'/'..db' chunks of the movi LIST
    (each a standalone baseline JPEG for MJPG streams)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"AVI ":
        raise ValueError("not a RIFF/AVI payload")
    fps, w, h = 25, 0, 0
    frames: list[bytes] = []
    for cc, start, size in _riff_chunks(payload, 12, len(payload)):
        if cc != b"LIST":
            continue
        kind = payload[start : start + 4]
        if kind == b"hdrl":
            for cc2, s2, sz2 in _riff_chunks(payload, start + 4, start + size):
                if cc2 == b"avih" and sz2 >= 40:
                    usec = int.from_bytes(payload[s2 : s2 + 4], "little")
                    fps = max(1, round(1_000_000 / usec)) if usec else 25
                    w = int.from_bytes(payload[s2 + 32 : s2 + 36], "little")
                    h = int.from_bytes(payload[s2 + 36 : s2 + 40], "little")
        elif kind == b"movi":
            for cc2, s2, sz2 in _riff_chunks(payload, start + 4, start + size):
                if cc2[2:4] in (b"dc", b"db"):
                    frames.append(payload[s2 : s2 + sz2])
    if not frames:
        raise ValueError("no MJPEG frames in AVI")
    return frames, fps, w, h


def synthetic_mjpeg_table(
    n_rows: int, seed: int = 45, w: int = 32, h: int = 24, n_frames: int = 8
) -> pa.Table:
    """Deterministic MJPEG-AVI clips — same moving-bright-square luma
    pattern as the Y4M twin, so frame stats are analytically checkable
    (within baseline-JPEG quantization loss)."""
    rng = np.random.default_rng(seed)
    payloads, ids = [], []
    for i in range(n_rows):
        base = int(rng.integers(20, 120))
        frames = np.full((n_frames, h, w), base, dtype=np.uint8)
        for k in range(n_frames):
            x = (3 * k) % (w - 8)
            frames[k, 4:12, x : x + 8] = 235
        payloads.append(encode_avi_mjpeg(frames, fps=25))
        ids.append(i)
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "payload": pa.array(payloads, type=pa.binary()),
        "media_type": pa.array(["video/x-msvideo"] * n_rows),
    })


class VideoFrameSample:
    """Map stage: decode video (dispatch on payload magic — Y4M
    uncompressed or MJPEG-AVI via the pure-numpy JPEG codec), sample
    every `stride`-th frame, emit per-item clip stats + per-sampled-
    frame luma means. Stateful setup (none needed here, but the class
    shape matches the image/audio stages so a codec lib slots in via
    __init__)."""

    def __init__(self, stride: int = 4):
        self.stride = stride

    def _luma_frames(self, payload: bytes) -> tuple[np.ndarray, int, int]:
        """(sampled luma planes, fps, total frame count)."""
        if payload[:4] == b"RIFF":
            from .jpeg import decode_jpeg

            jpegs, fps, _w, _h = decode_avi_mjpeg(payload)
            decoded = []
            for j in jpegs[:: self.stride]:
                img = decode_jpeg(j)
                decoded.append(img[:, :, 0] if img.ndim == 3 else img)
            # keep (total frame count, sampled planes) semantics: the
            # stride is applied BEFORE decode so skipped frames never
            # pay the JPEG huffman+IDCT cost
            return np.stack(decoded), fps, len(jpegs)
        frames, fps = decode_y4m(payload)
        return frames[:: self.stride], fps, len(frames)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        n_frames, fpss, means, dims = [], [], [], []
        for payload in batch["payload"].to_pylist():
            sampled, fps, total = self._luma_frames(payload)
            n_frames.append(total)
            fpss.append(fps)
            means.append(sampled.reshape(len(sampled), -1).mean(axis=1))
            dims.append((sampled.shape[2], sampled.shape[1]))
        return pa.table({
            "media_id": pa.array(ids),
            "n_frames": pa.array(np.array(n_frames, dtype=np.int64)),
            "fps": pa.array(np.array(fpss, dtype=np.int64)),
            "n_sampled": pa.array(np.array([len(m) for m in means], dtype=np.int64)),
            "width": pa.array(np.array([d[0] for d in dims], dtype=np.int64)),
            "height": pa.array(np.array([d[1] for d in dims], dtype=np.int64)),
            "frame_luma_mean": pa.array(
                [np.round(m, 6).tolist() for m in means], type=pa.list_(pa.float64())
            ),
        })

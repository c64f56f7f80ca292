"""On-disk formats.

Tensor container (bit-exact): ASCII magic ``TENB``, version byte 0x01,
dtype byte (0=f32, 1=f64, 2=u8), ndim byte, then ndim little-endian u32
extents, then the row-major little-endian payload.

Bundles (checkpoints, measurements): a UTF-8 manifest of lines
``name<TAB>offset<TAB>length``, a single blank line, then concatenated
containers; offsets are relative to the first byte after the blank line.

Frame export: binary PGM (P5) / PPM (P6), 8-bit.
Config files: flat ``key = value`` text, ``#`` comments.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"TENB"
VERSION = 0x01

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}


class FormatError(ValueError):
    """Raised on malformed container bytes or unsupported dtypes."""


def tensor_to_bytes(arr):
    arr = np.asarray(arr)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # keeps 0-d rank, unlike unconditional use
    if arr.dtype not in _CODE_FOR:
        raise FormatError(f"unsupported dtype {arr.dtype}; use f32, f64 or u8")
    if arr.ndim > 255:
        raise FormatError("too many dimensions")
    header = MAGIC + bytes([VERSION, _CODE_FOR[arr.dtype], arr.ndim])
    header += b"".join(struct.pack("<I", d) for d in arr.shape)
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return header + payload


def tensor_from_bytes(buf, offset=0):
    """Parse one container; returns (array, bytes consumed)."""
    if buf[offset:offset + 4] != MAGIC:
        raise FormatError("bad magic, not a TENB container")
    if len(buf) - offset < 7:
        raise FormatError("truncated container header")
    if buf[offset + 4] != VERSION:
        raise FormatError(f"unsupported version {buf[offset + 4]}")
    code = buf[offset + 5]
    if code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code}")
    ndim = buf[offset + 6]
    pos = offset + 7
    if len(buf) - pos < 4 * ndim:
        raise FormatError(f"truncated container extents ({ndim} expected)")
    shape = list(struct.unpack_from(f"<{ndim}I", buf, pos))
    pos += 4 * ndim
    dtype = _DTYPE_CODES[code]
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    nbytes = count * dtype.itemsize
    if len(buf) - pos < nbytes:
        raise FormatError("truncated container payload")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).reshape(shape)
    return arr.copy(), pos + nbytes - offset


def write_tensor(path, arr):
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(arr))


def read_tensor(path):
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, used = tensor_from_bytes(buf)
    if used != len(buf):
        raise FormatError(f"trailing bytes after container ({len(buf) - used})")
    return arr


# -- bundles ------------------------------------------------------------------

def write_bundle(path, arrays):
    """Write named tensors as manifest + concatenated containers."""
    blobs = []
    entries = []
    offset = 0
    for name, arr in arrays.items():
        if "\t" in name or "\n" in name:
            raise FormatError(f"invalid bundle entry name {name!r}")
        blob = tensor_to_bytes(np.asarray(arr))
        entries.append(f"{name}\t{offset}\t{len(blob)}")
        blobs.append(blob)
        offset += len(blob)
    manifest = ("\n".join(entries) + "\n\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(manifest)
        for blob in blobs:
            fh.write(blob)


def read_bundle(path):
    with open(path, "rb") as fh:
        buf = fh.read()
    sep = buf.find(b"\n\n")
    if sep < 0:
        raise FormatError("bundle manifest terminator not found")
    manifest = buf[:sep].decode("utf-8")
    base = sep + 2
    arrays = {}
    for line in manifest.splitlines():
        if not line:
            continue
        try:
            name, offset_s, length_s = line.split("\t")
            offset, length = int(offset_s), int(length_s)
        except ValueError as exc:
            raise FormatError(f"malformed manifest line {line!r}") from exc
        arr, used = tensor_from_bytes(buf, base + offset)
        if used != length:
            raise FormatError(f"container length mismatch for {name!r}")
        arrays[name] = arr
    return arrays


# -- measurement / checkpoint helpers --------------------------------------------

def write_measurement(path, measurement):
    write_bundle(path, {
        "y": measurement.y.astype(np.float64),
        "meta.b": np.float64(measurement.b),
        "meta.color": np.float64(0.0 if measurement.color_mode == "gray" else 1.0),
        "meta.noise_sigma": np.float64(measurement.noise_sigma),
    })


def read_measurement(path):
    from .forward_model import Measurement
    arrays = read_bundle(path)
    for key in ("y", "meta.b", "meta.color", "meta.noise_sigma"):
        if key not in arrays:
            raise FormatError(f"measurement bundle missing entry {key!r}")
    color = "gray" if float(arrays["meta.color"]) == 0.0 else "bayer_rggb"
    return Measurement(y=arrays["y"], b=int(arrays["meta.b"]),
                       color_mode=color, noise_sigma=float(arrays["meta.noise_sigma"]))


_CONFIG_META_KEYS = ("channels", "blocks", "split", "heads",
                     "in_channels", "out_channels", "train_b")


def write_checkpoint(path, params, config):
    arrays = {f"meta.{key}": np.float64(getattr(config, key))
              for key in _CONFIG_META_KEYS}
    arrays.update(params.state_arrays())
    write_bundle(path, arrays)


def read_checkpoint(path):
    """Returns (config, {param name: array})."""
    from .network import NetworkConfig
    arrays = read_bundle(path)
    kwargs = {}
    for key in _CONFIG_META_KEYS:
        full = f"meta.{key}"
        if full not in arrays:
            raise FormatError(f"checkpoint missing config entry {full!r}")
        kwargs[key] = int(arrays.pop(full))
    return NetworkConfig(**kwargs), arrays


# -- PGM / PPM frame export -------------------------------------------------------

def _to_u8(plane):
    return (np.clip(plane, 0.0, 1.0) * 255.0).round().astype(np.uint8)


def write_pgm(path, plane):
    """Binary P5, 8-bit grayscale from values in [0, 1]."""
    data = _to_u8(plane)
    if data.ndim != 2:
        raise FormatError(f"PGM expects a 2-D plane, got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_ppm(path, rgb):
    """Binary P6, 8-bit RGB from a [3, H, W] array in [0, 1]."""
    data = _to_u8(rgb)
    if data.ndim != 3 or data.shape[0] != 3:
        raise FormatError(f"PPM expects [3, H, W], got shape {data.shape}")
    h, w = data.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.transpose(1, 2, 0).tobytes())


def export_frames(directory, cube, prefix="frame"):
    """Write one PGM (gray) or PPM (color) per frame; returns the paths."""
    import os
    os.makedirs(directory, exist_ok=True)
    paths = []
    for m in range(cube.b):
        if cube.channels == 1:
            path = os.path.join(directory, f"{prefix}_{m:04d}.pgm")
            write_pgm(path, cube.frames[m, 0])
        else:
            path = os.path.join(directory, f"{prefix}_{m:04d}.ppm")
            write_ppm(path, cube.frames[m])
        paths.append(path)
    return paths


# -- flat key = value config files ----------------------------------------------

def parse_kv(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values

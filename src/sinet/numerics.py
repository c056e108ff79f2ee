"""Dense float64 vector/matrix substrate: a named parameter store with
gradient buffers, deterministic init, finite-difference gradient checking,
and the binary checkpoint format.

Vectors are 1-D float64 ndarrays, matrices 2-D float64 ndarrays (row-major).
Everything downstream computes on these.
"""

import math
import struct
import zlib

import numpy as np

CHECKPOINT_MAGIC = b"SINCKPT1"


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed."""


def init_param(shape, seed):
    """Deterministic fan-scaled uniform init: entries ~ U[-a, a], a = sqrt(6/(fan_in+fan_out)).

    For matrices fan_in = cols, fan_out = rows; for vectors both equal the dim.
    Same (shape, seed) always yields bit-identical values.
    """
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    if any(s <= 0 for s in shape) or len(shape) not in (1, 2):
        raise ShapeError(f"init_param: invalid shape {shape}")
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    else:
        fan_in = fan_out = shape[0]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.default_rng(seed)
    return rng.uniform(-a, a, size=shape)


def seed_for(seed, name):
    """Stable per-name sub-seed so init does not depend on creation order."""
    return np.random.SeedSequence([int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))])


def derive_seed(seed, label):
    """Integer sub-seed for a labelled stream (data, init, shuffle, ...).

    Distinct labels give independent streams; the result is stable across
    runs and platforms.
    """
    return int(seed_for(seed, label).generate_state(1, dtype=np.uint64)[0])


class Param:
    """A named value with a same-shaped gradient accumulation buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        if self.value.ndim not in (1, 2):
            raise ShapeError(f"param {name!r}: rank must be 1 or 2, got shape {self.value.shape}")
        self.grad = np.zeros_like(self.value)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


class ParamStore:
    """Map from hierarchical name to Param; iteration is sorted by name."""

    def __init__(self):
        self._entries = {}

    def create(self, name, value):
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Param(name, value)
        self._entries[name] = p
        return p

    def __getitem__(self, name):
        return self._entries[name]

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def names(self):
        return sorted(self._entries)

    def items(self):
        for name in self.names():
            yield name, self._entries[name]

    def params(self):
        for name in self.names():
            yield self._entries[name]

    def zero_grads(self):
        for p in self._entries.values():
            p.grad[...] = 0.0


def grad_check(loss_fn, store, names, eps=1e-5):
    """Compare analytic gradients against central differences.

    loss_fn is a zero-argument closure over `store` that returns a scalar loss
    and accumulates analytic gradients into the store's grad buffers. Returns
    the max over the entries of the parameters `names` of |analytic -
    numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    store.zero_grads()
    base = float(loss_fn())
    if not np.isfinite(base):
        raise FloatingPointError("grad_check: loss is non-finite at the base point")
    analytic = {name: p.grad.copy() for name, p in store.items()}

    max_rel = 0.0
    for name in names:
        p = store[name]
        flat = p.value.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for k in range(flat.shape[0]):
            orig = flat[k]
            flat[k] = orig + eps
            loss_p = float(loss_fn())
            flat[k] = orig - eps
            loss_m = float(loss_fn())
            flat[k] = orig
            if not (np.isfinite(loss_p) and np.isfinite(loss_m)):
                raise FloatingPointError(f"grad_check: non-finite loss while perturbing {name!r}")
            numeric = (loss_p - loss_m) / (2.0 * eps)
            rel = abs(a_flat[k] - numeric) / max(1e-8, abs(a_flat[k]) + abs(numeric))
            if rel > max_rel:
                max_rel = rel
    return max_rel


def save_checkpoint(path, store):
    """Write all entries: magic, u32 count, then per entry name/rank/dims/data.

    All integers are unsigned 32-bit little-endian; data is row-major float64
    little-endian.
    """
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(store)))
        for name, p in store.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", p.value.ndim))
            for d in p.value.shape:
                f.write(struct.pack("<I", d))
            f.write(p.value.astype("<f8").tobytes(order="C"))


def load_checkpoint(path):
    """Read a checkpoint back into a fresh ParamStore. Fatal on any corruption."""
    store = ParamStore()
    with open(path, "rb") as f:
        data = f.read()

    def take(n, offset, what):
        if offset + n > len(data):
            raise CheckpointError(f"truncated checkpoint: needed {n} bytes for {what} at offset {offset}")
        return data[offset:offset + n], offset + n

    chunk, off = take(len(CHECKPOINT_MAGIC), 0, "magic")
    if chunk != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {chunk!r}; expected {CHECKPOINT_MAGIC.decode()!r}")
    chunk, off = take(4, off, "entry count")
    (count,) = struct.unpack("<I", chunk)
    for i in range(count):
        chunk, off = take(4, off, f"name length of entry {i}")
        (name_len,) = struct.unpack("<I", chunk)
        chunk, off = take(name_len, off, f"name of entry {i}")
        try:
            name = chunk.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"name of entry {i} at offset {off - name_len} is not UTF-8: {e}")
        chunk, off = take(4, off, f"rank of {name!r}")
        (rank,) = struct.unpack("<I", chunk)
        if rank not in (1, 2):
            raise CheckpointError(f"entry {name!r}: unsupported rank {rank} at offset {off - 4}")
        dims = []
        for _ in range(rank):
            chunk, off = take(4, off, f"dims of {name!r}")
            dims.append(struct.unpack("<I", chunk)[0])
        # exact: dims up to 2**32 - 1 each overflow an int64 product
        n_elem = math.prod(dims)
        chunk, off = take(8 * n_elem, off, f"data of {name!r}")
        value = np.frombuffer(chunk, dtype="<f8").reshape(dims).copy()
        if not np.isfinite(value).all():
            raise CheckpointError(f"entry {name!r}: NaN or inf value")
        store.create(name, value)
    if off != len(data):
        raise CheckpointError(f"trailing {len(data) - off} bytes after last entry at offset {off}")
    return store

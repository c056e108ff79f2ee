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
from numpy.lib.stride_tricks import as_strided

from .inputs import reading

CHECKPOINT_MAGIC = b"SINCKPT1"


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


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
    """A named value with a same-shaped gradient accumulation buffer.

    In a laid-out model (ParamStore.lay_out) both arrays are views into the
    model's value and gradient buffers, so every update writes into them
    (p.value[...] = v, p.grad += g) and neither is ever rebound. Given only
    a value, a Param owns a copy of it and a zeroed gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value, grad=None):
        self.name = name
        self.value = np.array(value, dtype=np.float64) if grad is None else value
        if self.value.ndim not in (1, 2):
            raise ShapeError(f"param {name!r}: rank must be 1 or 2, got shape {self.value.shape}")
        self.grad = np.zeros_like(self.value) if grad is None else grad

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


class ParamStack:
    """Same-shaped parameters of one laid-out store seen as one: (k, ...)
    views of their values and of their gradients (ParamStore.stack)."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value, self.grad = value, grad


class ParamStore:
    """Map from hierarchical name to Param; iteration is sorted by name.

    A model is laid out once (lay_out): one float64 buffer holds every
    value and another every gradient, in layout order, and each Param is a
    view of its span of both. create adds a Param with arrays of its own."""

    def __init__(self):
        self._entries = {}
        self._spans = {}          # name -> its slice of the buffers, once laid out
        self._merged = {}         # names -> spans(names)
        self.values = self.grads = None

    def create(self, name, value):
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Param(name, value)
        self._entries[name] = p
        return p

    def lay_out(self, entries):
        """Register (name, initial value) pairs as the store's one model, laid
        out in the order given."""
        if self._entries:
            raise ValueError("a model is laid out once, in an empty store")
        entries = [(name, np.asarray(value, dtype=np.float64)) for name, value in entries]
        bounds = np.cumsum([0] + [value.size for _, value in entries])
        self.values = np.empty(bounds[-1])
        self.grads = np.zeros(bounds[-1])
        for (name, value), lo, hi in zip(entries, bounds, bounds[1:]):
            if name in self._entries:
                raise ValueError(f"duplicate parameter name {name!r}")
            view = self.values[lo:hi].reshape(value.shape)
            view[...] = value
            self._entries[name] = Param(name, view, self.grads[lo:hi].reshape(value.shape))
            self._spans[name] = slice(int(lo), int(hi))

    def span(self, name):
        """The slice of the buffers a parameter of a laid-out store holds."""
        return self._spans[name]

    def spans(self, names):
        """The buffer slices the named parameters of a laid-out store cover,
        adjacent ones merged, in layout order. Kept per list of names, so a
        training step asks for them at no cost."""
        key = tuple(names)
        if key not in self._merged:
            merged = []
            for span in sorted((self._spans[name] for name in names), key=lambda s: s.start):
                if merged and merged[-1].stop == span.start:
                    merged[-1] = slice(merged[-1].start, span.stop)
                else:
                    merged.append(span)
            self._merged[key] = merged
        return self._merged[key]

    def stack(self, names):
        """A ParamStack over same-shaped parameters of a laid-out store whose
        spans are evenly spaced, in the order given: entry k of either view
        is the k-th parameter's array, memory shared."""
        first = self._entries[names[0]].value
        starts = [self._spans[name].start for name in names]
        steps = set(np.diff(starts).tolist()) or {0}
        if len(steps) != 1 or any(self._entries[name].value.shape != first.shape
                                  for name in names):
            raise ValueError(f"parameters {names} are not evenly spaced and of one shape")
        shape = (len(names),) + first.shape
        strides = (steps.pop() * first.itemsize,) + first.strides
        return ParamStack(*(as_strided(buf[starts[0]:], shape, strides)
                            for buf in (self.values, self.grads)))

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
    """Read a checkpoint back into a fresh ParamStore. FileError, path first,
    on any corruption."""
    with reading(path):
        store = ParamStore()
        with open(path, "rb") as f:
            data = f.read()

        def take(n, offset, what):
            if offset + n > len(data):
                raise ValueError(f"truncated checkpoint: needed {n} bytes for {what} "
                                 f"at offset {offset}")
            return data[offset:offset + n], offset + n

        chunk, off = take(len(CHECKPOINT_MAGIC), 0, "magic")
        if chunk != CHECKPOINT_MAGIC:
            raise ValueError(f"bad magic {chunk!r}; expected {CHECKPOINT_MAGIC.decode()!r}")
        chunk, off = take(4, off, "entry count")
        (count,) = struct.unpack("<I", chunk)
        for i in range(count):
            chunk, off = take(4, off, f"name length of entry {i}")
            (name_len,) = struct.unpack("<I", chunk)
            chunk, off = take(name_len, off, f"name of entry {i}")
            try:
                name = chunk.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError(f"name of entry {i} at offset {off - name_len} is not UTF-8: {e}")
            if name in store:
                raise ValueError(f"entry {i} at offset {off - name_len} repeats the name {name!r}")
            chunk, off = take(4, off, f"rank of {name!r}")
            (rank,) = struct.unpack("<I", chunk)
            if rank not in (1, 2):
                raise ValueError(f"entry {name!r}: unsupported rank {rank} at offset {off - 4}")
            dims = []
            for _ in range(rank):
                chunk, off = take(4, off, f"dims of {name!r}")
                dims.append(struct.unpack("<I", chunk)[0])
            # exact: dims up to 2**32 - 1 each overflow an int64 product
            n_elem = math.prod(dims)
            chunk, off = take(8 * n_elem, off, f"data of {name!r}")
            value = np.frombuffer(chunk, dtype="<f8").reshape(dims).copy()
            if not np.isfinite(value).all():
                raise ValueError(f"entry {name!r}: NaN or inf value")
            store.create(name, value)
        if off != len(data):
            raise ValueError(f"trailing {len(data) - off} bytes after last entry at offset {off}")
        return store

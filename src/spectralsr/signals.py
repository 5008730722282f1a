"""Multisinusoidal scene sampling, signal synthesis, and spectrum targets.

Digital frequencies live on [-0.5, 0.5) cycles/sample and are periodic on
the unit circle; all distances here wrap accordingly.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"SSR1"
_DTYPE_CODES = {"complex128": 1, "float64": 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def wrapped_distance(f1, f2):
    """Shortest distance between digital frequencies on the unit circle."""
    d = np.abs(np.asarray(f1) - np.asarray(f2)) % 1.0
    return np.minimum(d, 1.0 - d)


@dataclass
class FrequencyScene:
    """Ground truth: component frequencies and complex amplitudes."""

    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        self.freqs = np.atleast_1d(np.asarray(self.freqs, dtype=np.float64))
        self.amps = np.atleast_1d(np.asarray(self.amps, dtype=np.complex128))
        if self.freqs.shape != self.amps.shape:
            raise ValueError("freqs and amps must have matching lengths")
        if not np.all(np.isfinite(self.freqs)):
            raise ValueError("frequencies must be finite")
        if self.count < 1:
            raise ValueError("a scene needs at least one component")

    @property
    def count(self):
        return len(self.freqs)


AMP_RANGE = (0.1, 1.0)  # a sampled scene's amplitude moduli are log-uniform on this


@dataclass
class SceneConfig:
    """Scene sampler settings; min_separation defaults to 1/(2*n_sr)."""

    l_min: int = 1
    l_max: int = 10
    n_sr: int = 4096
    min_separation: float | None = None
    max_tries: int = 10000

    def separation(self):
        if self.min_separation is not None:
            return self.min_separation
        return 1.0 / (2.0 * self.n_sr)


def sample_scene(rng, cfg=None):
    """Draw one scene: L uniform on [l_min, l_max], frequencies uniform on
    [-0.5, 0.5) rejected until the wrapped min-spacing constraint holds,
    amplitude moduli log-uniform on ``AMP_RANGE`` with uniform phase."""
    cfg = cfg or SceneConfig()
    count = int(rng.integers(cfg.l_min, cfg.l_max + 1))
    sep = cfg.separation()
    freqs = []
    for _ in range(cfg.max_tries):
        f = float(rng.uniform(-0.5, 0.5))
        if all(wrapped_distance(f, g) >= sep for g in freqs):
            freqs.append(f)
            if len(freqs) == count:
                break
    else:
        raise RuntimeError(
            f"scene sampling failed: could not place {count} frequencies with "
            f"spacing {sep} in {cfg.max_tries} tries"
        )
    mod = np.exp(rng.uniform(np.log(AMP_RANGE[0]), np.log(AMP_RANGE[1]), size=count))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return FrequencyScene(np.array(freqs), mod * np.exp(1j * phase))


def synthesize(scene, n, snr_db=np.inf, rng=None):
    """Render s[t] = sum_l a_l exp(j 2 pi f_l t) plus circular white noise.

    The noise power is set against the empirical power of the noiseless
    samples so the realized SNR matches ``snr_db`` exactly per scene;
    ``snr_db`` of +inf (or None) means noiseless; -inf, NaN, or an SNR so
    low that the noise scale overflows raises ``ValueError``.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    t = np.arange(n)
    clean = (scene.amps[:, None] * np.exp(2j * np.pi * scene.freqs[:, None] * t)).sum(axis=0)
    if snr_db is None or snr_db == np.inf:
        return clean
    if not np.isfinite(snr_db):
        raise ValueError(f"SNR must be finite or inf (noiseless), got {snr_db}")
    power = np.mean(np.abs(clean) ** 2)
    if power == 0.0:
        raise ValueError("SNR undefined for a zero signal")
    if rng is None:
        raise ValueError("a random stream is required for noisy synthesis")
    with np.errstate(divide="ignore", over="ignore"):
        sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0) / 2.0)
    if not np.isfinite(sigma):
        raise ValueError(f"SNR {snr_db} dB is too low: the noise scale is not finite")
    noise = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return clean + noise


def spectrum_grid(n_sr):
    """Uniform digital-frequency grid f_k = -0.5 + k/n_sr."""
    return -0.5 + np.arange(n_sr) / n_sr


# float64 exp returns exactly 0.0 below an exponent of about -745.13
_EXP_UNDERFLOW = 746.0


def render_target(scene, n_sr, sigma_f=None):
    """Ground-truth spectrum: sum of wrapped Gaussians of height |amp|.

    Each tone is evaluated only on the bins within ``sqrt(2 * 746)``
    sigmas of it (all bins if that window would reach ``n_sr``).  Further
    out its Gaussian is exactly 0.0 in float64, and ``np.add.at`` adds the
    tones to each bin in tone order, so the result has the same bits as a
    sum of every tone over every bin.
    """
    if sigma_f is None:
        sigma_f = 0.12 / n_sr
    if not sigma_f > 0:
        raise ValueError(f"sigma_f must be positive, got {sigma_f}")
    reach = sigma_f * math.sqrt(2.0 * _EXP_UNDERFLOW) * n_sr  # in bins
    # +2 bins: one for rounding each tone to its nearest bin, one of margin
    radius = math.floor(min(reach, n_sr)) + 2
    if 2 * radius + 1 < n_sr:
        nearest = np.rint((scene.freqs[:, None] + 0.5) * n_sr).astype(np.int64)
        bins = (nearest + np.arange(-radius, radius + 1)) % n_sr
    else:
        bins = np.broadcast_to(np.arange(n_sr), (scene.count, n_sr))
    d = wrapped_distance(spectrum_grid(n_sr)[bins], scene.freqs[:, None])
    values = np.abs(scene.amps)[:, None] * np.exp(-(d**2) / (2.0 * sigma_f**2))
    out = np.zeros(n_sr)
    np.add.at(out, bins.ravel(), values.ravel())
    return out


def minmax_normalize(x):
    """Center by the complex mean and scale so the max modulus is 1.

    A constant signal maps to all zeros; the transform is idempotent.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.size == 0:
        raise ValueError("cannot normalize an empty signal")
    centered = x - x.mean()
    peak = np.abs(centered).max()
    if peak < 1e-300:
        return np.zeros_like(x)
    return centered / peak


# -- serialization -----------------------------------------------------


class FileReader:
    """A binary file read whole and handed out field by field after its
    4-byte ``magic``.  Each malformed field raises one ``ValueError``
    naming the path and the field."""

    def __init__(self, path, magic, kind):
        with open(path, "rb") as fh:
            self.data = fh.read()
        if self.data[:4] != magic:
            raise ValueError(f"{path}: not a {kind} (bad magic)")
        self.path, self.pos = path, 4

    def take(self, size, what):
        left = len(self.data) - self.pos
        if size > left:
            raise ValueError(f"{self.path}: expected {size} {what} bytes, got {left}")
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def unpack(self, fmt, what):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def array(self, dtype, shape, what):
        """A native-order copy of the little-endian array of ``shape``."""
        dtype = np.dtype(dtype).newbyteorder("<")
        # math.prod of Python ints: a corrupt shape cannot overflow the size
        raw = self.take(math.prod(shape) * dtype.itemsize, what)
        try:
            return np.frombuffer(raw, dtype).astype(dtype.newbyteorder("=")).reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise ValueError(f"{self.path}: {what}: {exc}") from exc

    def end(self):
        left = len(self.data) - self.pos
        if left:
            raise ValueError(f"{self.path}: {left} trailing bytes after the payload")


def scene_to_dict(scene):
    return {
        "freqs": scene.freqs.tolist(),
        "amps_re": scene.amps.real.tolist(),
        "amps_im": scene.amps.imag.tolist(),
    }


def scene_from_dict(d):
    return FrequencyScene(
        np.asarray(d["freqs"]),
        np.asarray(d["amps_re"]) + 1j * np.asarray(d["amps_im"]),
    )


def json_safe(value):
    """``value`` with every infinite float, also inside dicts and lists,
    replaced by the string ``"inf"`` or ``"-inf"``, which ``float()``
    parses back, so strict JSON parsers accept the dump.

    NaN is left as it is: it is never a valid setting, so the dump keeps
    the token that a strict parser rejects.
    """
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, float) and np.isinf(value):
        return str(value)
    return value


def scenes_to_json(scenes, **meta):
    payload = {"version": 1, "scenes": [scene_to_dict(s) for s in scenes]}
    payload.update(json_safe(meta))
    return json.dumps(payload, sort_keys=True)


def scenes_from_json(text):
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("scene header is not a JSON object")
    if payload.get("version") != 1:
        raise ValueError("unsupported scene file version")
    if not isinstance(payload.get("scenes"), list):
        raise ValueError("scene header has no 'scenes' list")
    try:
        scenes = [scene_from_dict(d) for d in payload["scenes"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scene in header: {exc!r}") from exc
    return scenes, payload


def write_records(path, array):
    """Write a [count, length] batch of signals or spectra.

    Layout: magic, u8 dtype code, u32 count, u32 length, then raw
    little-endian samples (interleaved re/im for complex).
    """
    array = np.atleast_2d(np.asarray(array))
    if np.iscomplexobj(array):
        array = array.astype(np.complex128)
    else:
        array = array.astype(np.float64)
    code = _DTYPE_CODES[array.dtype.name]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BII", code, array.shape[0], array.shape[1]))
        fh.write(array.astype(array.dtype.newbyteorder("<")).tobytes())


def read_records(path):
    reader = FileReader(path, MAGIC, "record file")
    code, count, length = reader.unpack("BII", "header")
    if code not in _CODE_DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    records = reader.array(_CODE_DTYPES[code], (count, length), "payload")
    reader.end()
    return records


@dataclass
class Dataset:
    """Scenes plus their noisy realizations, bundled in one file."""

    scenes: list
    signals: np.ndarray
    meta: dict = field(default_factory=dict)


DATASET_MAGIC = b"SSRD"


def write_dataset(path, dataset):
    scenes_json = scenes_to_json(dataset.scenes, **dataset.meta).encode()
    sig = np.atleast_2d(dataset.signals).astype(np.complex128)
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<I", len(scenes_json)))
        fh.write(scenes_json)
        fh.write(struct.pack("<II", sig.shape[0], sig.shape[1]))
        fh.write(sig.astype(np.dtype(np.complex128).newbyteorder("<")).tobytes())


def read_dataset(path):
    reader = FileReader(path, DATASET_MAGIC, "dataset file")
    (json_len,) = reader.unpack("I", "scene header length")
    header = reader.take(json_len, "scene header")
    try:
        scenes, meta = scenes_from_json(header.decode())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    count, length = reader.unpack("II", "count/length header")
    if count != len(scenes):
        raise ValueError(f"{path}: {len(scenes)} scenes in the header, {count} signals in the payload")
    signals = reader.array(np.complex128, (count, length), "payload")
    reader.end()
    meta = {k: v for k, v in meta.items() if k not in ("version", "scenes")}
    return Dataset(scenes, signals, meta)

"""Multisinusoidal scene sampling, signal synthesis, and spectrum targets.

Digital frequencies live on [-0.5, 0.5) cycles/sample and are periodic on
the unit circle; all distances here wrap accordingly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


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
        if self.freqs.ndim != 1:
            raise ValueError(f"freqs and amps must be flat, got shape {self.freqs.shape}")
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
        # wrapped_distance on Python floats, without a numpy call per pair
        gaps = (abs(f - g) % 1.0 for g in freqs)
        if all(min(d, 1.0 - d) >= sep for d in gaps):
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


def _tone_table(scenes):
    """Frequencies and amplitudes [S, L] of ``scenes``, padded to the largest
    tone count L with frequency 0 and amplitude 0."""
    if len(scenes) == 1:  # nothing to pad: the sweeps' one-scene calls skip the copies
        return scenes[0].freqs[None], scenes[0].amps[None]
    counts = np.array([scene.count for scene in scenes], dtype=np.int64)
    real = np.arange(counts.max(initial=0)) < counts[:, None]
    freqs = np.zeros(real.shape)
    amps = np.zeros(real.shape, dtype=np.complex128)
    if scenes:
        freqs[real] = np.concatenate([scene.freqs for scene in scenes])
        amps[real] = np.concatenate([scene.amps for scene in scenes])
    return freqs, amps


def synthesize(scene, n, snr_db=np.inf, rng=None):
    """Render s[t] = sum_l a_l exp(j 2 pi f_l t) plus circular white noise.

    The noise power is set against the empirical power of the noiseless
    samples so the realized SNR matches ``snr_db`` exactly per scene;
    ``snr_db`` of +inf (or None) means noiseless; -inf, NaN, or an SNR so
    low that the noise scale overflows raises ``ValueError``.  One scene of
    :func:`synthesize_batch`.
    """
    return synthesize_batch([scene], n, [snr_db], rng)[0]


def synthesize_batch(scenes, n, snrs, rng=None):
    """:func:`synthesize` of each scene at its SNR, as rows [S, n].

    ``snrs`` holds one SNR per scene and is read lazily: each scene's SNR
    is taken just before that scene's noise is drawn (real part, then
    imaginary part), so a generator that draws each SNR from ``rng`` keeps
    the draws in that order scene by scene.  The tones are padded to the
    largest count with amplitude 0, which adds exact zeros, so every row
    has the bits of a scene synthesized alone.  An error names the scene
    by its index.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    freqs, amps = _tone_table(scenes)
    t = np.arange(n)
    out = (amps[:, :, None] * np.exp(2j * np.pi * freqs[:, :, None] * t)).sum(axis=1)
    power = (np.abs(out) ** 2).sum(axis=1) / n  # the row means with np.mean's bits
    for i, snr_db in zip(range(len(scenes)), snrs, strict=True):
        if snr_db is None or snr_db == np.inf:
            continue
        if not np.isfinite(snr_db):
            raise ValueError(f"scene {i}: SNR must be finite or inf (noiseless), got {snr_db}")
        if power[i] == 0.0:
            raise ValueError(f"scene {i}: SNR undefined for a zero signal")
        if rng is None:
            raise ValueError("a random stream is required for noisy synthesis")
        with np.errstate(divide="ignore", over="ignore"):
            # above about 3083 dB this float64 power is inf and sigma 0 (a Python float raises);
            # a scalar power, since numpy's array ** can round the last bit differently
            sigma = np.sqrt(power[i] / np.float64(10.0) ** (snr_db / 10.0) / 2.0)
        if not np.isfinite(sigma):
            raise ValueError(f"scene {i}: SNR {snr_db} dB is too low: the noise scale is not finite")
        row = out[i]  # a view: adding in place skips writing the row back
        row += sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return out


def spectrum_grid(n_sr):
    """Uniform digital-frequency grid f_k = -0.5 + k/n_sr."""
    return -0.5 + np.arange(n_sr) / n_sr


# float64 exp returns exactly 0.0 below an exponent of about -745.13
_EXP_UNDERFLOW = 746.0


def _lobes(freqs, amps, n_sr, sigma_f):
    """The bins [T, K] and values of each tone's Gaussian lobe, of height
    |amp| and width ``sigma_f`` (default 0.12 bins).

    Each tone is evaluated only on the bins within ``sqrt(2 * 746)``
    sigmas of it (all bins if that window would reach ``n_sr``).  Further
    out its Gaussian is exactly 0.0 in float64, so adding the values to
    their bins with ``np.add.at``, which adds in tone order, gives the same
    bits as a sum of every tone over every bin.
    """
    if sigma_f is None:
        sigma_f = 0.12 / n_sr
    if not sigma_f > 0:
        raise ValueError(f"sigma_f must be positive, got {sigma_f}")
    reach = sigma_f * math.sqrt(2.0 * _EXP_UNDERFLOW) * n_sr  # in bins
    # +2 bins: one for rounding each tone to its nearest bin, one of margin
    radius = math.floor(min(reach, n_sr)) + 2
    if 2 * radius + 1 < n_sr:
        nearest = np.rint((freqs[:, None] + 0.5) * n_sr).astype(np.int64)
        bins = (nearest + np.arange(-radius, radius + 1)) % n_sr
    else:
        bins = np.broadcast_to(np.arange(n_sr), (len(freqs), n_sr))
    d = wrapped_distance(spectrum_grid(n_sr)[bins], freqs[:, None])
    return bins, np.abs(amps)[:, None] * np.exp(-(d**2) / (2.0 * sigma_f**2))


def render_target(scene, n_sr, sigma_f=None):
    """Ground-truth spectrum: sum of wrapped Gaussians of height |amp|,
    bit-identical to the sum of every tone over every bin (see :func:`_lobes`)."""
    bins, values = _lobes(scene.freqs, scene.amps, n_sr, sigma_f)
    out = np.zeros(n_sr)
    np.add.at(out, bins.ravel(), values.ravel())
    return out


def render_targets(scenes, n_sr, sigma_f=None):
    """:func:`render_target` of each scene, as rows [S, n_sr], with one
    ``np.add.at`` over the flat rows, so every row has the same bits."""
    bins, values = _lobes(np.concatenate([scene.freqs for scene in scenes]),
                          np.concatenate([scene.amps for scene in scenes]), n_sr, sigma_f)
    owner = np.repeat(np.arange(len(scenes)), [scene.count for scene in scenes])
    out = np.zeros((len(scenes), n_sr))
    np.add.at(out.reshape(-1), (bins + owner[:, None] * n_sr).ravel(), values.ravel())
    return out


def minmax_normalize(x):
    """Center each signal (the last axis) by its complex mean and scale it
    so its max modulus is 1.

    A constant signal maps to all zeros.  The transform is idempotent up to
    the rounding of the mean, which grows with a signal's offset against
    its spread.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.size == 0:
        raise ValueError("cannot normalize an empty signal")
    centered = x - x.mean(axis=-1, keepdims=True)
    peak = np.abs(centered).max(axis=-1, keepdims=True)
    # the mean of equal samples can round off their value, which would
    # leave a centred row of equal, nonzero residues
    constant = (peak < 1e-300) | (x == x[..., :1]).all(axis=-1, keepdims=True)
    return np.where(constant, 0.0, centered / np.where(constant, 1.0, peak))


# -- serialization -----------------------------------------------------
#
# Datasets, spectra files and checkpoints are one container: MAGIC, the
# u32 length of a strict-JSON header, the header, then one little-endian
# array.  Each file kind is a convention for the header's other keys.

MAGIC = b"SSRF"
FILE_VERSION = 3  # the checkpoint layout that this replaced was version 2
CONTAINER_KEYS = ("dtype", "shape", "version")  # header keys that the container itself writes


def is_shape(value):
    """Whether the decoded JSON ``value`` is a list of non-negative ints."""
    return isinstance(value, list) and all(type(d) is int and d >= 0 for d in value)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class FileReader:
    """A file read whole and handed out field by field after its 4-byte
    ``MAGIC``.  Each malformed field raises one ``ValueError`` naming the
    path and the field."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            self.data = fh.read()
        if self.data[:4] != MAGIC:
            raise ValueError(f"{path}: not a spectralsr file (bad magic)")
        self.path, self.pos = path, 4

    def take(self, size, what):
        left = len(self.data) - self.pos
        if size > left:
            raise ValueError(f"{self.path}: expected {size} {what} bytes, got {left}")
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def array(self, dtype, shape, what):
        """The rest of the file, which must be exactly the little-endian
        array of ``shape``, as a native-order copy."""
        dtype = np.dtype(dtype).newbyteorder("<")
        # math.prod of Python ints: a corrupt shape cannot overflow the size
        size, left = math.prod(shape) * dtype.itemsize, len(self.data) - self.pos
        if size != left:
            raise ValueError(f"{self.path}: expected {size} {what} bytes, got {left}")
        try:
            raw = np.frombuffer(self.data, dtype, offset=self.pos)
            return raw.astype(dtype.newbyteorder("=")).reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise ValueError(f"{self.path}: {what}: {exc}") from exc


def write_file(path, header, array):
    """Write the JSON object ``header`` and ``array`` to ``path``.

    The stored header is ``json_safe(header)`` plus the container's keys
    ``version``, ``dtype`` and ``shape``; a header that holds one of those
    keys itself raises ``ValueError``, as :func:`read_file` could not give
    it back.  The payload is ``array`` as complex128 or float64.  The bytes
    go to a temporary file in the target's directory that then replaces
    ``path``, so a write that fails part-way leaves an existing file as it
    was.
    """
    clash = [key for key in CONTAINER_KEYS if key in header]
    if clash:
        raise ValueError(f"{path}: the header holds the container's own keys {', '.join(clash)}")
    array = np.asarray(array, np.complex128 if np.iscomplexobj(array) else np.float64)
    header = {**json_safe(header), "version": FILE_VERSION,
              "dtype": array.dtype.name, "shape": list(array.shape)}
    text = json.dumps(header, sort_keys=True, allow_nan=False).encode()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + len(text).to_bytes(4, "little") + text)
            fh.write(array.astype(array.dtype.newbyteorder("<")).tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_file(path):
    """The header, without the container's keys, and the payload array of
    a file written by :func:`write_file`.  A malformed file raises one
    ``ValueError`` naming the path."""
    reader = FileReader(path)
    size = int.from_bytes(reader.take(4, "header length"), "little")
    text = reader.take(size, "header")
    try:
        header = json.loads(text.decode(), parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: the header is not strict JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the header is not a JSON object")
    version = header.pop("version", None)
    if version != FILE_VERSION:
        raise ValueError(f"{path}: unsupported file version {version}")
    dtype, shape = header.pop("dtype", None), header.pop("shape", None)
    if dtype not in ("complex128", "float64") or not is_shape(shape):
        raise ValueError(f"{path}: unsupported payload dtype {dtype!r} or shape {shape!r}")
    return header, reader.array(dtype, shape, "payload")


def scene_to_dict(scene):
    return {
        "freqs": scene.freqs.tolist(),
        "amps_re": scene.amps.real.tolist(),
        "amps_im": scene.amps.imag.tolist(),
    }


def _number_list(d, key):
    """``d[key]`` as a float64 array if it is a flat list of numbers (JSON
    true and false are not) that float64 can hold, else ``ValueError``."""
    value = d[key]
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"scene {key} must be a flat list of numbers, got {value!r}")
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float64's range
        raise ValueError(f"scene {key} holds a number float64 cannot hold") from exc


def scene_from_dict(d):
    """The scene of a ``scene_to_dict`` mapping: ``freqs``, ``amps_re`` and
    ``amps_im`` must be flat lists of numbers of one length, and each
    amplitude's squared modulus must be finite."""
    freqs, amps_re, amps_im = (_number_list(d, key) for key in ("freqs", "amps_re", "amps_im"))
    if not len(freqs) == len(amps_re) == len(amps_im):
        raise ValueError(
            f"scene freqs, amps_re and amps_im have lengths {len(freqs)}, {len(amps_re)}, {len(amps_im)}"
        )
    # targets and PSNR square the modulus, so |amp|^2 must not overflow
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(amps_re**2 + amps_im**2)):
            raise ValueError("scene amplitude moduli must be finite, |amp|^2 included")
    return FrequencyScene(freqs, amps_re + 1j * amps_im)


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


@dataclass
class Dataset:
    """Scenes plus their noisy realizations, bundled in one file."""

    scenes: list
    signals: np.ndarray
    meta: dict = field(default_factory=dict)


def write_dataset(path, dataset):
    """Write ``dataset`` with ``meta`` and the scenes in the header and the
    [count, length] signals as the payload."""
    header = {**dataset.meta, "scenes": [scene_to_dict(s) for s in dataset.scenes]}
    write_file(path, header, np.atleast_2d(dataset.signals))


def read_dataset(path):
    header, signals = read_file(path)
    try:
        scenes = [scene_from_dict(d) for d in header.pop("scenes")]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: no list of well-formed scenes in the header: {exc!r}") from exc
    if signals.ndim != 2 or len(signals) != len(scenes):
        raise ValueError(f"{path}: {len(scenes)} scenes in the header, payload of shape {signals.shape}")
    if not scenes:
        raise ValueError(f"{path}: the dataset has no records")
    if signals.shape[1] == 0:
        raise ValueError(f"{path}: the signals have no samples")
    bad = np.flatnonzero(~np.isfinite(signals).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: signal {bad[0]} holds a NaN or infinite sample")
    return Dataset(scenes, signals, header)

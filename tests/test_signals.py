import errno
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralsr import signals
from spectralsr.signals import (
    MAGIC,
    Dataset,
    CONTAINER_KEYS,
    FrequencyScene,
    SceneConfig,
    json_safe,
    minmax_normalize,
    read_dataset,
    read_file,
    render_target,
    sample_scene,
    spectrum_grid,
    synthesize,
    synthesize_batch,
    wrapped_distance,
    write_dataset,
    write_file,
)


def test_wrapped_distance_basic_and_wraparound():
    assert wrapped_distance(0.1, 0.3) == pytest.approx(0.2)
    assert wrapped_distance(-0.49, 0.49) == pytest.approx(0.02)
    assert wrapped_distance(0.25, 0.25) == 0.0


def test_scene_validates_shapes():
    with pytest.raises(ValueError):
        FrequencyScene([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        FrequencyScene([], [])


def test_sample_scene_respects_config():
    cfg = SceneConfig(l_min=3, l_max=5, n_sr=256, min_separation=0.01)
    rng = np.random.default_rng(0)
    for _ in range(50):
        scene = sample_scene(rng, cfg)
        assert 3 <= scene.count <= 5
        assert np.all(scene.freqs >= -0.5) and np.all(scene.freqs < 0.5)
        mods = np.abs(scene.amps)
        assert np.all(mods >= 0.1 - 1e-12) and np.all(mods <= 1.0 + 1e-12)
        f = scene.freqs
        for i in range(len(f)):
            for j in range(i + 1, len(f)):
                assert wrapped_distance(f[i], f[j]) >= 0.01


def reference_sample_scene(rng, cfg):
    """``sample_scene`` as it was written before its rejection test moved
    to Python floats: ``wrapped_distance`` called once per pair."""
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
        raise RuntimeError("scene sampling failed")
    mod = np.exp(rng.uniform(np.log(0.1), np.log(1.0), size=count))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return FrequencyScene(np.array(freqs), mod * np.exp(1j * phase))


@pytest.mark.parametrize("cfg", [
    SceneConfig(),
    SceneConfig(l_min=1, l_max=1, n_sr=64),
    SceneConfig(l_min=5, l_max=10, min_separation=0.04),  # many rejected draws
    SceneConfig(l_min=8, l_max=8, min_separation=0.1, max_tries=300),  # often fails
    SceneConfig(l_min=2, l_max=4, min_separation=0.0),
], ids=["default", "one-tone", "crowded", "infeasible", "no-spacing"])
def test_sample_scene_matches_the_per_pair_reference_bit_for_bit(cfg):
    for seed in range(40):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = reference_sample_scene(ref_rng, cfg)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="scene sampling failed"):
                sample_scene(rng, cfg)
        else:
            got = sample_scene(rng, cfg)
            assert np.array_equal(got.freqs, want.freqs) and np.array_equal(got.amps, want.amps)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_scene_infeasible_spacing_raises():
    # 10 tones at spacing 0.2 cannot fit on the unit circle
    cfg = SceneConfig(l_min=10, l_max=10, min_separation=0.2, max_tries=200)
    with pytest.raises(RuntimeError, match="scene sampling failed"):
        sample_scene(np.random.default_rng(1), cfg)


def test_synthesize_noiseless_matches_oracle():
    scene = FrequencyScene([0.11, -0.27], [1.0 + 0.5j, 0.3j])
    s = synthesize(scene, 32)
    t = np.arange(32)
    ref = (1.0 + 0.5j) * np.exp(2j * np.pi * 0.11 * t) + 0.3j * np.exp(
        2j * np.pi * -0.27 * t
    )
    assert np.allclose(s, ref, atol=1e-12)


def test_synthesize_realizes_requested_snr():
    scene = FrequencyScene([0.123], [1.0])
    rng = np.random.default_rng(2)
    n = 20000
    noisy = synthesize(scene, n, snr_db=10.0, rng=rng)
    clean = synthesize(scene, n)
    snr_hat = np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noisy - clean) ** 2)
    assert 10.0 * np.log10(snr_hat) == pytest.approx(10.0, abs=0.2)


def test_synthesize_needs_rng_for_noise():
    scene = FrequencyScene([0.1], [1.0])
    with pytest.raises(ValueError):
        synthesize(scene, 16, snr_db=5.0)


@pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
def test_synthesize_rejects_minus_inf_and_nan_snr(snr_db):
    scene = FrequencyScene([0.1], [1.0])
    with pytest.raises(ValueError, match="SNR must be finite or inf"):
        synthesize(scene, 16, snr_db=snr_db, rng=np.random.default_rng(0))


@pytest.mark.parametrize("snr_db", [-4000.0, -3100.0])
def test_synthesize_rejects_an_snr_whose_noise_scale_overflows(snr_db):
    # 10 ** (snr / 10) underflows to 0 (or power over it overflows), so the
    # noise scale is inf; that is refused, without a RuntimeWarning
    scene = FrequencyScene([0.1], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"SNR {snr_db} dB"):
            synthesize(scene, 16, snr_db=snr_db, rng=np.random.default_rng(0))


def test_synthesize_plus_inf_and_none_snr_are_noiseless():
    scene = FrequencyScene([0.1], [1.0])
    clean = synthesize(scene, 16)
    assert np.array_equal(synthesize(scene, 16, snr_db=None), clean)
    assert np.array_equal(synthesize(scene, 16, snr_db=np.inf, rng=np.random.default_rng(0)), clean)


def test_spectrum_grid_endpoints():
    g = spectrum_grid(8)
    assert g[0] == -0.5
    assert g[-1] == pytest.approx(0.5 - 1.0 / 8)


def test_render_target_peak_height_and_width():
    n_sr = 512
    grid = spectrum_grid(n_sr)
    f = grid[100]  # exactly on a bin
    scene = FrequencyScene([f], [0.7j])  # modulus 0.7
    sigma = 2.0 / n_sr
    target = render_target(scene, n_sr, sigma_f=sigma)
    assert target[100] == pytest.approx(0.7, rel=1e-6)
    # one sigma away the lobe is down by exp(-1/2)
    d = wrapped_distance(grid, f)
    k = int(np.argmin(np.abs(d - sigma)))
    assert target[k] == pytest.approx(0.7 * np.exp(-0.5), rel=1e-2)


def test_render_target_wraps_across_band_edge():
    n_sr = 256
    scene = FrequencyScene([-0.5], [1.0])
    target = render_target(scene, n_sr, sigma_f=4.0 / n_sr)
    # the lobe should be symmetric around bin 0 through wraparound
    assert target[-1] == pytest.approx(target[1], rel=1e-10)


def dense_target(scene, n_sr, sigma_f):
    """Every tone's Gaussian over every bin, summed in tone order."""
    out = np.zeros(n_sr)
    for f, a in zip(scene.freqs, scene.amps):
        d = wrapped_distance(spectrum_grid(n_sr), f)
        out += np.abs(a) * np.exp(-(d**2) / (2.0 * sigma_f**2))
    return out


@pytest.mark.parametrize("n_sr", [8, 255, 256, 4096])
@pytest.mark.parametrize("sigma_bins", [0.12, 1.5, 4.8, 600.0, np.inf])
def test_render_target_equals_the_dense_sum_bit_for_bit(n_sr, sigma_bins):
    # from 600 bins on, every grid's window reaches n_sr
    rng = np.random.default_rng(n_sr)
    sigma_f = sigma_bins / n_sr
    edges = [-0.5, np.nextafter(0.5, 0.0), 0.5 - 0.25 / n_sr, -0.5 + 0.5 / n_sr]
    for count in (1, 3, 10):
        freqs = np.concatenate([edges, rng.uniform(-0.5, 0.5, count)])
        amps = rng.uniform(0.1, 1.0, freqs.size) * np.exp(2j * np.pi * rng.uniform(size=freqs.size))
        scene = FrequencyScene(freqs, amps)
        expected = dense_target(scene, n_sr, sigma_f)
        assert np.array_equal(render_target(scene, n_sr, sigma_f), expected)
        if sigma_bins == 0.12:
            assert np.array_equal(render_target(scene, n_sr), expected)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n_sr=st.integers(2, 2048), log_sigma_bins=st.floats(-2.0, 3.0), count=st.integers(1, 10),
       seed=st.integers(0, 2**16))
def test_render_target_window_equals_the_dense_sum_over_drawn_sigma_and_grid(n_sr, log_sigma_bins,
                                                                             count, seed):
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(-0.5, 0.5, count)
    amps = rng.uniform(0.1, 1.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    scene = FrequencyScene(freqs, amps)
    sigma_f = 10.0**log_sigma_bins / n_sr
    assert np.array_equal(render_target(scene, n_sr, sigma_f), dense_target(scene, n_sr, sigma_f))


def test_synthesize_batch_errors_name_the_scene():
    tone, silent = FrequencyScene([0.1], [1.0]), FrequencyScene([0.2], [0.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="scene 2: SNR undefined for a zero signal"):
        synthesize_batch([tone, tone, silent], 16, [10.0, 10.0, 10.0], rng)
    with pytest.raises(ValueError, match="scene 1: SNR -4000.0 dB is too low"):
        synthesize_batch([tone, tone], 16, [10.0, -4000.0], rng)
    with pytest.raises(ValueError, match="scene 0: SNR must be finite or inf"):
        synthesize_batch([tone], 16, [np.nan], rng)


@pytest.mark.parametrize("sigma_f", [0.0, -1e-3, np.nan])
def test_render_target_rejects_a_sigma_that_is_not_positive(sigma_f):
    with pytest.raises(ValueError, match="sigma_f must be positive"):
        render_target(FrequencyScene([0.1], [1.0]), 64, sigma_f)


def test_scene_rejects_non_finite_frequencies():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            FrequencyScene([0.1, bad], [1.0, 1.0])


def test_minmax_normalize_contract():
    rng = np.random.default_rng(3)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    y = minmax_normalize(x)
    assert abs(y.mean()) < 1e-12
    assert np.abs(y).max() == pytest.approx(1.0)
    assert np.allclose(minmax_normalize(y), y, atol=1e-12)  # idempotent
    assert np.all(minmax_normalize(np.full(8, 3.0 + 1j)) == 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rows=st.integers(1, 6), n=st.integers(1, 48), log_scale=st.floats(-100.0, 100.0),
       log_offset=st.floats(-3.0, 8.0), seed=st.integers(0, 2**16))
def test_minmax_normalize_batch_is_its_rows_stacked_and_idempotent_per_row(rows, n, log_scale,
                                                                         log_offset, seed):
    # model_forward normalizes a whole batch before it splits it, so the
    # batch must give each row the bits the row alone gives
    rng = np.random.default_rng(seed)
    offsets = 10.0**log_offset * np.exp(2j * np.pi * rng.uniform(size=(rows, 1)))
    x = 10.0**log_scale * (offsets + rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n)))
    x[rng.uniform(size=rows) < 0.2] = 10.0**log_scale * (1.0 - 2.0j)  # constant rows
    y = minmax_normalize(x)
    assert np.array_equal(y, np.stack([minmax_normalize(row) for row in x]))
    for row, out in zip(x, y):
        if np.all(row == row[0]):
            assert np.all(out == 0)
            continue
        spread = np.abs(row - row.mean()).max()
        assert np.abs(out).max() == pytest.approx(1.0)
        # a second pass re-centres by the first pass's rounding of the mean,
        # which grows with the row's offset against its spread
        tol = 1e-12 * max(1.0, np.abs(row).max() / spread)
        assert np.allclose(minmax_normalize(out), out, rtol=0.0, atol=tol)


def test_scene_json_round_trip(tmp_path):
    scenes = [
        FrequencyScene([0.1, -0.2], [1.0 + 2j, -0.5]),
        FrequencyScene([0.33], [0.25j]),
    ]
    path = tmp_path / "d.bin"
    write_dataset(path, Dataset(scenes, np.ones((2, 4), complex), {"note": "x"}))
    back = read_dataset(path)
    assert back.meta == {"note": "x"}
    for a, b in zip(scenes, back.scenes):
        assert np.array_equal(a.freqs, b.freqs)
        assert np.array_equal(a.amps, b.amps)


@pytest.mark.parametrize("text", [
    "[]",
    '{"version": 1}',
    '{"version": 1, "scenes": {}}',
    '{"version": 1, "scenes": [{"freqs": [0.1]}]}',
])
def test_scene_json_rejects_malformed_header(tmp_path, text):
    path = tmp_path / "d.bin"
    header = json.loads(text)
    if isinstance(header, dict):  # write_file sets the version, and refuses one in the header
        header.pop("version")
        write_file(path, header, np.ones((1, 4), complex))
    else:
        path.write_bytes(MAGIC + len(text).to_bytes(4, "little") + text.encode())
    with pytest.raises(ValueError, match="JSON object|scenes"):
        read_dataset(path)


def test_records_round_trip_complex_and_real(tmp_path):
    rng = np.random.default_rng(4)
    cpx = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    real = rng.normal(size=(2, 5))
    p1, p2 = tmp_path / "c.bin", tmp_path / "r.bin"
    write_file(p1, {"method": "music"}, cpx)
    write_file(p2, {"snr_db": np.inf}, real)
    header, back = read_file(p1)
    assert header == {"method": "music"}
    assert back.dtype == np.complex128 and np.array_equal(back, cpx)
    header, back = read_file(p2)
    assert header == {"snr_db": "inf"}
    assert back.dtype == np.float64 and np.array_equal(back, real)


def test_read_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        read_file(p)


def test_read_file_detects_truncation(tmp_path):
    p = tmp_path / "t.bin"
    write_file(p, {}, np.ones((2, 4)))
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload bytes"):
        read_file(p)


@pytest.mark.parametrize("header", [b'{"version": NaN}', b'{"shape": [Infinity]}'])
def test_read_file_refuses_a_header_that_is_not_strict_json(tmp_path, header):
    p = tmp_path / "h.bin"
    p.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header)
    with pytest.raises(ValueError, match="not strict JSON"):
        read_file(p)


def test_write_file_refuses_a_nan_header_and_writes_nothing(tmp_path):
    with pytest.raises(ValueError):
        write_file(tmp_path / "n.bin", {"snr_db": float("nan")}, np.ones(2))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", CONTAINER_KEYS)
def test_write_file_refuses_a_container_key_in_the_header(tmp_path, key):
    # such a key used to be overwritten on write and dropped on read
    with pytest.raises(ValueError, match=key):
        write_file(tmp_path / "k.bin", {key: 7, "k": 1}, np.zeros(3))
    assert not list(tmp_path.iterdir())


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**63, 2**63)
                | st.floats(allow_nan=True) | st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(CONTAINER_KEYS), inner, max_size=3),
    max_leaves=12,
)
HEADERS = st.dictionaries(st.text(max_size=6) | st.sampled_from(CONTAINER_KEYS), JSON_VALUES, max_size=4)
PAYLOAD_DTYPES = ("float64", "complex128", "float32", "complex64", "int32", "bool")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(header=HEADERS, dtype=st.sampled_from(PAYLOAD_DTYPES),
       shape=st.lists(st.integers(0, 3), max_size=3), data=st.data())
def test_every_file_reads_back_exactly_or_is_refused(tmp_path_factory, header, dtype, shape, data):
    # floats in the header may be +-inf (written as "inf" strings) or NaN (refused)
    size = int(np.prod(shape))
    elements = {"int32": st.integers(-2**31, 2**31 - 1), "bool": st.booleans()}.get(
        dtype, st.floats(allow_nan=True, width=32))
    values = data.draw(st.lists(elements, min_size=2 * size, max_size=2 * size))
    array = np.empty(shape, dtype)
    if dtype.startswith("complex"):
        array.real, array.imag = np.reshape(values[:size], shape), np.reshape(values[size:], shape)
    else:
        array[...] = np.reshape(values[:size], shape)
    path = tmp_path_factory.mktemp("file") / "f.bin"
    try:
        write_file(path, header, array)
    except ValueError:
        assert not path.exists()
        return
    back_header, back = read_file(path)
    assert back_header == json_safe(header)
    assert back.shape == array.shape and np.array_equal(back, array, equal_nan=True)


def test_a_write_that_fails_part_way_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "d.bin"
    write_file(path, {"step": 1}, np.ones((2, 4)))
    old = path.read_bytes()

    class DiskFull(io.FileIO):
        """Takes the magic and header, then fails on the payload."""

        def write(self, data):
            if self.tell():
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(signals, "open", lambda p, mode: DiskFull(p, mode.replace("b", "")),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_file(path, {"step": 2}, np.zeros((2, 4)))
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    scenes = [FrequencyScene([0.1], [1.0]), FrequencyScene([0.2, 0.3], [1j, 2.0])]
    signals = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    meta = {"snr_db": 20.0, "seed": 3, "n_sr": 64}
    path = tmp_path / "d.bin"
    write_dataset(path, Dataset(scenes, signals, meta))
    back = read_dataset(path)
    assert back.meta == meta
    assert np.array_equal(back.signals, signals)
    assert len(back.scenes) == 2
    for a, b in zip(scenes, back.scenes):
        assert np.array_equal(a.freqs, b.freqs) and np.array_equal(a.amps, b.amps)

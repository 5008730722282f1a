import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralsr import classical
from spectralsr.classical import (
    music,
    omp,
    periodogram,
    sample_covariance,
)
from spectralsr.evaluate import resolution_decision, wrapped_midpoint
from spectralsr.signals import FrequencyScene, SceneConfig, sample_scene, spectrum_grid, synthesize


def two_tone(f1, f2, n=64, amps=(1.0, 1.0)):
    return synthesize(FrequencyScene([f1, f2], list(amps)), n)


def dense_atoms(n, n_grid):
    """Explicit n x n_grid dictionary exp(2 pi i t f_k) on f_k = -0.5 + k/n_grid."""
    return np.exp(2j * np.pi * np.outer(np.arange(n), spectrum_grid(n_grid)))


def dense_music(signal, order, n_grid, atoms=None, m=None):
    """MUSIC from the noise subspace directly; ``atoms`` may pass in dense_atoms(m, n_grid)."""
    m = len(signal) // 2 if m is None else m
    _, vecs = np.linalg.eigh(sample_covariance(signal, m))
    atoms = dense_atoms(m, n_grid) if atoms is None else atoms
    proj = vecs[:, : m - order].conj().T @ atoms
    pseudo = 1.0 / (np.sum(np.abs(proj) ** 2, axis=0) + 1e-12)
    return pseudo / pseudo.max()


def dense_omp(signal, n_grid, sparsity):
    """Selected bins and coefficients of OMP scanned with the dense dictionary."""
    atoms = dense_atoms(len(signal), n_grid) / np.sqrt(len(signal))
    residual, selected, coeffs = signal, [], np.zeros(0, dtype=complex)
    for _ in range(sparsity):
        best = int(np.argmax(np.abs(atoms.conj().T @ residual)))
        if best in selected:
            break
        sol, _, rank, _ = np.linalg.lstsq(atoms[:, selected + [best]], signal, rcond=None)
        if rank <= len(selected):
            break
        selected.append(best)
        coeffs = sol
        residual = signal - atoms[:, selected] @ coeffs
    return selected, coeffs


# The references below are the estimators' code before the one-row MUSIC
# scan and the per-call trims; the trimmed code must match them bit for bit.


def reference_grid_dft(x, n_grid):
    n = x.shape[-1]
    x = x * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    if n > n_grid:
        x = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, -n % n_grid)])
        x = x.reshape(*x.shape[:-1], x.shape[-1] // n_grid, n_grid).sum(axis=-2)
    return np.fft.fft(x, n_grid)


def reference_sample_covariance(signal, m):
    windows = np.lib.stride_tricks.sliding_window_view(signal, m)
    r_fwd = windows.T @ windows.conj()
    r_bwd = r_fwd[::-1, ::-1].conj()
    return (r_fwd + r_bwd) / (2.0 * windows.shape[0])


def reference_omp(signal, n_grid, sparsity):
    """(freqs, amps, residual_history, truncated) of OMP rebuilding every
    selected atom from the whole grid at each iteration."""
    n = len(signal)
    grid = spectrum_grid(n_grid)
    residual, selected = signal.copy(), []
    coeffs = np.zeros(0, dtype=np.complex128)
    history, truncated = [float(np.linalg.norm(residual))], False
    for _ in range(sparsity):
        best = int(np.argmax(np.abs(reference_grid_dft(residual, n_grid))))
        if best in selected:
            truncated = True
            break
        selected.append(best)
        sub = np.exp(2j * np.pi * np.outer(np.arange(n), grid[selected])) / np.sqrt(n)
        sol, _, rank, _ = np.linalg.lstsq(sub, signal, rcond=None)
        if rank < len(selected):
            selected.pop()
            truncated = True
            break
        coeffs = sol
        residual = signal - sub @ coeffs
        history.append(float(np.linalg.norm(residual)))
    return grid[selected], coeffs, history, truncated


def top_local_maxima(p, count):
    """Bins of the ``count`` largest circular local maxima of ``p``, sorted."""
    peaks = np.flatnonzero((p > np.roll(p, 1)) & (p > np.roll(p, -1)))
    return np.sort(peaks[np.argsort(-p[peaks], kind="stable")[:count]])


def noisy_tones(seed, n):
    rng = np.random.default_rng(seed)
    scene = FrequencyScene(list(rng.uniform(-0.5, 0.5, 3)), list(rng.normal(size=3) + 1j))
    return synthesize(scene, n, 10.0, rng)


class TestPeriodogram:
    def test_on_grid_tone_peaks_at_one(self):
        n, n_fft = 64, 512
        grid = spectrum_grid(n_fft)
        f = grid[300]
        sig = synthesize(FrequencyScene([f], [1.0]), n)
        p = periodogram(sig, n_fft=n_fft)
        assert int(np.argmax(p)) == 300
        assert p[300] == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("n_fft", [255, 256])
    def test_on_grid_tone_peaks_at_its_bin_on_odd_and_even_grids(self, n_fft):
        f = spectrum_grid(n_fft)[40]
        p = periodogram(synthesize(FrequencyScene([f], [1.0]), 64), n_fft=n_fft)
        assert int(np.argmax(p)) == 40
        assert p[40] == pytest.approx(1.0, rel=1e-10)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(0)
        sig = rng.normal(size=16) + 1j * rng.normal(size=16)
        n_fft = 64
        p = periodogram(sig, n_fft=n_fft)
        grid = spectrum_grid(n_fft)
        t = np.arange(16)
        ref = np.abs(np.exp(-2j * np.pi * np.outer(grid, t)) @ sig) ** 2 / 16**2
        assert np.allclose(p, ref, atol=1e-12)

    def test_rejects_unknown_window_and_short_fft(self):
        sig = np.ones(8, dtype=complex)
        # the periodogram has no taper option: a taper is refused, not ignored
        with pytest.raises(TypeError, match="window"):
            periodogram(sig, window=np.ones(8))
        with pytest.raises(ValueError):
            periodogram(sig, n_fft=4)


class TestCovariance:
    def test_hermitian_and_persymmetric(self):
        rng = np.random.default_rng(1)
        sig = rng.normal(size=32) + 1j * rng.normal(size=32)
        r = sample_covariance(sig, 8)
        assert np.allclose(r, r.conj().T, atol=1e-12)
        j = np.eye(8)[::-1]
        assert np.allclose(r, j @ r.conj() @ j, atol=1e-12)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        sig = rng.normal(size=12) + 1j * rng.normal(size=12)
        m = 4
        k = 12 - m + 1
        fwd = np.zeros((m, m), dtype=complex)
        for s in range(k):
            x = sig[s : s + m]
            fwd += np.outer(x, x.conj())
        j = np.eye(m)[::-1]
        ref = (fwd + j @ fwd.conj() @ j) / (2 * k)
        assert np.allclose(sample_covariance(sig, m), ref, atol=1e-12)

    def test_rejects_bad_subarray_length(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones(8, dtype=complex), 9)


class TestMusic:
    def test_noiseless_peaks_at_true_frequencies(self):
        n_grid = 4096
        f1, f2 = -0.171, 0.2432
        sig = two_tone(f1, f2)
        p = music(sig, order=2, n_grid=n_grid)
        grid = spectrum_grid(n_grid)
        # the two largest local maxima should sit within one bin of truth
        peaks = [
            k
            for k in range(n_grid)
            if p[k] > p[(k - 1) % n_grid] and p[k] > p[(k + 1) % n_grid]
        ]
        top2 = sorted(sorted(peaks, key=lambda k: -p[k])[:2])
        found = sorted(grid[top2])
        assert abs(found[0] - f1) < 1.5 / n_grid
        assert abs(found[1] - f2) < 1.5 / n_grid

    def test_max_is_one(self):
        sig = two_tone(0.05, 0.31)
        p = music(sig, order=2)
        assert p.max() == pytest.approx(1.0)

    def test_resolves_below_periodogram_limit(self):
        # separation well under 1/n: periodogram merges, MUSIC does not
        n, n_grid = 64, 4096
        f1 = 0.1
        f2 = f1 + 0.25 / n
        sig = two_tone(f1, f2, n=n)
        p = music(sig, order=2, n_grid=n_grid)
        k1 = int(np.round((f1 + 0.5) * n_grid))
        k2 = int(np.round((f2 + 0.5) * n_grid))
        km = (k1 + k2) // 2
        assert p[km] < min(p[k1], p[k2]) / np.sqrt(2)

    def test_rejects_bad_order(self):
        sig = two_tone(0.1, 0.2, n=16)
        with pytest.raises(ValueError):
            music(sig, order=8, m=8)


class TestOmp:
    def test_recovers_on_grid_tones_exactly(self):
        n, n_grid = 64, 256
        grid = spectrum_grid(n_grid)
        true_f = [grid[40], grid[133], grid[200]]
        true_a = [1.0 + 0.3j, -0.7, 0.4j]
        sig = synthesize(FrequencyScene(true_f, true_a), n)
        res = omp(sig, n_grid, sparsity=3)
        order = np.argsort(res.freqs)
        assert np.allclose(np.sort(res.freqs), sorted(true_f), atol=1e-12)
        # atoms are unit-norm, so coefficients are sqrt(n) * amplitude
        recovered = res.amps[order] / np.sqrt(n)
        expected = np.asarray(true_a)[np.argsort(true_f)]
        assert np.allclose(recovered, expected, atol=1e-8)
        assert res.residual_norm < 1e-10

    def test_residual_history_is_monotone(self):
        rng = np.random.default_rng(3)
        sig = rng.normal(size=32) + 1j * rng.normal(size=32)
        res = omp(sig, 128, sparsity=5)
        hist = res.residual_history
        assert len(hist) == 6
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(5))

    def test_zero_sparsity_returns_input_residual(self):
        sig = np.ones(8, dtype=complex)
        res = omp(sig, 32, sparsity=0)
        assert res.freqs.size == 0
        assert res.residual_norm == pytest.approx(np.linalg.norm(sig))

    def test_truncates_when_dictionary_is_exhausted(self):
        # sparsity beyond the dictionary size forces a repeat selection,
        # which must terminate with the truncated flag instead of looping
        rng = np.random.default_rng(4)
        sig = rng.normal(size=8) + 1j * rng.normal(size=8)
        res = omp(sig, n_grid=4, sparsity=5)
        assert res.truncated
        assert len(res.freqs) <= 4


class TestGridScanOracle:
    """MUSIC and OMP scan their grids by FFT; these compare against the
    explicit dense dictionary, including grids shorter than the signal."""

    @pytest.mark.parametrize("n_grid", [4, 255, 256, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_music_matches_dense_scan(self, n_grid, seed):
        sig = noisy_tones(seed, 64)
        ref = dense_music(sig, 3, n_grid)
        assert np.max(np.abs(music(sig, order=3, n_grid=n_grid) - ref)) <= 1e-9 * ref.max()

    @pytest.mark.parametrize("snr_db", [30.0, 60.0, np.inf])
    def test_music_peaks_match_the_noise_subspace_scan(self, snr_db):
        # music subtracts the signal-subspace power from m; its L largest
        # peaks are those of the direct noise-subspace sum, noiseless too
        n, n_grid = 64, 4096
        atoms = dense_atoms(n // 2, n_grid)
        rng = np.random.default_rng(np.random.SeedSequence([7, int(min(snr_db, 1000))]))
        for _ in range(40):
            scene = sample_scene(rng, SceneConfig(n_sr=n_grid))
            sig = synthesize(scene, n, snr_db, rng)
            count = len(scene.freqs)
            got = top_local_maxima(music(sig, count, n_grid=n_grid), count)
            ref = top_local_maxima(dense_music(sig, count, n_grid, atoms), count)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("snr_db", [20.0, 30.0, 60.0, np.inf])
    def test_music_resolution_decisions_match_the_noise_subspace_scan(self, snr_db):
        n, n_grid = 64, 4096
        atoms = dense_atoms(n // 2, n_grid)
        rng = np.random.default_rng(np.random.SeedSequence([8, int(min(snr_db, 1000))]))
        for trial in range(200):
            sep = (1 + trial % 8) / (4 * n)  # 0.25/N to 2/N, as in resolution_sweep
            f1 = float(rng.uniform(-0.5, 0.5))
            f2 = wrapped_midpoint(f1, f1 + 2 * sep)
            scene = FrequencyScene([f1, f2], np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2)))
            sig = synthesize(scene, n, snr_db, rng)
            got = resolution_decision(music(sig, 2, n_grid=n_grid), f1, f2)
            assert got == resolution_decision(dense_music(sig, 2, n_grid, atoms), f1, f2)

    @pytest.mark.parametrize("n_grid", [4, 256])
    def test_music_of_order_zero_is_all_ones(self, n_grid):
        # an empty signal subspace leaves the denominator at m everywhere
        sig = noisy_tones(0, 64)
        assert np.array_equal(music(sig, order=0, n_grid=n_grid), np.ones(n_grid))

    @pytest.mark.parametrize("n, n_grid", [(64, 4), (300, 255), (300, 256), (64, 255),
                                           (64, 256), (64, 4096)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_omp_selects_the_dense_scan_bins(self, n, n_grid, seed):
        sig = noisy_tones(seed, n)
        bins, coeffs = dense_omp(sig, n_grid, 5)
        res = omp(sig, n_grid, sparsity=5)
        assert np.array_equal(res.freqs, spectrum_grid(n_grid)[bins])
        assert np.array_equal(res.amps, coeffs)

    @pytest.mark.parametrize("n_grid", [4, 255, 256, 4096])
    def test_all_zero_residual_ties_go_to_bin_0(self, n_grid):
        res = omp(np.zeros(16, dtype=complex), n_grid, sparsity=2)
        assert res.freqs.tolist() == [-0.5]
        assert res.truncated and res.amps.tolist() == [0j]

    @pytest.mark.parametrize("n_grid", [0, -5])
    def test_grid_size_below_one_is_rejected(self, n_grid):
        sig = two_tone(0.1, 0.2, n=16)
        with pytest.raises(ValueError, match="grid size"):
            music(sig, order=2, n_grid=n_grid)
        for sparsity in (0, 2):
            with pytest.raises(ValueError, match="grid size"):
                omp(sig, n_grid, sparsity=sparsity)
        with pytest.raises(ValueError):
            periodogram(sig, n_fft=n_grid)


@pytest.mark.parametrize("order", [0, 1, 5, 10])
def test_music_scans_the_grid_with_one_fft_of_one_row(monkeypatch, order):
    shapes, grid_dft = [], classical._grid_dft

    def recording(x, n_grid):
        shapes.append(np.shape(x))
        return grid_dft(x, n_grid)

    monkeypatch.setattr(classical, "_grid_dft", recording)
    music(noisy_tones(0, 64), order=order, n_grid=256)
    assert shapes == [(32,)]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data())
def test_music_matches_dense_scan_over_drawn_sizes(data):
    # the order is drawn apart from the signal's three tones: an order above
    # three leaves few noise eigenvectors, and their power can have nulls
    # deep enough that a scan exact only in absolute terms misses the bound
    n = data.draw(st.integers(2, 80), label="n")
    m = data.draw(st.integers(1, n), label="m")
    order = data.draw(st.integers(0, m - 1), label="order")
    n_grid = data.draw(st.one_of(st.integers(1, 2 * m - 1), st.sampled_from([255, 256, 4096])),
                       label="n_grid")
    sig = noisy_tones(data.draw(st.integers(0, 2**32 - 1), label="seed"), n)
    ref = dense_music(sig, order, n_grid, m=m)
    assert np.max(np.abs(music(sig, order, m=m, n_grid=n_grid) - ref)) <= 1e-9 * ref.max()


class TestBitIdentity:
    """The trimmed estimators against the references above, on seeded draws."""

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_dft(self, seed):
        rng = np.random.default_rng(seed)
        for n, n_grid in [(1, 1), (7, 4), (64, 255), (64, 4096), (300, 256), (33, 32)]:
            x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
            assert np.array_equal(classical._grid_dft(x, n_grid), reference_grid_dft(x, n_grid))
            assert np.array_equal(classical._grid_dft(x[0], n_grid),
                                  reference_grid_dft(x[0], n_grid))

    @pytest.mark.parametrize("seed", range(4))
    def test_sample_covariance(self, seed):
        rng = np.random.default_rng(seed)
        for n, m in [(1, 1), (8, 8), (12, 4), (64, 32), (65, 32), (100, 7)]:
            sig = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.array_equal(sample_covariance(sig, m), reference_sample_covariance(sig, m))

    @pytest.mark.parametrize("n, n_grid", [(8, 4), (16, 16), (64, 255), (64, 4096), (300, 256)])
    @pytest.mark.parametrize("seed", range(3))
    def test_omp(self, n, n_grid, seed):
        rng = np.random.default_rng(np.random.SeedSequence([seed, n, n_grid]))
        signals = [np.zeros(n, dtype=complex), noisy_tones(seed, n)]
        for _ in range(4):
            scene = sample_scene(rng)
            signals.append(synthesize(scene, n, float(rng.uniform(-10, 40)), rng))
        for sig in signals:
            for sparsity in (0, 1, 3, min(n, 10), min(n, n_grid + 1, 20)):
                res = omp(sig, n_grid, sparsity)
                freqs, amps, history, truncated = reference_omp(sig, n_grid, sparsity)
                assert np.array_equal(res.freqs, freqs) and np.array_equal(res.amps, amps)
                assert res.residual_history == history and res.residual_norm == history[-1]
                assert res.truncated == truncated

"""Every truncation, and every overwritten header byte, of the three uses
of the file container ends in the documented error: ``ValueError`` for
dataset and spectra files, ``CheckpointError`` for checkpoints."""

import numpy as np
import pytest

from spectralsr.model import (
    CheckpointError,
    init_model,
    load_checkpoint,
    micro_config,
    save_checkpoint,
)
from spectralsr.signals import (
    Dataset,
    FrequencyScene,
    read_dataset,
    read_file,
    write_dataset,
    write_file,
)

# values written over each header byte, besides the byte XOR 0x01, which
# turns a key into an unknown one; b"0" zeroes a digit of a config value
OVERWRITES = (0x00, 0xFF, ord("0"))


def header_length(path):
    """The length of the magic, the header length field and the header."""
    return 8 + int.from_bytes(path.read_bytes()[4:8], "little")


def write_checkpoint(path):
    """A micro cvswinfreq checkpoint with optimizer state for two parameters;
    returns the length of its header."""
    store = init_model(micro_config("cvswinfreq"), np.random.default_rng(0))
    store.step = 3
    for name in ("head.w", "head.b"):
        data = store.params[name].data
        store.opt_state[name] = {"m": np.full_like(data, 0.5), "v": np.full_like(data, 0.25)}
    save_checkpoint(store, path)
    return header_length(path)


def write_dataset_file(path):
    scenes = [FrequencyScene([0.1], [1.0]), FrequencyScene([-0.2, 0.3], [1j, 0.5])]
    signals = np.arange(16).reshape(2, 8) * (1 + 1j)
    write_dataset(path, Dataset(scenes, signals, {"snr_db": 20.0, "n_sr": 32}))
    return header_length(path)


def write_spectra_file(path):
    write_file(path, {"method": "music", "order": 2, "n_grid": 3}, np.arange(6.0).reshape(2, 3))
    return header_length(path)


FORMATS = {
    "spectra": (write_spectra_file, read_file, ValueError),
    "dataset": (write_dataset_file, read_dataset, ValueError),
    "checkpoint": (write_checkpoint, load_checkpoint, CheckpointError),
}


def corruptions(raw, header_len):
    # every cut length, except inside the middle of a checkpoint's payload,
    # where each cut fails the same length check; this keeps the test short,
    # and cuts the dataset and spectra files everywhere
    for size in range(len(raw)):
        if size < header_len + 1024 or size > len(raw) - 512:
            yield f"cut at {size}", raw[:size]
    for pos in range(header_len):
        for value in OVERWRITES + (raw[pos] ^ 0x01,):
            if value != raw[pos]:
                edited = raw[:pos] + bytes([value]) + raw[pos + 1 :]
                yield f"byte {pos} set to {value:#04x}", edited


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_every_corruption_ends_in_the_documented_error(tmp_path, fmt):
    write, read, error = FORMATS[fmt]
    path = tmp_path / "f.bin"
    header_len = write(path)
    raw = path.read_bytes()
    read(path)
    bad = tmp_path / "bad.bin"
    for label, data in corruptions(raw, header_len):
        bad.write_bytes(data)
        try:
            read(bad)
        except error:
            pass
        except Exception as exc:
            pytest.fail(f"{fmt} {label}: {type(exc).__name__}: {exc}")

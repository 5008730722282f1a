"""The malloc policy set on import of ``spectralsr.autodiff``: a repeated
model call reuses the heap its predecessor freed instead of faulting in
fresh pages."""

import platform
import sys

import numpy as np
import pytest

from spectralsr.model import default_config, init_model, model_forward
from spectralsr.signals import SceneConfig, sample_scene, synthesize

resource = pytest.importorskip("resource", reason="ru_minflt needs the Unix resource module")

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(not GLIBC, reason="the policy is set with glibc's mallopt; "
                    "other C libraries are left as they are")
@pytest.mark.parametrize("variant", ["swinfreq", "cvswinfreq"])
def test_a_repeated_default_batch_call_takes_almost_no_page_faults(variant):
    # with glibc's default trimming the third call took about 16.7k
    # (swinfreq) and 49.7k (cvswinfreq) minor faults
    cfg = default_config(variant)
    rng = np.random.default_rng(0)
    store = init_model(cfg, rng)
    scene_cfg = SceneConfig(n_sr=cfg.n_sr)
    batch = np.stack([synthesize(sample_scene(rng, scene_cfg), cfg.n, 10.0, rng)
                      for _ in range(4)])
    for _ in range(2):
        model_forward(batch, store)
    before = minor_faults()
    model_forward(batch, store)
    faults = minor_faults() - before
    assert faults < 500, f"{faults} minor page faults in one {variant} call"

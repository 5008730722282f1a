"""``scripts/output_drift.py`` run with this checkout on both sides reports no drift."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_checkout_against_itself_drifts_nowhere():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_drift.py"), "--parent", str(ROOT), "--change", str(ROOT)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    report = json.loads(proc.stdout)
    cases = report["cases"]
    assert {"forward/default/cvswinfreq/batch", "forward/toy/swinfreq/batch5", "forward/micro/swinfreq/single",
            "train/cvswinfreq/loss", "train/swinfreq/grad/head.w"} <= cases.keys()
    assert sum(name.startswith("forward/") for name in cases) == 18
    assert set(cases.values()) == {0.0} and report["max"] == 0.0
    assert not report["missing_or_reshaped"]
    nodes = report["tape_nodes"]
    assert nodes["parent"].keys() == nodes["change"].keys() == {"swinfreq", "cvswinfreq"}
    assert nodes["parent"] == nodes["change"] and min(nodes["parent"].values()) > 0
    assert not any(name.startswith("tape_nodes") for name in cases)

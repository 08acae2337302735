"""The paper and serving paths run on numpy alone.

SciPy is a test-only dependency (the assignment solver's oracle) and is
needed at runtime only by the registry-only spectral and agglomerative
clusterers.  A fresh interpreter that imports the package and the CLI, fits
an slsRBM (partition alignment) and evaluates it (accuracy mapping) must
therefore never load a ``scipy`` module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import json, sys
import repro, repro.cli
from repro import FrameworkConfig, SelfLearningEncodingFramework
from repro.clustering import KMeans
from repro.datasets import load_uci_dataset
from repro.metrics import evaluate_clustering

dataset = load_uci_dataset("IR", scale=0.5)
config = FrameworkConfig(model="sls_rbm", n_hidden=8, n_epochs=2, random_state=0)
framework = SelfLearningEncodingFramework(config, n_clusters=dataset.n_classes)
features = framework.fit_transform(dataset.data)
labels = KMeans(dataset.n_classes, random_state=0).fit_predict(features)
evaluate_clustering(dataset.labels, labels)
print(json.dumps(sorted(
    name for name in sys.modules if name == "scipy" or name.startswith("scipy.")
)))
"""


def test_fit_and_evaluate_load_no_scipy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(completed.stdout.splitlines()[-1])
    assert loaded == [], f"scipy modules loaded on the runtime path: {loaded}"

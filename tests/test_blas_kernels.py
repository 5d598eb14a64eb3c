"""``report.json`` does not depend on the BLAS kernel.

Criterion 11 reruns a pipeline on one host, and ``tests/test_parallel.py``
compares CPU counts. Here small svm and ann pipelines, at TERM8 and
DOC7, run once per OpenBLAS core type in a fresh interpreter
(``OPENBLAS_CORETYPE`` unset, Prescott, Nehalem and Sandybridge), and
each classifier and level must write the same ``report.json`` bytes
under every kernel. Model files are not compared: their weights differ
in the last bits from kernel to kernel, and only the labels they give
must not.

A core type is skipped when OpenBLAS does not switch to a kernel of its
own for it (the CPU lacks the instructions, or the library the type);
the whole test is skipped when numpy's BLAS is not OpenBLAS.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multisent.synth import SynthConfig, generate

CORE_TYPES = (None, "Prescott", "Nehalem", "Sandybridge")

# Runs the four pipelines and prints the kernel in use and the digest of
# each report.json. argv: corpus dir, lexicon, lemma dictionary, out dir.
RUN = r"""
import ctypes, hashlib, json, sys
from pathlib import Path
from multisent.pipeline import PipelineConfig, run_pipeline

def core_name():
    # OpenBLAS names the kernel it dispatched to; the library's symbol
    # carries a prefix and suffix in some builds.
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps
                if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        for symbol in ("openblas_get_corename",
                       "scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename",
                       "openblas_get_corename64_"):
            get = getattr(ctypes.CDLL(lib), symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None

corpus, lexicon, lemmas, out = sys.argv[1:]
digests = {}
for kind, options in (("svm", {}), ("ann", {"restarts": 2})):
    for level, variant, sentence in (("term", 8, None),
                                     ("document", 7, "max_sub")):
        cell = Path(out) / f"{kind}_{level}"
        run_pipeline(PipelineConfig(
            corpus_dir=corpus, lexicon_path=lexicon, lemma_dict_path=lemmas,
            out_dir=str(cell), level=level, variant=variant,
            sentence_formula=sentence, classifier=kind,
            classifier_options=options, k=3, seed=5))
        digests[f"{kind}/{level}"] = hashlib.sha256(
            (cell / "report.json").read_bytes()).hexdigest()
print(json.dumps({"core": core_name(), "digests": digests}))
"""


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy too old to report it
        return False
    return "openblas" in blas.get("name", "").lower()


def test_reports_are_the_same_under_every_blas_kernel(tmp_path):
    if not _openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    paths = generate(SynthConfig(docs_per_class=20, tokens_per_doc=(30, 60),
                                 sentiment_density=0.35, purity=0.8,
                                 seed=43), tmp_path / "synth")
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for core in CORE_TYPES:
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = tmp_path / (core or "unset")
        runs.append((core, subprocess.Popen(
            [sys.executable, "-c", RUN, str(paths.corpus_dir),
             str(paths.lexicon), str(paths.lemma_dict), str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)))
    results = {}
    for core, run in runs:
        stdout, stderr = run.communicate()
        assert run.returncode == 0, f"{core}: {stderr}"
        results[core] = json.loads(stdout)
    default = results[None]
    if default["core"] is None:
        pytest.skip("OpenBLAS does not say which kernel it runs")
    seen = {default["core"]}
    for core in CORE_TYPES[1:]:
        if results[core]["core"] in seen:   # no kernel of its own
            continue
        seen.add(results[core]["core"])
        assert results[core]["digests"] == default["digests"], \
            f"OPENBLAS_CORETYPE={core} ({results[core]['core']})"
    if len(seen) < 2:
        pytest.skip("OpenBLAS switches to no other kernel on this CPU")

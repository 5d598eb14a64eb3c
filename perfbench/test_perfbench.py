"""The benchmark's own tests, on smoke-sized corpora.

    python3 -m pytest perfbench

Most tests start ``run.py`` as a separate process from the root of the
checkout, as the benchmark is meant to be run.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from calibrate import Sampler
from workloads import WORKLOADS as SPECS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
KIND = {"sweep-term-dtree-500": "dtree", "cv-svm-term8-500": "svm",
        "cv-ann-doc7-2000": "ann"}

END_TO_END_NAMES = ("setup_s", "run_s", "docs_per_s", "peak_rss_mb",
                    "mean_test_f", "error_rate")
LAYER_NAMES = (
    "corpus_io.prepare_s", "corpus_io.load_s", "corpus_io.prepare_calls",
    "corpus_io.useful_ratio", "corpus_io.tokens",
    "corpus_io.diacritics_per_token", "lexicon.s", "lexicon.entries",
    "scoring.score_tokens_s", "scoring.apply_rules_s",
    "scoring.sentence_scores_s", "scoring.tokens", "features.build_self_s",
    "features.build_calls", "features.useful_ratio", "features.write_csv_s",
    "evaluation.run_cv_self_s", "evaluation.folds", "classifiers.io.save_s",
    "classifiers.svm.pair_attempts", "classifiers.svm.pair_moves",
    "classifiers.svm.move_ratio", "classifiers.svm.support_vectors",
    "classifiers.svm.kernel_mb", "classifiers.ann.gradient_calls",
    "classifiers.ann.final_mse", "classifiers.dtree.nodes",
    "classifiers.dtree.depth", "corpus_quality.rank_s",
    "corpus_quality.report_s", "corpus_quality.vocab", "pipeline.self_s",
    "util.writes", "util.write_s", "util.bytes_written", "trace.overhead_s",
    "error_rate")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def printed_names(lines):
    return [line.split()[0] for line in lines[:-1]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_once_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--trace", trace, "--smoke")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], "\n".join(lines)
    assert result["failed"] == 0
    # One pass per corpus of the fixed list, two when traced.
    assert result["attempted"] == \
        SPECS[workload].corpora(0.5, trace == "1") * (1 + int(trace))
    declared = MANIFEST["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    kind = KIND[workload]
    expected = END_TO_END_NAMES if trace == "0" else LAYER_NAMES + (
        f"classifiers.{kind}.train_s", f"classifiers.{kind}.predict_s")
    names = printed_names(lines)
    for name in expected:
        assert names.count(name) == 1, name
    assert any(line.startswith("env ") and '"blas_threads": "1"' in line
               for line in lines)


def test_sampler_probes_through_a_step_and_counts_its_own_time():
    with Sampler() as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        wall = time.perf_counter() - start
    assert len(host.times) >= 5
    assert 0 < host.probe_s < wall
    assert host.slowness > 0


def copy_benchmark(to: Path):
    shutil.copytree(HERE, to / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_output_checks_fire_on_a_corrupted_reference(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    workload = WORKLOADS[0]
    copied = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(copied.read_text(encoding="utf-8"))
    pinned = reference["smoke"][workload]["7"]
    pinned["reports"] = pinned["reports"][::-1]
    copied.write_text(json.dumps(reference), encoding="utf-8")
    code, lines = bench("--workload", workload, "--smoke", cwd=tmp_path)
    result = json.loads(lines[-1])
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1
    assert any("differs from the reference" in line for line in lines)


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)

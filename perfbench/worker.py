"""One benchmark child process: set up a workload corpus, or run one pass.

    python3 perfbench/worker.py setup W --seed N --dir D [--smoke]
    python3 perfbench/worker.py pass W --seed N --dir D --out O
                                [--smoke] [--trace] [--verify]

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and BLAS pinned to
one thread, so every pass is a fresh process and ``ru_maxrss`` is the
pass's own peak. A ``calibrate.Sampler`` probes the host's speed all
through the timed step; the step reports its wall time without the
probes and the host's slowness during it. The result is one JSON object
on the last stdout line.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from calibrate import Sampler
from workloads import FOLDS, WORKLOADS


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def setup(workload, seed: int, data: Path, smoke: bool) -> dict:
    """Import multisent and generate the corpus; both count as set-up."""
    with Sampler() as host:
        start = time.perf_counter()
        import multisent
        from multisent.synth import SynthConfig
        multisent.generate(SynthConfig(
            docs_per_class=workload.corpus_docs(smoke) // 2, purity=0.8,
            rule_fraction=0.2, arabic_tool_words=workload.arabic_tool_words,
            seed=seed), data)
        end = time.perf_counter()
    return {"setup_s": end - start - host.probe_s,
            "slowness": host.slowness, "env": environment()}


def run_pass(workload, seed: int, data: Path, out: Path, trace: bool,
             verify: bool) -> dict:
    import multisent.cli
    import checks
    paths = {"corpus": data / "corpus", "lexicon": data / "lexicon.tsv",
             "lemma_dict": data / "lemma_dict.tsv",
             "negations": data / "negations.txt",
             "intensifiers": data / "intensifiers.txt"}
    commands = workload.commands({k: str(v) for k, v in paths.items()},
                                 str(out), seed)
    tracer = None
    if trace:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)

    with Sampler() as host, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        codes = [multisent.cli.main(argv) for argv in commands]
        run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"codes": codes, "run_s": run_s - host.probe_s,
              "slowness": host.slowness, "peak_rss_mb": peak_rss_mb}
    if any(codes):
        return result
    result.update(artifacts=checks.artifact_digest(out),
                  reports=checks.report_digest(out),
                  mean_test_f=checks.mean_test_f(out))
    if tracer is not None:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer)
        result["absent"] = tracer.absent
    if verify:
        result["problems"] = checks.verify(
            out, seed, FOLDS, workload.cells,
            quality=commands[0][0] == "quality")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("setup", "pass"))
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--verify", action="store_true")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed, args.dir, args.smoke)
    else:
        result = run_pass(workload, args.seed, args.dir, args.out,
                          args.trace, args.verify)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

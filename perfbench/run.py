"""multisent benchmark: one workload, untraced (end-to-end metrics) or
traced (per-layer metrics).

    python3 perfbench/run.py --workload cv-svm-term8-500 --seed 7 \
        --seconds 20 --trace 0

Run from the root of a source checkout. Each set-up and each pass is a
fresh child process (``worker.py``) with BLAS pinned to one thread, and
its time is reported in seconds of a nominal host (``calibrate.py``). The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric with
its unit, the quartiles and sample counts, the environment and the
output checks. See README.md in this directory.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import HUMAN_ONLY, layer_unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# Every run must end within 180 s; stop starting children well before.
DEADLINE_S = 165.0
DEADLINE_MARGIN_S = 30.0
CORPUS_STRIDE = 1000
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("docs_per_s", "docs/s"),
              ("peak_rss_mb", "MB"), ("mean_test_f", "F"))


class ChildFailed(Exception):
    pass


class Runner:
    """Starts worker children for one workload and seed, under a deadline."""

    def __init__(self, root: Path, work: Path, workload, seed: int,
                 smoke: bool):
        self.root, self.work = root, work
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        for var in BLAS_VARS:
            self.env[var] = BLAS_THREADS

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, mode: str, *extra) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), mode,
                self.workload.name, *extra]
        if self.smoke:
            argv.append("--smoke")
        try:
            # subprocess.run kills and reaps the child on timeout.
            proc = subprocess.run(argv, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} ran past the deadline")
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} exited {proc.returncode}: "
                              + proc.stderr.strip()[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self, data: Path, corpus_seed: int) -> dict:
        return self.child("setup", "--seed", str(corpus_seed),
                          "--dir", str(data))

    def run_pass(self, data: Path, corpus_seed: int, traced: bool,
                 verify: bool) -> dict:
        out = self.work / f"out-{corpus_seed}{'-traced' if traced else ''}"
        extra = ["--seed", str(corpus_seed), "--dir", str(data),
                 "--out", str(out)]
        extra += ["--trace"] if traced else []
        extra += ["--verify"] if verify else []
        start = time.monotonic()
        try:
            result = self.child("pass", *extra)
        except ChildFailed as exc:
            result = {"codes": [str(exc)],
                      "run_s": time.monotonic() - start}
        result.update(traced=traced, corpus_seed=corpus_seed)
        return result


def corpus_seed(seed: int, k: int) -> int:
    """Seed of the k-th corpus of a run; the first one is the run seed."""
    return seed + CORPUS_STRIDE * k


def skipped(seed: int, traced: bool) -> dict:
    return {"codes": ["not run: the deadline came first"], "run_s": 0.0,
            "traced": traced, "corpus_seed": seed}


def measure(runner: Runner, seconds: float, trace: bool):
    """Run one pass per corpus of the workload's fixed list.

    Corpus k of a run with seed s is generated from seed s + 1000k, and
    the list's length depends on ``seconds`` alone, so every commit times
    the same inputs. A traced run gives each corpus an untraced and a
    traced pass, so the tracing overhead and the byte-identity check come
    from the same inputs. An untraced run also times extra set-ups, spread
    after its passes, until it has the workload's ``setups``, so setup_s
    is a median of several taken across the run. The deadline is only a
    safety stop: a pass it leaves out counts as failed.

    Every step writes to a directory of its own, and all are removed only
    at the end: the file system's work on a removal would otherwise land
    in the next step's timing.
    """
    setups, passes = [], []
    modes = (False, True) if trace else (False,)
    count = runner.workload.corpora(seconds, trace)
    extra = 0 if trace else max(0, runner.workload.setups - count)
    for k in range(count):
        seed = corpus_seed(runner.seed, k)
        if runner.remaining() < DEADLINE_MARGIN_S:
            passes += [skipped(seed, traced) for traced in modes]
            continue
        data = runner.work / f"data-{seed}"
        setups.append(runner.setup(data, seed))
        for traced in modes:
            passes.append(runner.run_pass(data, seed, traced,
                                          verify=not traced))
        for j in range(extra * k // count, extra * (k + 1) // count):
            if runner.remaining() > DEADLINE_MARGIN_S:
                seed = corpus_seed(runner.seed, count + j)
                setups.append(runner.setup(runner.work / f"data-{seed}",
                                           seed))
    return setups, passes


def judge(passes, references) -> list:
    """Per-pass problems: exit codes, output checks, traced vs untraced
    bytes on the same corpus, and the reference where one is pinned."""
    untraced = {p["corpus_seed"]: p for p in passes if not p["traced"]}
    verdicts = []
    for p in passes:
        problems = list(p.get("problems", []))
        reference = references.get(str(p["corpus_seed"]))
        twin = untraced.get(p["corpus_seed"], {})
        if any(p["codes"]):
            problems.append(f"pass failed: {p['codes']}")
        elif p["traced"] and p["artifacts"] != twin.get("artifacts"):
            problems.append("traced pass wrote different bytes than the "
                            "untraced pass on the same corpus")
        elif reference is not None:
            if p["reports"] != reference["reports"]:
                problems.append("report digest differs from the reference")
            if p["mean_test_f"] != reference["mean_test_f"]:
                problems.append(f"mean_test_f {p['mean_test_f']!r} differs "
                                f"from the reference "
                                f"{reference['mean_test_f']!r}")
        verdicts.append(problems)
    return verdicts


def scaled(step: dict, key: str) -> float:
    """A child's measured time in seconds of the nominal host: its wall
    time over the host slowness sampled while it ran (calibrate.py)."""
    return step[key] / step["slowness"]


def describe(name, unit, values, value=None, stat="median") -> str:
    if value is None:
        value = statistics.median(values)
    if len(values) < 2:
        return f"{name:34s} {value:<14.6g} {unit:12s} (n=1)"
    lo, _, hi = statistics.quantiles(values, n=4, method="inclusive")
    return (f"{name:34s} {value:<14.6g} {unit:12s} "
            f"({stat}, q1 {lo:.6g}, q3 {hi:.6g}, n={len(values)})")


def report(workload, args, setups, passes, verdicts, references) -> dict:
    env = dict(setups[0]["env"], seed=args.seed)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} setups={len(setups)}"
          + (" smoke" if args.smoke else ""))
    print("env " + json.dumps(env, sort_keys=True))
    ok = [p for p, v in zip(passes, verdicts) if not v]
    failed = len(passes) - len(ok)
    for i, problems in enumerate(verdicts):
        for problem in problems:
            print(f"check FAILED pass {i}: {problem}")
    pinned = sorted({p["corpus_seed"] for p in passes
                     if str(p["corpus_seed"]) in references})
    print(f"check reference: corpus seeds {pinned} pinned, report digest "
          f"and mean_test_f compared" if pinned else
          "check reference: no corpus seed of this run is pinned")
    print("check outputs: fold F recomputed from the saved models"
          + ("; traced bytes equal untraced bytes" if args.trace else ""))
    print(f"{'error_rate':34s} {failed / len(passes):<14.6g} {'ratio':12s} "
          f"({failed} of {len(passes)} passes failed)")
    metrics = {}
    untraced = [p for p in ok if not p["traced"]]
    if args.trace:
        traced = [p for p in ok if p["traced"]]
        if traced and untraced:
            metrics = trace_metrics(workload, untraced, traced)
    elif untraced:
        run_s = [scaled(p, "run_s") for p in untraced]
        docs = workload.corpus_docs(args.smoke) * workload.cells
        print(describe("wall.setup_s", "s", [s["setup_s"] for s in setups]))
        print(describe("wall.run_s", "s", [p["run_s"] for p in untraced]))
        print(describe("wall.slowness", "ratio",
                       [p["slowness"] for p in untraced])
              + " probe time over its nominal time, during passes")
        rows = {
            "setup_s": [scaled(s, "setup_s") for s in setups],
            "run_s": run_s,
            "docs_per_s": [docs / r for r in run_s],
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
            # Deterministic per run seed: the run's first corpus only, so
            # the value reads the same for every --seconds.
            "mean_test_f": [p["mean_test_f"] for p in untraced
                            if p["corpus_seed"] == args.seed],
        }
        # Each pass is another corpus of the fixed list, so run_s is the
        # mean time per corpus and docs_per_s the list's documents over
        # its total time; the other figures are medians.
        mean_run_s = statistics.fmean(run_s)
        values = {"run_s": (mean_run_s, "mean"),
                  "docs_per_s": (docs / mean_run_s, "total")}
        for name, unit in END_TO_END:
            if not rows[name]:
                continue
            value, stat = values.get(name, (None, "median"))
            print(describe(name, unit, rows[name], value, stat))
            if value is None:
                value = statistics.median(rows[name])
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0 and bool(metrics),
            "attempted": len(passes), "failed": failed, "metrics": metrics}


def trace_metrics(workload, untraced, traced) -> dict:
    kind = workload.classifier
    absent = set(traced[0]["absent"])
    if absent:
        print("absent (the program no longer defines): "
              + ", ".join(sorted(absent)))
    metrics = {}
    for name in traced[0]["layers"]:
        unit = layer_unit(name)
        # Layer times in nominal-host seconds, as run_s is.
        values = [p["layers"][name] / (p["slowness"] if unit == "s" else 1)
                  for p in traced]
        # Kind-specific labels, as the layer map in README.md names them.
        label = name.replace("classifiers.train_s",
                             f"classifiers.{kind}.train_s") \
            .replace("classifiers.predict_s", f"classifiers.{kind}.predict_s")
        print(describe(label, unit, values))
        if name not in HUMAN_ONLY:
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
    overhead = statistics.fmean(scaled(p, "run_s") for p in traced) \
        - statistics.fmean(scaled(p, "run_s") for p in untraced)
    print(describe("trace.overhead_s", "s", [overhead])
          + " traced minus untraced run_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="time to measure; sizes the fixed list of corpora "
                        "with the workload's corpus_s")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny corpora for the benchmark's own tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "multisent" / "__init__.py").is_file():
        print(f"error: {root} is not a multisent source checkout "
              "(no src/multisent)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    scale = "smoke" if args.smoke else "full"
    references = references.get(scale, {}).get(workload.name, {})

    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    runner = Runner(root, work, workload, args.seed, args.smoke)
    try:
        setups, passes = measure(runner, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    verdicts = judge(passes, references)
    result = report(workload, args, setups, passes, verdicts, references)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Pin the current program's reports as the benchmark's reference.

    python3 perfbench/record_reference.py --seeds 1-10 [--smoke] \
        [--workload NAME ...]

Runs one verified, untraced pass per workload and seed (from the root of
a source checkout) and stores the report digest and ``mean_test_f`` in
``reference.json``. Re-recording is a behaviour change to review: a
later run whose reports differ from a pinned seed counts as failed.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import REFERENCE, Runner
from workloads import WORKLOADS


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--seeds", type=seed_list, default=[7])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    root = Path.cwd()
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    scale = references.setdefault("smoke" if args.smoke else "full", {})
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            work = root / ".perfbench_work" / f"reference-{os.getpid()}"
            runner = Runner(root, work, WORKLOADS[name], seed, args.smoke)
            try:
                data = work / "data"
                runner.setup(data, seed)
                result = runner.run_pass(data, seed, traced=False,
                                         verify=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if any(result["codes"]) or result["problems"]:
                print(f"{name} seed {seed}: not recorded: "
                      f"{result['codes']} {result.get('problems')}",
                      file=sys.stderr)
                return 1
            scale.setdefault(name, {})[str(seed)] = {
                "reports": result["reports"],
                "mean_test_f": result["mean_test_f"]}
            print(f"{name} seed {seed}: {result['reports'][:16]} "
                  f"mean_test_f {result['mean_test_f']!r}", flush=True)
            REFERENCE.write_text(json.dumps(references, indent=1,
                                            sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for one workload pass.

``verify`` recomputes every fold's held-out F from the saved models and
``features.csv`` with its own precision/recall/F arithmetic, so a report
that disagrees with the models it was written next to is caught even for
a seed that has no committed reference digest.
"""

import csv
import hashlib
import json
from pathlib import Path

# A pass whose mean test F falls below this learned nothing: the synthetic
# corpora are separable to about 0.95 at purity 0.8.
MEAN_F_FLOOR = 0.75
_TOL = 1e-12


def _files(out: Path):
    return sorted(p for p in out.rglob("*") if p.is_file())


def _digest(out: Path, paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(out)).encode("utf-8") + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def artifact_digest(out: Path) -> str:
    """Digest of every file a pass wrote: features, models and reports."""
    return _digest(out, _files(out))


def report_digest(out: Path) -> str:
    """Digest of the reports a reference pins: report.json and sweep.csv."""
    return _digest(out, [p for p in _files(out)
                         if p.name in ("report.json", "sweep.csv")])


def _reports(out: Path):
    return [(p.parent, json.loads(p.read_text(encoding="utf-8")))
            for p in _files(out) if p.name == "report.json"]


def _cell_mean_f(report: dict) -> float:
    test = report["average"]["test"]
    return (test["pos"]["f"] + test["neg"]["f"]) / 2.0


def mean_test_f(out: Path) -> float:
    """Mean of pos/neg test F over report.json files (sweep cells)."""
    values = [_cell_mean_f(r) for _, r in _reports(out)]
    return sum(values) / len(values)


def _f_scores(predicted, actual):
    tp = sum(1 for p, a in zip(predicted, actual) if p == 1 and a == 1)
    fp = sum(1 for p, a in zip(predicted, actual) if p == 1 and a == 0)
    tn = sum(1 for p, a in zip(predicted, actual) if p == 0 and a == 0)
    fn = sum(1 for p, a in zip(predicted, actual) if p == 0 and a == 1)

    def f(tp_, fp_, fn_):
        p = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        r = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0
    return f(tp, fp, fn), f(tn, fn, fp)


def _read_features(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(x) for x in r[1:]] for r in rows], [int(r[0]) for r in rows]


def verify(out: Path, seed: int, folds: int, cells: int,
           quality: bool) -> list:
    """Return a list of problems with a pass's outputs (empty when sound)."""
    import numpy as np
    from multisent import classifiers
    from multisent.evaluation import stratified_kfold

    problems = []
    reports = _reports(out)
    if len(reports) != cells:
        return [f"expected {cells} report.json files, found {len(reports)}"]
    for cell_dir, report in reports:
        where = cell_dir.relative_to(out)
        if (report["meta"]["k"], report["meta"]["seed"]) != (folds, seed):
            problems.append(f"{where}: meta k/seed do not match the command")
        rows, labels = _read_features(cell_dir / "features.csv")
        rows = np.asarray(rows)
        assignment = stratified_kfold(labels, folds, seed)
        for j, fold in enumerate(report["folds"]):
            model = classifiers.load_model(cell_dir / f"model_fold{j}.json")
            test = np.flatnonzero(assignment == j)
            predicted = classifiers.predict_labels(model, rows[test]).tolist()
            f_pos, f_neg = _f_scores(predicted, [labels[i] for i in test])
            got = fold["test"]
            if abs(got["pos"]["f"] - f_pos) > _TOL or \
                    abs(got["neg"]["f"] - f_neg) > _TOL:
                problems.append(f"{where} fold {j}: report F disagrees with "
                                f"the saved model's predictions")
        if _cell_mean_f(report) < MEAN_F_FLOOR:
            problems.append(f"{where}: mean test F {_cell_mean_f(report)} "
                            f"is below {MEAN_F_FLOOR}")
    if cells > 1:
        problems += _verify_sweep(out, reports)
    if quality:
        problems += _verify_quality(out / "quality.csv")
    return problems


def _verify_sweep(out: Path, reports) -> list:
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    by_cell = {}
    for cell_dir, report in reports:
        meta = report["meta"]
        key = (meta["formula"], meta["variant"][-1],
               "true" if meta["rules"] else "false")
        by_cell[key] = _cell_mean_f(report)
    problems = []
    for row in table:
        key = (row["prior_formula"], row["variant"], row["rules"])
        if abs(float(row["mean_test_f"]) - by_cell.get(key, -1.0)) > _TOL:
            problems.append(f"sweep.csv row {key} disagrees with its report")
    best = [float(r["mean_test_f"]) for r in table if r["best"] == "1"]
    if len(best) != 1 or best[0] != max(float(r["mean_test_f"])
                                         for r in table):
        problems.append("sweep.csv does not mark exactly the best cell")
    if len(table) != len(reports):
        problems.append("sweep.csv has a row count unlike the cell count")
    return problems


def _verify_quality(path: Path) -> list:
    if not path.is_file():
        return ["quality.csv was not written"]
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    counts = [int(r["actual_count"]) for r in table]
    ranks = [int(r["rank"]) for r in table]
    if not counts or ranks != list(range(1, len(counts) + 1)) or \
            any(a < b for a, b in zip(counts, counts[1:])):
        return ["quality.csv is not a rank-ordered frequency table"]
    return []

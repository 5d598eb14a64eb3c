"""Multi-sense sentiment lexicon loading and prior polarity aggregation.

A lexicon maps each lemma to one or more (positive, negative) sense score
pairs. Aggregation collapses the senses into a single signed prior in
[-1, 1] using one of five formulas, each a composition of a per-column
reduction (average or maximum of the absolute scores) and a combination
step (pick the larger side, subtract, or average with the negative side
sign-flipped).
"""

from dataclasses import dataclass

from .errors import DataError
from .util import Formula, read_text, sum_left


class PriorFormula(Formula):
    """How a lemma's sense scores collapse into one prior polarity."""
    AVG_MAX = "avg_max"   # average per column, keep the larger side
    MAX_MAX = "max_max"   # max per column, keep the larger side
    AVG_SUB = "avg_sub"   # average per column, positive minus negative
    MAX_SUB = "max_sub"   # max per column, positive minus negative
    AVG_AVG = "avg_avg"   # average per column, mean of (pos, -neg)


@dataclass(frozen=True)
class SenseScore:
    """A (positive, negative) score pair, each in [0, 1]: one sense's
    posterior scores, or their per-column collapse by ``f_avg``/``f_max``."""
    pos: float
    neg: float

    def __post_init__(self):
        for name, v in (("positive", self.pos), ("negative", self.neg)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} sense score {v!r} outside [0, 1]")


def load_lexicon(path) -> dict[str, tuple[SenseScore, ...]]:
    """Read a lemma<TAB>positive<TAB>negative TSV, one sense per line.

    Maps each lemma to its senses; repeated lemma lines accumulate as
    additional senses in file order. Scores outside [0, 1], malformed
    lines and a file with no entries raise DataError, the line faults
    prefixed with ``path:line:``.
    """
    lines = read_text(path, "lexicon file").splitlines()
    senses_by_lemma: dict[str, list[SenseScore]] = {}
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not parts[0]:
            raise DataError(
                f"{path}:{n}: expected 'lemma<TAB>positive<TAB>negative'")
        try:
            pos, neg = float(parts[1]), float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{n}: scores must be decimal numbers")
        try:
            sense = SenseScore(pos, neg)
        except ValueError as exc:
            raise DataError(f"{path}:{n}: {exc}")
        senses_by_lemma.setdefault(parts[0], []).append(sense)

    if not senses_by_lemma:
        raise DataError(f"lexicon file has no entries: {path}")
    return {lemma: tuple(senses) for lemma, senses in senses_by_lemma.items()}


def _require_senses(senses):
    senses = tuple(senses)
    if not senses:
        raise ValueError("cannot aggregate an empty sense list")
    return senses


def f_avg(senses) -> SenseScore:
    """Mean of |positive| and mean of |negative| over the senses."""
    senses = _require_senses(senses)
    return SenseScore(
        pos=sum_left(abs(s.pos) for s in senses) / len(senses),
        neg=sum_left(abs(s.neg) for s in senses) / len(senses))


def f_max(senses) -> SenseScore:
    """Max of |positive| and max of |negative| over the senses."""
    senses = _require_senses(senses)
    return SenseScore(pos=max(abs(s.pos) for s in senses),
                      neg=max(abs(s.neg) for s in senses))


def aggregate_prior(senses, formula: PriorFormula) -> float:
    """Collapse sense scores into one signed prior polarity in [-1, 1].

    For the *_max formulas the larger column wins and the result carries a
    minus sign when that column is the negative one; an exact tie returns
    the positive value unsigned.
    """
    if formula in (PriorFormula.AVG_MAX, PriorFormula.AVG_SUB,
                   PriorFormula.AVG_AVG):
        pair = f_avg(senses)
    else:
        pair = f_max(senses)

    if formula in (PriorFormula.AVG_MAX, PriorFormula.MAX_MAX):
        return -pair.neg if pair.neg > pair.pos else pair.pos
    if formula in (PriorFormula.AVG_SUB, PriorFormula.MAX_SUB):
        return pair.pos - pair.neg
    return (pair.pos + (-pair.neg)) / 2.0


def prior_table(lexicon: dict[str, tuple[SenseScore, ...]],
                formula: PriorFormula) -> dict[str, float]:
    """Aggregate every lemma of a loaded lexicon under one formula."""
    return {lemma: aggregate_prior(senses, formula)
            for lemma, senses in lexicon.items()}

"""Corpus quality statistics: rank-frequency tables, the ideal
inverse-rank frequency curve, and Kullback-Liebler distance between the
ideal and observed distributions.

Two KL variants are reported. ``kl_prob`` compares the two distributions
normalized to sum 1 and is the only variant comparable across corpora.
``kl_raw`` plugs raw frequencies into the same summation without
normalizing; some corpus-quality reports use that convention, so it is
emitted too, but it can be orders of magnitude larger (or negative).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .util import atomic_write_text, sum_left

CSV_HEADER = "rank,word,actual_count,ideal_frequency,log_rank,log_actual,log_ideal"


@dataclass(frozen=True)
class FrequencyTable:
    """Words with observed counts, ranked 1..N by descending count.

    Ties are broken lexicographically by word so the table is
    deterministic.
    """
    entries: tuple  # of (word, count, rank)

    @property
    def total_tokens(self) -> int:
        return sum(e[1] for e in self.entries)


@dataclass(frozen=True)
class QualityReport:
    kl_raw: float
    kl_prob: float


def rank_frequencies(words, word_ids) -> FrequencyTable:
    """Count the tokens of each word and rank the words; ``word_ids[t]``
    indexes the surface of token ``t`` in ``words``."""
    if not len(word_ids):
        raise DataError("cannot rank frequencies of an empty corpus")
    counts = np.bincount(word_ids, minlength=len(words)).tolist()
    ordered = sorted(zip(words, counts), key=lambda kv: (-kv[1], kv[0]))
    entries = tuple((word, count, rank)
                    for rank, (word, count) in enumerate(ordered, start=1))
    return FrequencyTable(entries=entries)


def ideal_zipf_frequency(c: float, a: float, r: int) -> float:
    """Ideal frequency of the rank-r word: c / r**a."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if c <= 0:
        raise ValueError(f"highest frequency must be positive, got {c}")
    return c / r ** a


def kl_divergence(p, q, base: float | None = None) -> float:
    """Kullback-Liebler distance from distribution p to distribution q.

    Both arguments must be probability vectors of equal length summing to
    1 (within 1e-9). Terms with p(i) = 0 contribute nothing; a zero in q
    where p is positive is an error (smooth q first, see
    ``smooth_distribution``). Natural log by default; pass ``base=2`` for
    bits.
    """
    p = list(p)
    q = list(q)
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    for name, vec in (("p", p), ("q", q)):
        if any(x < 0 for x in vec):
            raise ValueError(f"{name} has negative entries")
        if abs(sum_left(vec) - 1.0) > 1e-9:
            raise ValueError(f"{name} does not sum to 1 (got {sum_left(vec)!r})")
    return _kl_sum(p, q, base)


def _kl_sum(p, q, base: float | None) -> float:
    # Sum of p(i) * log(p(i) / q(i)) over p(i) != 0. Over raw frequencies
    # it is not a true divergence and not guaranteed nonnegative.
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            raise ValueError("q is zero where p is positive; smooth q first")
        total += pi * math.log(pi / qi)
    if base is not None:
        total /= math.log(base)
    return total


def smooth_distribution(q, eps: float = 1e-12):
    """Add eps to every entry when q contains zeros, then renormalize."""
    q = [float(x) for x in q]
    if any(x == 0.0 for x in q):
        q = [x + eps for x in q]
    s = sum_left(q)
    return [x / s for x in q]


def quality_report(table: FrequencyTable, a: float = 1.0,
                   csv_path=None, base: float | None = None) -> QualityReport:
    """Compare observed counts against the ideal curve over ranks 1..N.

    The ideal curve anchors at the highest observed frequency. An
    exponent ``a`` that makes the curve, or the raw KL sum, zero or
    non-finite at some rank is a ConfigurationError. When ``csv_path``
    is given, a rank/actual/ideal table (with log-log columns for
    plotting) is written there.
    """
    if not table.entries:
        raise DataError("empty frequency table")
    c = float(table.entries[0][1])
    observed = [float(count) for _, count, _ in table.entries]
    try:
        ideal = [ideal_zipf_frequency(c, a, rank)
                 for _, _, rank in table.entries]
    except (OverflowError, ZeroDivisionError):    # rank ** a out of range
        ideal = [math.nan]
    kl_raw = _kl_sum(ideal, observed, base)
    if not (all(0.0 < f < math.inf for f in ideal)
            and math.isfinite(kl_raw + sum_left(ideal))):
        raise ConfigurationError(
            f"exponent {a!r} puts the ideal frequency or its KL sum out of "
            f"range at ranks 1..{len(observed)}")

    kl_prob = kl_divergence(smooth_distribution(ideal),
                            smooth_distribution(observed), base=base)

    if csv_path is not None:
        lines = [CSV_HEADER]
        for (word, count, rank), f_ideal in zip(table.entries, ideal):
            lines.append(
                f"{rank},{word},{count},{f_ideal!r},{math.log(rank)!r},"
                f"{math.log(count)!r},{math.log(f_ideal)!r}")
        atomic_write_text(csv_path, "\n".join(lines) + "\n")
    return QualityReport(kl_raw=kl_raw, kl_prob=kl_prob)

import math
import random

import pytest

from multisent.corpus_quality import (CSV_HEADER, FrequencyTable,
                                      ideal_zipf_frequency, kl_divergence,
                                      quality_report, rank_frequencies,
                                      smooth_distribution)
from multisent.errors import DataError

import oracles


def table_of(*docs):
    """Rank the tokens of documents given as lists of surfaces."""
    words = list(dict.fromkeys(t for doc in docs for t in doc))
    index = {w: i for i, w in enumerate(words)}
    return rank_frequencies(words, [index[t] for doc in docs for t in doc])


class TestRankFrequencies:
    def test_basic_counting(self):
        table = table_of(["a", "a", "b"])
        assert table.entries == (("a", 2, 1), ("b", 1, 2))

    def test_tie_broken_lexicographically(self):
        table = table_of(["b", "a"])
        assert table.entries == (("a", 1, 1), ("b", 1, 2))

    def test_counts_span_documents(self):
        table = table_of(["x"], ["x", "y"])
        assert table.entries[0] == ("x", 2, 1)

    def test_top_rank_is_highest_observed_frequency(self):
        rng = random.Random(31)
        words = [rng.choice("abcdefg") for _ in range(500)]
        table = table_of(words)
        top = max(words.count(w) for w in set(words))
        assert table.entries[0][1] == top
        assert [e[2] for e in table.entries] == list(
            range(1, len(table.entries) + 1))
        counts = [e[1] for e in table.entries]
        assert counts == sorted(counts, reverse=True)
        assert table.total_tokens == len(words)

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(DataError):
            table_of([])


class TestIdealZipf:
    def test_rank_one_is_anchor(self):
        assert ideal_zipf_frequency(100, 1.0, 1) == 100

    def test_rank_two_halves(self):
        assert ideal_zipf_frequency(100, 1.0, 2) == 50

    def test_rank_three_is_a_third(self):
        assert ideal_zipf_frequency(100, 1.0, 3) == pytest.approx(100 / 3)

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError):
            ideal_zipf_frequency(100, 1.0, 0)

    def test_strictly_decreasing_for_positive_exponent(self):
        for a in (0.5, 1.0, 1.7):
            values = [ideal_zipf_frequency(250, a, r) for r in range(1, 60)]
            assert all(x > y for x, y in zip(values, values[1:]))


class TestKlDivergence:
    def test_identical_distributions(self):
        assert kl_divergence((0.5, 0.5), (0.5, 0.5)) == 0.0

    def test_two_point_example(self):
        got = kl_divergence((0.5, 0.5), (0.25, 0.75))
        assert got == pytest.approx(0.14384, abs=1e-4)
        assert got == pytest.approx(
            oracles.kl_terms((0.5, 0.5), (0.25, 0.75)), abs=1e-12)

    def test_degenerate_p_single_term(self):
        assert kl_divergence((1.0, 0.0), (0.5, 0.5)) \
            == pytest.approx(math.log(2), abs=1e-12)

    def test_asymmetric(self):
        forward = kl_divergence((0.5, 0.5), (0.25, 0.75))
        backward = kl_divergence((0.25, 0.75), (0.5, 0.5))
        assert forward != backward

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            kl_divergence((1.0,), (0.5, 0.5))

    def test_unsmoothed_zero_in_q(self):
        with pytest.raises(ValueError, match="smooth"):
            kl_divergence((0.5, 0.5), (1.0, 0.0))

    def test_unnormalized_inputs_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            kl_divergence((0.5, 0.4), (0.5, 0.5))

    def test_base_two_rescales(self):
        nat = kl_divergence((0.5, 0.5), (0.25, 0.75))
        bits = kl_divergence((0.5, 0.5), (0.25, 0.75), base=2)
        assert bits == pytest.approx(nat / math.log(2), abs=1e-12)

    def test_self_divergence_zero_and_nonnegative_random(self):
        rng = random.Random(555)
        for _ in range(1000):
            n = rng.randint(2, 9)
            p = [rng.uniform(0.01, 1) for _ in range(n)]
            q = [rng.uniform(0.01, 1) for _ in range(n)]
            p = [x / sum(p) for x in p]
            q = [x / sum(q) for x in q]
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
            kl = kl_divergence(p, q)
            assert kl >= 0.0
            assert kl == pytest.approx(oracles.kl_terms(p, q), abs=1e-12)

    def test_smooth_distribution_fills_zeros(self):
        smoothed = smooth_distribution([2.0, 0.0])
        assert smoothed[1] > 0
        assert sum(smoothed) == pytest.approx(1.0)
        kl_divergence((1.0, 0.0), smoothed)  # no longer raises


class TestQualityReport:
    def test_two_word_table_with_unit_exponent_is_ideal(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        table = FrequencyTable(entries=(("a", 2, 1), ("b", 1, 2)))
        report = quality_report(table, a=1.0)
        assert report.kl_prob == pytest.approx(0.0, abs=1e-9)
        assert list(tmp_path.iterdir()) == []     # no csv_path, no table

    def test_exactly_zipfian_counts_give_zero(self):
        # counts 2520/r are integers for every rank r in 1..10
        entries = tuple((f"w{r:02d}", 2520 // r, r) for r in range(1, 11))
        report = quality_report(FrequencyTable(entries=entries), a=1.0)
        assert report.kl_prob <= 1e-9

    def test_kl_prob_nonnegative_on_random_tables(self):
        rng = random.Random(9)
        for _ in range(50):
            counts = sorted((rng.randint(1, 400)
                             for _ in range(rng.randint(2, 30))),
                            reverse=True)
            entries = tuple((f"w{i:03d}", c, i + 1)
                            for i, c in enumerate(counts))
            report = quality_report(FrequencyTable(entries=entries), a=1.0)
            assert report.kl_prob >= 0.0

    def test_ideal_curve_anchors_at_the_rank_one_count(self, tmp_path):
        # Counts 6, 2, 1 do not follow Zipf: the ideal curve is 6, 3, 2.
        table = table_of(["a"] * 6 + ["b"] * 2 + ["c"])
        out = tmp_path / "table.csv"
        report = quality_report(table, a=1.0, csv_path=out)
        rows = [line.split(",")
                for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert rows[0][:3] == ["1", "a", "6"]
        assert float(rows[0][3]) == float(rows[0][2])
        assert [float(r[3]) for r in rows] == [6.0, 3.0, 2.0]
        assert report.kl_raw == (6.0 * math.log(6.0 / 6.0)
                                 + 3.0 * math.log(3.0 / 2.0)
                                 + 2.0 * math.log(2.0 / 1.0))

    def test_csv_emission_and_log_log_slope(self, tmp_path):
        a = 1.7
        entries = tuple((f"w{r}", 1000 - r, r) for r in range(1, 30))
        out = tmp_path / "table.csv"
        report = quality_report(FrequencyTable(entries=entries), a=a,
                                csv_path=out)
        assert list(tmp_path.iterdir()) == [out]
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(entries) + 1
        rows = [line.split(",") for line in lines[1:]]
        log_rank = [float(r[4]) for r in rows]
        log_ideal = [float(r[6]) for r in rows]
        for i in range(1, len(rows)):
            slope = (log_ideal[i] - log_ideal[0]) / (log_rank[i] - log_rank[0])
            assert slope == pytest.approx(-a, abs=1e-9)


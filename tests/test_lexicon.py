import math
import random

import pytest

from multisent.errors import ConfigurationError, DataError, ParseError
from multisent.lexicon import (PolarityPair, PriorFormula, SenseScore,
                               aggregate_prior, f_avg, f_max, load_lexicon,
                               prior_table)

import oracles

FIVE = [SenseScore(p, n) for p, n in oracles.FIVE_SENSES]


def make_senses(pairs):
    return [SenseScore(p, n) for p, n in pairs]


class TestLoadLexicon:
    def test_accumulates_repeated_lemma_lines(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("".join(f"hot\t{p}\t{n}\n"
                                for p, n in oracles.FIVE_SENSES),
                        encoding="utf-8")
        lex = load_lexicon(path)
        assert set(lex) == {"hot"}
        assert len(lex["hot"].senses) == 5
        assert lex["hot"].senses[1] == SenseScore(0.75, 0.125)

    def test_scores_of_exactly_zero_and_one_load(self, tmp_path):
        # [0, 1] is closed at both ends.
        path = tmp_path / "lex.tsv"
        path.write_text("top\t1.000\t0\nlow\t0.0\t1\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex["top"].senses == (SenseScore(1.0, 0.0),)
        assert lex["low"].senses == (SenseScore(0.0, 1.0),)

    def test_score_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("ok\t0.5\t0.5\nx\t1.5\t0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"lex\.tsv:2"):
            load_lexicon(path)

    def test_malformed_line_is_an_error(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("just-a-lemma\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_lexicon(path)

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n  "])
    def test_file_without_entries_is_a_data_error(self, tmp_path, text):
        # Such a lexicon used to give every token a prior of 0, so the
        # classifiers trained on all-zero rows.
        path = tmp_path / "lex.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="no entries"):
            load_lexicon(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_lexicon(tmp_path / "nope.tsv")


class TestPairReductions:
    def test_five_sense_averages(self):
        pair = f_avg(FIVE)
        assert pair.pos == pytest.approx(0.4, abs=1e-12)
        assert pair.neg == pytest.approx(0.2, abs=1e-12)

    def test_five_sense_maxima(self):
        pair = f_max(FIVE)
        assert pair == PolarityPair(0.75, 0.375)

    def test_singleton(self):
        senses = make_senses([(0.7, 0.1)])
        assert f_avg(senses) == PolarityPair(0.7, 0.1)
        assert f_max(senses) == PolarityPair(0.7, 0.1)

    def test_all_zero(self):
        senses = make_senses([(0.0, 0.0), (0.0, 0.0)])
        assert f_avg(senses) == PolarityPair(0.0, 0.0)

    def test_columns_reduce_independently(self):
        senses = make_senses([(0.2, 0.9), (0.8, 0.1)])
        assert f_max(senses) == PolarityPair(0.8, 0.9)

    def test_empty_senses_error(self):
        with pytest.raises(ValueError):
            f_avg([])
        with pytest.raises(ValueError):
            aggregate_prior([], PriorFormula.MAX_SUB)

    def test_sense_score_range_enforced(self):
        with pytest.raises(ValueError):
            SenseScore(1.2, 0.0)
        with pytest.raises(ValueError):
            SenseScore(0.0, -0.1)


class TestAggregatePrior:
    # Expected values computed with the oracle in oracles.py.
    FIVE_EXPECTED = {
        PriorFormula.AVG_MAX: 0.4,
        PriorFormula.MAX_MAX: 0.75,
        PriorFormula.AVG_SUB: 0.2,
        PriorFormula.MAX_SUB: 0.375,
        PriorFormula.AVG_AVG: 0.1,
    }

    @pytest.mark.parametrize("formula,expected",
                             sorted(FIVE_EXPECTED.items(),
                                    key=lambda kv: kv[0].value))
    def test_five_sense_entry(self, formula, expected):
        value = aggregate_prior(FIVE, formula)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(
            oracles.prior(oracles.FIVE_SENSES, formula.value), abs=1e-12)

    def test_negative_column_wins_and_sign_is_restored(self):
        senses = make_senses([(0.0, 0.6)])
        assert aggregate_prior(senses, PriorFormula.AVG_MAX) == -0.6

    def test_max_formula_tie_returns_positive(self):
        senses = make_senses([(0.5, 0.5)])
        assert aggregate_prior(senses, PriorFormula.AVG_MAX) == 0.5
        assert aggregate_prior(senses, PriorFormula.MAX_MAX) == 0.5

    def test_symmetric_subtraction_cancels(self):
        senses = make_senses([(0.5, 0.5)])
        assert aggregate_prior(senses, PriorFormula.MAX_SUB) == 0.0

    def test_matches_oracle_on_random_sense_lists(self):
        rng = random.Random(1234)
        for _ in range(1000):
            pairs = [(rng.random(), rng.random())
                     for _ in range(rng.randint(1, 8))]
            senses = make_senses(pairs)
            for formula in PriorFormula:
                got = aggregate_prior(senses, formula)
                want = oracles.prior(pairs, formula.value)
                assert got == pytest.approx(want, abs=1e-12), formula
                assert -1.0 <= got <= 1.0

    def test_avg_avg_is_half_avg_sub_exactly(self):
        rng = random.Random(42)
        for _ in range(500):
            pairs = [(rng.random(), rng.random())
                     for _ in range(rng.randint(1, 6))]
            senses = make_senses(pairs)
            assert aggregate_prior(senses, PriorFormula.AVG_AVG) \
                == aggregate_prior(senses, PriorFormula.AVG_SUB) / 2.0

    def test_sub_sign_matches_pair_difference(self):
        rng = random.Random(7)
        for _ in range(200):
            pairs = [(rng.random(), rng.random())
                     for _ in range(rng.randint(1, 6))]
            senses = make_senses(pairs)
            pair = f_max(senses)
            value = aggregate_prior(senses, PriorFormula.MAX_SUB)
            assert math.copysign(1, value) == math.copysign(1, pair.pos - pair.neg) \
                or value == 0 == pytest.approx(pair.pos - pair.neg)

    def test_single_sense_avg_equals_max_variants(self):
        rng = random.Random(99)
        for _ in range(100):
            senses = make_senses([(rng.random(), rng.random())])
            assert aggregate_prior(senses, PriorFormula.AVG_MAX) \
                == aggregate_prior(senses, PriorFormula.MAX_MAX)
            assert aggregate_prior(senses, PriorFormula.AVG_SUB) \
                == aggregate_prior(senses, PriorFormula.MAX_SUB)

    def test_prior_table_aggregates_whole_lexicon(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\t0.6\t0.1\nb\t0.1\t0.9\n", encoding="utf-8")
        table = prior_table(load_lexicon(path), PriorFormula.MAX_SUB)
        assert table == {"a": pytest.approx(0.5), "b": pytest.approx(-0.8)}

    def test_formula_from_name(self):
        assert PriorFormula.from_name("Max_Sub") is PriorFormula.MAX_SUB
        with pytest.raises(ConfigurationError,
                           match="unknown prior formula 'bogus'"):
            PriorFormula.from_name("bogus")

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import multisent
from multisent.errors import ConfigurationError, DataError
from multisent.features import (Dataset, Variant, doc_rows, read_features_csv,
                                term_rows, write_features_csv)
from multisent.lexicon import SenseScore, f_avg
from multisent.util import sum_left

import oracles


def term_features(scores) -> list:
    """One document's TERM8 row through ``term_rows``, checked bit for bit
    against the scalar oracle."""
    scores = np.array(scores, dtype=float)
    positions = np.flatnonzero(scores)
    row = term_rows(positions, scores[positions],
                    np.array([0, len(scores)]))[0]
    assert row.tobytes() == np.array(
        oracles.term_features(scores.tolist())).tobytes()
    return row.tolist()


def doc_features(values) -> list:
    """One document's DOC7 row through ``doc_rows``, checked bit for bit
    against the scalar oracle."""
    values = np.array(values, dtype=float)
    row = doc_rows(values, np.array([0, len(values)]))[0]
    assert row.tobytes() == np.array(
        oracles.doc_features(values.tolist())).tobytes()
    return row.tolist()


class TestTermFeatures:
    def test_hand_computed_row(self):
        # counts/sums/averages/first/last worked out by hand
        row = term_features([0.5, -0.25, 0.25])
        assert row == [2, 1, 0.75, -0.25, 0.375, -0.25, 0.5, 0.25]

    def test_no_sentiment_tokens(self):
        assert term_features([0.0, 0.0]) == [0.0] * 8
        assert term_features([]) == [0.0] * 8

    def test_neutral_tokens_contribute_nothing(self):
        with_zeros = term_features([0.0, 0.4, 0.0, -0.2, 0.0])
        without = term_features([0.4, -0.2])
        assert with_zeros == without

    def test_single_subjective_token_first_equals_last(self):
        row = term_features([0.0, -0.3, 0.0])
        assert row[6] == row[7] == -0.3

    def test_average_times_count_equals_sum(self):
        rng = random.Random(17)
        for _ in range(300):
            scores = [rng.uniform(-1, 1) if rng.random() < 0.6 else 0.0
                      for _ in range(rng.randint(0, 40))]
            cp, cn, sp, sn, ap, an, _, _ = term_features(scores)
            assert ap * cp == pytest.approx(sp, abs=1e-9)
            assert an * cn == pytest.approx(sn, abs=1e-9)
            assert sp >= 0 and sn <= 0 and ap >= 0 and an <= 0

    def test_sums_add_left_to_right_on_every_python(self):
        # A compensated sum (Python >= 3.12) gives 1.0 here.
        assert sum_left([0.1] * 10) == 0.9999999999999999
        assert sum_left([]) == 0.0 and isinstance(sum_left([]), float)
        row = term_features([0.1] * 10 + [-0.1] * 10)
        assert row[2:6] == [0.9999999999999999, -0.9999999999999999,
                            0.09999999999999999, -0.09999999999999999]
        assert f_avg([SenseScore(0.1, 0.1)] * 10).pos == 0.09999999999999999

    def test_two_decimal_display_rounding(self):
        # a mean of 20.2 over 166 positives prints as 0.12 at two decimals
        assert f"{20.2 / 166:.2f}" == "0.12"


class TestDocFeatures:
    def test_single_sentence_document(self):
        row = doc_features([0.75])
        assert row == [1, 0, 0.75, 0, 0.75, 0.75, 0.75]

    def test_mixed_sentences(self):
        scores = [-0.25, 0.75, -0.75, 0.13]
        row = doc_features(scores)
        assert row == [2, 2, 0.75, -0.75, -0.25, 0.75, 0.13]

    def test_zero_sentences(self):
        assert doc_features([]) == [0.0] * 7

    def test_middle_is_lower_median(self):
        assert doc_features([0.1, 0.2, 0.3, 0.4])[5] == 0.2
        assert doc_features([0.1, 0.2, 0.3])[5] == 0.2

    def test_max_neg_carries_sign(self):
        row = doc_features([-0.2, -0.9])
        assert row[3] == -0.9
        assert row[2] == 0.0

    def test_count_zero_implies_max_zero(self):
        rng = random.Random(29)
        for _ in range(200):
            scores = [rng.choice([1, -1]) * rng.uniform(0.1, 1)
                      for _ in range(rng.randint(0, 6))]
            row = doc_features(scores)
            if row[0] == 0:
                assert row[2] == 0.0
            if row[1] == 0:
                assert row[3] == 0.0


class TestDataset:
    def test_variant_width_checked(self):
        with pytest.raises(DataError, match=r"rows must be a 2-D array with "
                                            r"8 columns, got shape \(1, 2\)"):
            Dataset(rows=[[1.0, 2.0]], labels=[1], variant=Variant.TERM8)

    def test_labels_checked(self):
        with pytest.raises(DataError):
            Dataset(rows=[[0.0] * 8], labels=[2], variant=Variant.TERM8)

    def test_bad_labels_are_listed_once_in_order(self):
        labels = np.array([2, 0, -1, 2, 1, 7, -1])
        with pytest.raises(DataError) as bad:
            Dataset(rows=np.zeros((7, 4)), labels=labels,
                    variant=Variant.DOC4)
        assert str(bad.value) == "labels must be 0 or 1, got [2, -1, 7]"

    @pytest.mark.parametrize("labels,shown", [
        ([0.9, 1.0], "[0.9]"),
        ([1, float("nan"), 0, float("nan")], "[nan]"),
        (["1", "0"], "['1', '0']"),
        ([None, "a"], "[None, 'a']"),
        ([0, None], "[None]"),
    ], ids=["fraction", "nan", "strings", "mixed types", "None"])
    def test_labels_are_checked_before_any_cast(self, labels, shown):
        # A cast to int first would read 0.9 as 0 and "1" as 1.
        with pytest.raises(DataError) as bad:
            Dataset(rows=np.zeros((len(labels), 4)), labels=labels,
                    variant=Variant.DOC4)
        assert str(bad.value) == f"labels must be 0 or 1, got {shown}"

    def test_bool_labels_read_as_one_and_zero(self):
        ds = Dataset(rows=np.zeros((3, 4)), labels=[True, False, True],
                     variant=Variant.DOC4)
        assert ds.labels.dtype == int and ds.labels.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("rows,message", [
        ([["0"] * 4], "rows must be numbers, got <U1 values"),
        ([[0.0, None, 0.0, 0.0]], "rows must be numbers, got object values"),
        ([[0.0] * 4, [0.0] * 3], "rows must not be lists of unequal lengths"),
        (np.zeros(3), r"2-D array with 4 columns, got shape \(1, 3\)"),
        (np.zeros((1, 0)), r"got shape \(1, 0\)"),
        (np.zeros((1, 4, 1)), r"got shape \(1, 4, 1\)"),
    ], ids=["strings", "None", "ragged", "narrow row", "no columns", "3-D"])
    def test_malformed_rows_are_data_errors(self, rows, message):
        with pytest.raises(DataError, match=message):
            Dataset(rows=rows, labels=[0], variant=Variant.DOC4)

    def test_no_rows_are_zero_rows_and_one_row_is_a_row(self):
        for rows in ([], np.zeros((0, 2))):
            ds = Dataset(rows=rows, labels=[], variant=Variant.TERM8)
            assert ds.rows.shape == (0, 8) and ds.labels.shape == (0,)
        ds = Dataset(rows=[0.5] * 8, labels=[1], variant=Variant.TERM8)
        assert ds.rows.tolist() == [[0.5] * 8]

    def test_building_a_dataset_leaves_numpy_ma_unimported(self):
        # A fresh interpreter, so that no other test can have imported it.
        code = ("import sys\n"
                "import numpy as np\n"
                "from multisent.features import Dataset, Variant\n"
                "Dataset(rows=np.zeros((3, 4)), labels=[0, 1, 1],\n"
                "        variant=Variant.DOC4)\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(multisent.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"

    def test_subset_preserves_variant(self):
        ds = Dataset(rows=[[0.0] * 8, [1.0] * 8], labels=[0, 1],
                     variant=Variant.TERM8)
        sub = ds.subset([1])
        assert sub.variant is Variant.TERM8
        assert sub.labels.tolist() == [1]

    def test_csv_round_trip(self, tmp_path):
        rng = random.Random(41)
        rows = [[rng.uniform(-3, 3) for _ in range(7)] for _ in range(10)]
        labels = [rng.randint(0, 1) for _ in range(10)]
        ds = Dataset(rows=rows, labels=labels, variant=Variant.DOC7)
        path = tmp_path / "features.csv"
        write_features_csv(ds, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "label," + ",".join(Variant.DOC7.names)
        back = read_features_csv(path)
        assert back.variant is Variant.DOC7
        assert np.array_equal(back.rows, ds.rows)
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_read_rejects_non_finite_fields(self, tmp_path, field):
        path = tmp_path / "bad.csv"
        path.write_text("label," + ",".join(Variant.TERM6.names) + "\n"
                        "1,1,0,0.5,0,0.5,0\n"
                        f"0,1,0,{field},0,0.5,0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.csv:3: non-finite field"):
            read_features_csv(path)

    def test_narrower_variants_are_projections_of_the_full_one(self):
        rng = random.Random(43)
        for full, narrow, columns in (
                (Variant.TERM8, Variant.TERM6, [0, 1, 2, 3, 4, 5]),
                (Variant.DOC7, Variant.DOC5, [0, 1, 4, 5, 6]),
                (Variant.DOC7, Variant.DOC4, [0, 1, 2, 3]),
                (Variant.DOC7, Variant.DOC7, [0, 1, 2, 3, 4, 5, 6])):
            assert narrow.full is full
            scores = [[rng.uniform(-1, 1) for _ in range(rng.randint(0, 9))]
                      for _ in range(6)]
            build = term_features if full.level == "term" else doc_features
            rows = [build(s) for s in scores]
            labels = [0, 1, 0, 1, 0, 1]
            projected = Dataset(rows=rows, labels=labels,
                                variant=full).project(narrow)
            assert projected.variant is narrow
            assert projected.rows.tolist() == [[row[c] for c in columns]
                                               for row in rows]
            assert projected.labels.tolist() == labels

    def test_projecting_onto_its_own_variant_copies_nothing(self):
        ds = Dataset(rows=[[0.5] * 7, [0.25] * 7], labels=[1, 0],
                     variant=Variant.DOC7)
        assert ds.project(Variant.DOC7) is ds

    def test_project_rejects_other_level(self):
        ds = Dataset(rows=[[0.0] * 8], labels=[1], variant=Variant.TERM8)
        with pytest.raises(ValueError):
            ds.project(Variant.DOC4)

    def test_read_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,what,ever\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataError, match="variant"):
            read_features_csv(path)

    def test_variant_lookup(self):
        assert Variant.from_width(8) is Variant.TERM8
        assert Variant.from_width(4) is Variant.DOC4
        assert Variant.from_width(7) is Variant.DOC7
        with pytest.raises(ConfigurationError,
                           match="no variant with 9 features"):
            Variant.from_width(9)

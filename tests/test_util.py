import errno
import os
import re
import stat
from dataclasses import fields
from pathlib import Path

import pytest

from multisent import util
from multisent.classifiers import AnnConfig, SvmConfig, TreeConfig
from multisent.errors import ConfigurationError, DataError
from multisent.pipeline import PipelineConfig
from multisent.scoring import RuleConfig
from multisent.synth import SynthConfig, generate
from multisent.util import atomic_write_text

TEXT = "سلام\nline two\r\n"


def _names(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class _FullDisk:
    """Stands in for ``open(fd, "wb")``: the file opens, every write fails."""

    def __init__(self, fd, mode):
        self.fh = open(fd, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestReadText:
    def test_returns_the_utf8_text(self, tmp_path):
        (tmp_path / "in.txt").write_bytes(TEXT.encode("utf-8"))
        assert util.read_text(tmp_path / "in.txt", "input") == \
            "سلام\nline two\n"

    @pytest.mark.parametrize("error", [DataError, ConfigurationError])
    @pytest.mark.parametrize("make,message", [
        (lambda p: None, "word list not found: {}$"),
        (lambda p: p.write_bytes(b"caf\xe9"),
         r"word list is not valid UTF-8: {} \(unexpected end of data\)$"),
        (lambda p: p.mkdir(), "cannot read {}: Is a directory$"),
    ], ids=["missing", "latin1", "directory"])
    def test_failures_name_the_file(self, tmp_path, error, make, message):
        path = tmp_path / "in.txt"
        make(path)
        with pytest.raises(error, match=message.format(re.escape(str(path)))
                           ) as info:
            util.read_text(path, "word list", error)
        assert info.type is error


class TestAtomicWriteText:
    def test_writes_the_utf8_bytes_unchanged(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "old\n")
        atomic_write_text(path, TEXT)
        assert path.read_bytes() == TEXT.encode("utf-8")
        assert _names(tmp_path) == ["a.txt"]

    def test_a_missing_parent_is_created(self, tmp_path):
        path = tmp_path / "x" / "y" / "a.txt"
        atomic_write_text(str(path), TEXT)
        assert path.read_bytes() == TEXT.encode("utf-8")
        assert _names(tmp_path) == ["x", "x/y", "x/y/a.txt"]

    def test_a_regular_file_as_parent_is_configuration_error(self, tmp_path):
        (tmp_path / "afile").write_text("a file\n", encoding="utf-8")
        for path in ("afile/a.txt", "afile/sub/a.txt"):
            with pytest.raises(ConfigurationError,
                               match="afile is not a directory"):
                atomic_write_text(tmp_path / path, TEXT)
        assert _names(tmp_path) == ["afile"]

    def test_a_directory_at_path_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "a.txt").mkdir()
        with pytest.raises(ConfigurationError, match="it is a directory"):
            atomic_write_text(tmp_path / "a.txt", TEXT)
        assert _names(tmp_path) == ["a.txt"]

    def test_an_unencodable_text_creates_nothing(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "sub" / "a.txt", "lone \ud800")
        assert _names(tmp_path) == []

    def test_chunks_are_written_as_their_joined_text(self, tmp_path):
        chunks = [TEXT[:3], "", TEXT[3:], TEXT]
        util.atomic_write_chunks(tmp_path / "a.txt", iter(chunks))
        util.atomic_write_chunks(tmp_path / "empty.txt", [])
        assert (tmp_path / "a.txt").read_bytes() == \
            "".join(chunks).encode("utf-8")
        assert (tmp_path / "empty.txt").read_bytes() == b""

    def test_a_chunk_that_raises_leaves_no_temp_file(self, tmp_path):
        def chunks():
            yield TEXT
            raise DataError("a bad block")

        with pytest.raises(DataError, match="a bad block"):
            util.atomic_write_chunks(tmp_path / "a.txt", chunks())
        assert _names(tmp_path) == []

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(util, "open", _FullDisk, raising=False)
        with pytest.raises(ConfigurationError, match=re.escape(
                f"cannot write {tmp_path / 'a.txt'}: No space left")):
            atomic_write_text(tmp_path / "a.txt", TEXT)
        assert _names(tmp_path) == []

    def test_a_name_too_long_is_configuration_error(self, tmp_path):
        # The rename refuses the first; opening the temp file refuses the
        # second, as its lookup meets the long directory name before any
        # missing directory, so no directory is made.
        for path in (tmp_path / ("a" * 256), tmp_path / ("b" * 256) / "a"):
            with pytest.raises(ConfigurationError,
                               match="File name too long$"):
                atomic_write_text(path, TEXT)
        assert _names(tmp_path) == []

    def test_a_refused_directory_is_configuration_error(self, tmp_path,
                                                        monkeypatch):
        def refuse(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  str(self))

        monkeypatch.setattr(util.Path, "mkdir", refuse)
        with pytest.raises(ConfigurationError, match=re.escape(
                f"cannot create directory {tmp_path / 'sub'}: "
                "Permission denied")):
            atomic_write_text(tmp_path / "sub" / "a.txt", TEXT)
        assert _names(tmp_path) == []

    def test_the_umask_is_neither_read_nor_changed(self, tmp_path,
                                                   monkeypatch):
        def refuse(*args):
            raise AssertionError("atomic_write_text touched the mode")

        old = os.umask(0o027)
        try:
            with monkeypatch.context() as m:
                m.setattr(os, "umask", refuse)
                m.setattr(os, "chmod", refuse)
                atomic_write_text(tmp_path / "a.txt", TEXT)
                atomic_write_text(tmp_path / "sub" / "b.txt", TEXT)
        finally:
            assert os.umask(old) == 0o027
        for name in ("a.txt", "sub/b.txt"):
            mode = stat.S_IMODE((tmp_path / name).stat().st_mode)
            assert mode == 0o640, name

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count descriptors")
    def test_failures_leave_no_open_descriptor(self, tmp_path, monkeypatch):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("a file\n", encoding="utf-8")
        before = _open_fds()
        for _ in range(20):
            with pytest.raises(ConfigurationError):
                atomic_write_text(tmp_path / "adir", TEXT)
            with pytest.raises(ConfigurationError):
                atomic_write_text(tmp_path / "afile" / "a.txt", TEXT)
            with pytest.raises(UnicodeEncodeError):
                atomic_write_text(tmp_path / "a.txt", "\udfff")
            with monkeypatch.context() as m:
                m.setattr(util, "open", _FullDisk, raising=False)
                with pytest.raises(ConfigurationError):
                    atomic_write_text(tmp_path / "a.txt", TEXT)
        assert _open_fds() == before
        assert _names(tmp_path) == ["adir", "afile"]


def test_generate_writes_only_its_own_names(tmp_path):
    cfg = SynthConfig(docs_per_class=3, seed=5)
    expected = sorted(
        ["corpus", "corpus/neg", "corpus/pos", "intensifiers.txt",
         "lemma_dict.tsv", "lexicon.tsv", "negations.txt"]
        + [f"corpus/{sub}/doc_{i:04d}.txt"
           for sub in ("neg", "pos") for i in range(3)])
    generate(cfg, tmp_path)
    first = {name: (tmp_path / name).read_bytes()
             for name in expected if (tmp_path / name).is_file()}
    assert _names(tmp_path) == expected
    generate(cfg, tmp_path)   # re-running into the same directory
    assert _names(tmp_path) == expected
    assert all((tmp_path / name).read_bytes() == data
               for name, data in first.items())


CONFIGS = (AnnConfig, SvmConfig, TreeConfig, SynthConfig, RuleConfig,
           PipelineConfig)
# The float next to 0, 0.5 and 1 on either side.
TINY, BELOW_1, ABOVE_1 = 5e-324, 0.9999999999999999, 1.0000000000000002
# Each declared bound: a value the rule takes at or just inside it, and
# the nearest value it refuses, with the message.
BOUNDS = [
    (AnnConfig, "hidden", "min", 1, 0, "must be >= 1, got 0"),
    (AnnConfig, "restarts", "min", 1, 0, "must be >= 1, got 0"),
    (AnnConfig, "max_epochs", "min", 1, 0, "must be >= 1, got 0"),
    (AnnConfig, "lr", "above", TINY, 0, "must be > 0, got 0.0"),
    (AnnConfig, "momentum", "min", 0, -TINY,
     "must be in [0, 1), got -5e-324"),
    (AnnConfig, "momentum", "below", BELOW_1, 1, "must be in [0, 1), got 1.0"),
    (AnnConfig, "lr_up", "min", 1, BELOW_1,
     "must be >= 1, got 0.9999999999999999"),
    (AnnConfig, "lr_down", "above", TINY, 0, "must be in (0, 1), got 0.0"),
    (AnnConfig, "lr_down", "below", BELOW_1, 1, "must be in (0, 1), got 1.0"),
    (AnnConfig, "goal", "min", 0, -TINY, "must be >= 0, got -5e-324"),
    (SvmConfig, "c", "above", TINY, 0, "must be > 0, got 0.0"),
    (SvmConfig, "gamma", "above", TINY, 0, "must be > 0, got 0.0"),
    (SvmConfig, "tol", "min", 0, -TINY, "must be >= 0, got -5e-324"),
    (SvmConfig, "max_passes", "min", 1, 0, "must be >= 1, got 0"),
    # The least confidence whose 1 - confidence is below 1.
    (TreeConfig, "confidence", "above", 2 ** -53, 0,
     "must be in (0, 1), got 0.0"),
    (TreeConfig, "confidence", "below", BELOW_1, 1,
     "must be in (0, 1), got 1.0"),
    (TreeConfig, "min_leaf", "min", 1, 0, "must be >= 1, got 0"),
    (SynthConfig, "docs_per_class", "min", 1, 0, "must be >= 1, got 0"),
    (SynthConfig, "pos_lemmas", "min", 1, 0, "must be >= 1, got 0"),
    (SynthConfig, "neg_lemmas", "min", 1, 0, "must be >= 1, got 0"),
    (SynthConfig, "neutral_lemmas", "min", 1, 0, "must be >= 1, got 0"),
    (SynthConfig, "tokens_per_doc", "min", (0, 0), (-1, 0),
     "must be in [0, 4294967294], got (-1, 0)"),
    # The widest ranges the draws take (hi - lo + 1 below 2**32, hi + 1
    # an int64).
    (SynthConfig, "tokens_per_doc", "max", (0, 2 ** 32 - 2), (0, 2 ** 32 - 1),
     "must be in [0, 4294967294], got (0, 4294967295)"),
    (SynthConfig, "sentence_tokens", "min", (1, 1), (0, 1),
     "must be in [1, 4294967294], got (0, 1)"),
    (SynthConfig, "sentence_tokens", "max", (1, 2 ** 32 - 2),
     (1, 2 ** 32 - 1), "must be in [1, 4294967294], got (1, 4294967295)"),
    (SynthConfig, "senses_per_lemma", "min", (0, 1), (-1, 1),
     "must be in [0, 9223372036854775806], got (-1, 1)"),
    (SynthConfig, "senses_per_lemma", "max", (0, 2 ** 63 - 2),
     (0, 2 ** 63 - 1),
     "must be in [0, 9223372036854775806], got (0, 9223372036854775807)"),
    (SynthConfig, "sentiment_density", "min", 0, -TINY,
     "must be in [0, 1], got -5e-324"),
    (SynthConfig, "sentiment_density", "max", 1, ABOVE_1,
     "must be in [0, 1], got 1.0000000000000002"),
    (SynthConfig, "purity", "above", 0.5000000000000001, 0.5,
     "must be in (0.5, 1], got 0.5"),
    (SynthConfig, "purity", "max", 1, ABOVE_1,
     "must be in (0.5, 1], got 1.0000000000000002"),
    (SynthConfig, "rule_fraction", "min", 0, -TINY,
     "must be in [0, 1], got -5e-324"),
    (SynthConfig, "rule_fraction", "max", 1, ABOVE_1,
     "must be in [0, 1], got 1.0000000000000002"),
    (SynthConfig, "noise_token_prob", "min", 0, -TINY,
     "must be in [0, 1], got -5e-324"),
    (SynthConfig, "noise_token_prob", "max", 1, ABOVE_1,
     "must be in [0, 1], got 1.0000000000000002"),
    (RuleConfig, "window", "min", 1, 0, "must be >= 1, got 0"),
    (PipelineConfig, "k", "min", 2, 1, "must be >= 2, got 1"),
]
# Number fields the rule gives no range: the seeds, PipelineConfig's
# variant (``Variant.from_width`` owns its values) and window
# (``RuleConfig`` owns its range).
UNBOUNDED = {(AnnConfig, "seed"), (SvmConfig, "seed"), (SynthConfig, "seed"),
             (PipelineConfig, "seed"), (PipelineConfig, "variant"),
             (PipelineConfig, "window")}


def _checked(cls, name, value):
    """A ``cls`` with ``name`` set to ``value``, by the field rule."""
    if cls is PipelineConfig:
        config = PipelineConfig("corpus", "lexicon.tsv", "lemmas.tsv", "out",
                                **{name: value})
        util.check_fields(config)
        return config
    return cls(**{name: value})


@pytest.mark.parametrize(
    "cls,name,key,taken,refused,message", BOUNDS,
    ids=[f"{row[0].__name__}-{row[1]}-{row[2]}" for row in BOUNDS])
def test_each_bound_takes_its_edge_and_refuses_the_nearest_value_past_it(
        cls, name, key, taken, refused, message):
    assert getattr(_checked(cls, name, taken), name) == taken
    with pytest.raises(ConfigurationError) as caught:
        _checked(cls, name, refused)
    assert str(caught.value) == f"{name} {message}"


def test_every_number_field_declares_a_range_and_the_table_has_each_bound():
    declared = set()
    for cls in CONFIGS:
        for f in fields(cls):
            bounds = set(f.metadata) & {"min", "max", "above", "below"}
            assert set(f.metadata) == bounds, (cls, f.name)
            if util.field_types(cls)[f.name] in (int, float, tuple[int, int]):
                assert bool(bounds) != ((cls, f.name) in UNBOUNDED), \
                    (cls, f.name)
            declared |= {(cls, f.name, key) for key in bounds}
    assert declared == {row[:3] for row in BOUNDS}


@pytest.mark.parametrize("value", [(3, 2), (0, -1)], ids=["3-2", "0--1"])
def test_a_pair_out_of_order_is_refused_before_its_bound(value):
    with pytest.raises(ConfigurationError) as caught:
        SynthConfig(sentence_tokens=value)
    assert str(caught.value) == (f"sentence_tokens lower bound {value[0]} "
                                 f"is above its upper bound {value[1]}")

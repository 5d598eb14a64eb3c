import errno
import os
import re
import stat
from pathlib import Path

import pytest

from multisent import util
from multisent.errors import ConfigurationError, DataError
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
        with pytest.raises(OSError, match="No space left"):
            atomic_write_text(tmp_path / "a.txt", TEXT)
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
                with pytest.raises(OSError):
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

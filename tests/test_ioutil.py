import os

import pytest

from signseg.ioutil import atomic_write_bytes, atomic_write_text


def test_leftover_tmp_directory_does_not_block_the_write(tmp_path):
    path = tmp_path / "model.bin"
    (tmp_path / "model.bin.tmp").mkdir()
    atomic_write_bytes(path, b"abc")
    assert path.read_bytes() == b"abc"


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        atomic_write_bytes(path, b"abc")
    assert list(tmp_path.iterdir()) == []


def test_file_mode_follows_umask(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "x")
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert path.stat().st_mode == plain.stat().st_mode

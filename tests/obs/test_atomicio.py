"""Atomic write helpers: tmp + os.replace semantics."""

from __future__ import annotations

import os

import pytest

from repro.obs.atomicio import atomic_write, atomic_write_text


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_write(path) as handle:
            handle.write("hello\n")
        assert path.read_text() == "hello\n"

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_leaves_previous_content(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_leaves_target_absent(self, tmp_path):
        path = tmp_path / "never.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("partial")
                raise RuntimeError("interrupted")
        assert not path.exists()
        assert os.listdir(tmp_path) == []

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

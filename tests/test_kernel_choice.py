"""One way to pick a compute kernel: an explicit ``kernel=`` of
``"bitset"`` (the default) or ``"set"`` (the differential reference)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.kernel import KERNEL_KINDS, resolve_kernel
from repro.serve import ServiceConfig

NAMED = r"\('bitset', 'set'\)"


def test_kernel_kinds():
    assert KERNEL_KINDS == ("bitset", "set")


def test_resolve_rejects_words():
    with pytest.raises(ValueError, match=NAMED):
        resolve_kernel("words")


def test_service_config_rejects_words():
    with pytest.raises(ValueError, match=NAMED):
        ServiceConfig(kernel="words")


def test_serve_rejects_words(tmp_path, capsys):
    # The graph path is never read: argparse rejects the choice first.
    with pytest.raises(SystemExit) as exc:
        main(["serve", str(tmp_path / "missing.txt"), "--kernel", "words"])
    assert exc.value.code == 2
    assert "invalid choice: 'words'" in capsys.readouterr().err


def test_default_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("PMBC_KERNEL", "set")
    assert resolve_kernel(None) == "bitset"

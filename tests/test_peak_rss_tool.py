"""`tools/peak_rss.py`: the package has current bytecode when the measured
child starts, so the peak it reads is the command's and not the compiler's.
The child is faked; no command runs."""

import importlib.util
import os
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "peak_rss.py"


@pytest.fixture
def peak_rss():
    spec = importlib.util.spec_from_file_location("tools_peak_rss", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def has_current_bytecode(source: Path) -> bool:
    """Whether the cached bytecode of `source` is the timestamp-checked kind
    that an import would load instead of compiling the source."""
    cached = Path(importlib.util.cache_from_source(source))
    if not cached.exists():
        return False
    stat = source.stat()
    header = importlib.util.MAGIC_NUMBER + b"".join(
        (value & 0xFFFFFFFF).to_bytes(4, "little")
        for value in (0, int(stat.st_mtime), stat.st_size))
    return cached.read_bytes()[:16] == header


def test_the_package_is_compiled_before_the_child_starts(peak_rss, tmp_path,
                                                         monkeypatch, capsys):
    # a copy without bytecode, as a checkout run under PYTHONDONTWRITEBYTECODE
    src = tmp_path / "src"
    shutil.copytree(REPO / "src" / "egobatch", src / "egobatch",
                    ignore=shutil.ignore_patterns("__pycache__"))
    modules = sorted((src / "egobatch").glob("*.py"))
    assert modules and not any(map(has_current_bytecode, modules))
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)  # else hash-checked
    monkeypatch.setattr(peak_rss, "SRC", src)
    seen = []

    def fake_call(command, env):
        assert env["PYTHONPATH"].split(os.pathsep)[0] == str(src)
        seen.append([path.name for path in modules if not has_current_bytecode(path)])
        return 0

    monkeypatch.setattr(peak_rss.subprocess, "call", fake_call)
    assert peak_rss.main(["synth", "--help"]) == 0
    assert seen == [[]]
    assert capsys.readouterr().out.startswith("exit 0 peak_rss_mib ")

"""``tools/src_size.py`` on a module of known size, and on a DIR it cannot size."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=60)


def test_counts_lines_and_tokens_of_each_module(tmp_path):
    # 3 lines; the tokens are x, =, 1, NEWLINE, def, f, (, ), :, NEWLINE,
    # INDENT, return, x, NEWLINE, DEDENT and ENDMARKER, the comment and the
    # blank line's NL dropped
    (tmp_path / "m.py").write_text("x = 1  # one\ndef f():\n    return x\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    done = run(tmp_path)
    assert done.returncode == 0, done.stderr
    assert [line.split() for line in done.stdout.splitlines()] == [
        ["m.py", "3", "16"], ["total", "3", "16"]]


def test_refuses_a_dir_without_modules(tmp_path):
    for root in (tmp_path, tmp_path / "missing"):
        done = run(root)
        assert (done.returncode, done.stdout) == (2, "")
        assert str(root) in done.stderr

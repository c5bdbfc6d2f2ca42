"""``tools/traffic.py`` on a script that runs one function of the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "traffic.py"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def sections(stdout):
    """(the note, the functions that never ran, the partly run ones)."""
    note, head, *rest = stdout.splitlines()
    cut = next(i for i, line in enumerate(rest) if not line.startswith("  "))
    assert head.startswith("functions that never ran") and rest[cut].startswith("lines that")
    return note, [x.strip() for x in rest[:cut]], [x.strip() for x in rest[cut + 1:]]


def test_lists_what_a_script_never_runs(tmp_path):
    script = tmp_path / "use.py"
    script.write_text("import sys\nfrom donaldson.series import relation_poly\n"
                      "print(relation_poly(int(sys.argv[1])).sigma_degree)\nsys.exit(3)\n")
    done = run(script, 4)
    assert done.returncode == 3, done.stderr
    assert done.stdout.startswith("3\n")  # the script's own output, its argv read
    note, never, partly = sections(done.stdout.split("\n", 1)[1])
    assert "child processes are not traced" in note
    src = (ROOT / "src" / "donaldson" / "series.py").read_text().splitlines()
    first = next(i for i, line in enumerate(src, 1) if line.startswith("def relation_poly("))
    end = next(i for i, line in enumerate(src, 1) if i > first and line.startswith(("def", "@")))
    # its refusals, each under an if that ran, are its lines that never ran
    raises = [str(i) for i in range(first, end) if "raise SeriesError" in src[i - 1]]
    assert len(raises) > 1
    assert f"series.py:{first} relation_poly: {', '.join(raises)}" in partly
    assert not any(x.endswith(" relation_poly") for x in never)
    assert any(x.startswith("gluing.py:") and x.endswith(" glue_torus") for x in never)


def test_needs_a_script():
    done = run()
    assert (done.returncode, done.stdout) == (2, "")
    assert "usage" in done.stderr

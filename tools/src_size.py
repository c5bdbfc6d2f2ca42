"""Lines and tokens per module of ``src/donaldson``, as the change log quotes them.

Lines are the file's newline count (``wc -l``).  Tokens are those of
``tokenize``, without comments, non-logical newlines (NL) and the encoding
token.  Run from anywhere:

    python3 tools/src_size.py            # this checkout's src/donaldson
    python3 tools/src_size.py DIR        # the modules in DIR

A DIR that does not exist, or holds no ``*.py``, exits 2 with a message.
"""

import sys
import tokenize
from pathlib import Path

DROPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def size(path: Path) -> tuple[int, int]:
    """(lines, tokens) of one Python file."""
    with path.open("rb") as f:
        tokens = sum(tok.type not in DROPPED for tok in tokenize.tokenize(f.readline))
    return path.read_bytes().count(b"\n"), tokens


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "donaldson"
    paths = sorted(root.glob("*.py")) if root.is_dir() else []
    if not paths:
        print(f"src_size: {root} is not a directory holding *.py files", file=sys.stderr)
        return 2
    total_lines = total_tokens = 0
    for path in paths:
        lines, tokens = size(path)
        total_lines, total_tokens = total_lines + lines, total_tokens + tokens
        print(f"{path.name:<20} {lines:>6} {tokens:>7}")
    print(f"{'total':<20} {total_lines:>6} {total_tokens:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Size of the library: lines and significant tokens of each module.

    python3 tools/size.py [DIR]

Prints one line per ``*.py`` file of DIR (default ``src/spbench``) with its
line count, as ``wc -l`` counts them, and its significant tokens: what
``tokenize`` yields without comments, line breaks, indentation and the
encoding and end markers, so layout and comments do not count.  The last
line is the total.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}


def size(text):
    """(lines, significant tokens) of Python source ``text``."""
    tokens = tokenize.tokenize(io.BytesIO(text.encode()).readline)
    return text.count("\n"), sum(tok.type not in LAYOUT for tok in tokens)


def sizes(folder):
    """{file name: (lines, significant tokens)} of every module in ``folder``."""
    return {path.name: size(path.read_text()) for path in sorted(Path(folder).glob("*.py"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("folder", nargs="?", type=Path, default=ROOT / "src" / "spbench")
    args = parser.parse_args(argv)
    table = sizes(args.folder)
    for name, (lines, tokens) in table.items():
        print(f"{name:<16}{lines:>7}{tokens:>9}")
    print(f"{'total':<16}{sum(v[0] for v in table.values()):>7}"
          f"{sum(v[1] for v in table.values()):>9}")


if __name__ == "__main__":
    main()

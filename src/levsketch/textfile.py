"""The levsketch file format, shared by matrix, report, sketch,
concentration and bench files.

A file is text lines. Blank lines are skipped. A line that starts with
``#`` is a comment, whose ``key=value`` tokens are metadata. In a file
with sections, a ``[name]`` line starts section ``name``. Every other
line is a data row of comma-separated fields. Floats are written as
``repr(float(x))``, which reads back bit-exactly, and indices are
1-based. A malformed file raises a one-line ValueError that starts
``malformed <kind> file <path>:``.
"""
from __future__ import annotations

import numpy as np


class TextFile:
    """The comment bodies of one file and the data rows of each of its
    sections. A row is kept as its line, which a reader splits at the
    commas as it parses it, so that a large file's fields are never all
    held at once (that made the dense matrix read measurably slower)."""

    def __init__(self, path, kind: str, sections=(None,),
                 header: str | None = None):
        """Read the ``kind`` file ``path``. Section None holds the rows
        before the first ``[name]`` line; a data row outside ``sections``
        raises, and a line that starts with ``header`` is skipped."""
        self.path, self.kind = path, kind
        self.comments: list[str] = []
        self.sections: dict = {name: [] for name in sections}
        rows = self.sections.get(None)
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or header and line.startswith(header):
                    continue
                if line[0] == "#":
                    self.comments.append(line[1:].strip())
                elif (line[0] == "[" and line[-1] == "]"
                      and line[1:-1] in self.sections):
                    rows = self.sections[line[1:-1]]
                elif rows is None:
                    raise self.malformed("data outside the " + ", ".join(
                        f"[{name}]" for name in sections) + " sections")
                else:
                    rows.append(line)

    def malformed(self, what: str) -> ValueError:
        return ValueError(f"malformed {self.kind} file {self.path}: {what}")

    def metadata(self) -> dict[str, str]:
        """The ``key=value`` tokens of every comment; a later key wins."""
        return dict(token.split("=", 1) for body in self.comments
                    for token in body.split() if "=" in token)

    def numbers(self, fields, cast=float) -> list:
        """``cast`` of every field; a field it cannot parse raises."""
        try:
            return [cast(x) for x in fields]
        except ValueError as exc:
            raise self.malformed(f"non-numeric field ({exc})") from None

    def indices(self, values: np.ndarray, what: str) -> np.ndarray:
        """The 1-based ``values`` as 0-based int64; each must be a positive
        integer that a double holds exactly, so that the cast keeps it."""
        if not ((values >= 1) & (values <= 2.0 ** 53)
                & (values == np.floor(values))).all():
            raise self.malformed(f"{what} not a positive integer")
        return values.astype(np.int64) - 1


def typed(token: str):
    """A metadata value as the int or float it spells, else as its text:
    the inverse of ``meta_lines``."""
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def floats(values) -> str:
    """``values`` as comma-separated ``repr(float(x))``."""
    return ",".join([repr(float(x)) for x in values])


def meta_lines(**meta) -> list[str]:
    """A ``# key=value`` comment per value that is not None, in order;
    floats are formatted as by ``floats``."""
    return [f"# {key}={floats([val]) if isinstance(val, float) else val}"
            for key, val in meta.items() if val is not None]


def write(path, lines) -> None:
    """Write ``lines`` to ``path``, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

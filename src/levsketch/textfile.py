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

# whitespace to np.loadtxt, but not to float()
_FIELD_SEPARATORS = "\x1c\x1d\x1e\x1f"


class TextFile:
    """The comment bodies of one file and the data rows of each of its
    sections. A row is kept as its line: a reader splits it at the commas
    as it parses it, or parses all rows at once with ``table``, so that a
    large file's fields are never all held as strings."""

    def __init__(self, path, kind: str, sections=(None,)):
        """Read the ``kind`` file ``path``. Section None holds the rows
        before the first ``[name]`` line; a data row outside ``sections``
        raises."""
        self.path, self.kind = path, kind
        self.comments: list[str] = []
        self.sections: dict = {name: [] for name in sections}
        rows = self.sections.get(None)
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
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

    def table(self, rows) -> np.ndarray:
        """The float fields of ``rows`` as a 2-D array, one row per line,
        bitwise ``float`` of each field; a non-numeric field, or rows of
        unequal width, raise. No rows give an empty 1-D array.

        One C-level ``np.loadtxt`` pass parses well-formed rows: its float
        parse and ``float`` both round through ``PyOS_string_to_double``.
        It refuses forms that ``float`` accepts, such as ``1_0`` and
        non-ASCII digits, so whatever it refuses is parsed again field by
        field, which accepts those forms and words every error. It also
        strips the separators U+001C to U+001F around a field, which
        ``float`` refuses, so rows that hold one skip it."""
        text = "".join(rows)
        if text and not any(sep in text for sep in _FIELD_SEPARATORS):
            try:
                return np.loadtxt(rows, dtype=np.float64, delimiter=",",
                                  comments=None, ndmin=2)
            except ValueError:
                pass
        values = [self.numbers(line.split(",")) for line in rows]
        widths = {len(row) for row in values}
        if len(widths) > 1:
            raise self.malformed(f"rows of {sorted(widths)} fields")
        return np.array(values)

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

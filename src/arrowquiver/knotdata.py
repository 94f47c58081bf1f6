"""The bundled virtual knot table and orientation variants.

Knots with up to four classical crossings are bundled as a TSV file mapping
names like ``4.73`` to signed Gauss codes.  Published tables of these knots
fix neither the orientation nor the mirror choice, so lookups that need to
match a published value try all four orientation variants of a code
(identity, reverse, mirror, reverse and mirror together).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .gausscode import GaussDiagram, parse_gauss_code

__all__ = [
    "KnotEntry",
    "KnotTable",
    "parse_table",
    "load_table",
    "bundled_table",
    "bundled_path",
    "orientation_variants",
]


@dataclass(frozen=True)
class KnotEntry:
    name: str
    diagram: GaussDiagram
    note: str = ""


@dataclass(frozen=True)
class KnotTable:
    """An ordered list of named Gauss codes with unique names."""

    entries: tuple[KnotEntry, ...]
    by_name: dict[str, KnotEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, KnotEntry] = {}
        for entry in self.entries:
            if entry.name in index:
                raise ValueError(f"duplicate knot name {entry.name!r}")
            index[entry.name] = entry
        object.__setattr__(self, "by_name", index)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> GaussDiagram:
        try:
            return self.by_name[name].diagram
        except KeyError:
            raise KeyError(f"unknown knot {name!r}") from None


def parse_table(text: str, source: str = "<string>") -> KnotTable:
    """Parse TSV lines ``name<TAB>code[<TAB>note]`` into a table."""
    entries: list[KnotEntry] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ValueError(f"{source}:{lineno}: expected name<TAB>code")
        name, code = parts[0].strip(), parts[1].strip()
        note = parts[2].strip() if len(parts) > 2 else ""
        try:
            diagram = parse_gauss_code(code)
        except ValueError as err:
            raise ValueError(f"{source}:{lineno}: {err}") from None
        if name in names:
            raise ValueError(f"{source}:{lineno}: duplicate knot name {name!r}")
        names.add(name)
        entries.append(KnotEntry(name, diagram, note))
    return KnotTable(tuple(entries))


def load_table(path: str | Path) -> KnotTable:
    path = Path(path)
    return parse_table(path.read_text(encoding="utf-8"), source=str(path))


def bundled_path(name: str) -> Path:
    """Path of a bundled data file (biquandles, tensors, endos, knots)."""
    return Path(str(resources.files("arrowquiver").joinpath("data", name)))


@lru_cache(maxsize=1)
def bundled_table() -> KnotTable:
    """The bundled table of virtual knots with up to four crossings."""
    return load_table(bundled_path("knots_upto4.tsv"))


def orientation_variants(d: GaussDiagram) -> list[GaussDiagram]:
    """The four standard representatives of a knot's code.

    In order: the code itself, its orientation reverse, its mirror, and the
    reverse of the mirror.
    """
    return [d, d.reversed(), d.mirrored(), d.reversed().mirrored()]

"""Text formats: permutations, group files, graph files, design files.

Permutations are written as space-separated 0-based image lines; cycle
notation like ``(0 1)(2 3)`` is accepted on input only.  Group files start
with ``degree n`` followed by one generator per line.  Graph files start with
``graph n`` or ``bipartite n m`` followed by ``i j mult`` lines.  Design
files start with ``design v b`` followed by one block per line.  Emission is
canonical, so emitted files re-ingest bit-exactly.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence

import numpy as np

from .designs import Design
from .graphs import BipartiteGraph, Graph
from .permgroup import DEFAULT_CLOSURE_CAP, FiniteGroup, Permutation, closure, from_cycles


class FormatError(ValueError):
    """Malformed input text."""


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(line: str, degree: int | None = None) -> Permutation:
    """Parse an image line like ``1 0 2`` or cycle notation like ``(0 1)(2 3)``."""
    text = line.strip()
    if not text:
        raise FormatError("empty permutation line")
    if text.startswith("("):
        if degree is None:
            raise FormatError("cycle notation needs an explicit degree")
        body = _CYCLE_RE.findall(text)
        if not body or _CYCLE_RE.sub("", text).strip():
            raise FormatError(f"malformed cycle notation: {line!r}")
        cycles = []
        for group in body:
            points = [int(tok) for tok in re.split(r"[,\s]+", group.strip()) if tok]
            if any(p >= degree or p < 0 for p in points):
                raise FormatError(f"cycle point outside 0..{degree - 1}: {line!r}")
            if points:
                cycles.append(tuple(points))
        return from_cycles(cycles, degree)
    images = tuple(int(tok) for tok in text.split())
    if degree is not None and len(images) != degree:
        raise FormatError(f"expected degree {degree}, got {len(images)}: {line!r}")
    return Permutation(images)


def format_permutation(p: Permutation) -> str:
    return " ".join(str(i) for i in p.images)


def _content_lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]


def parse_permutation_list(text: str) -> tuple[int, tuple[Permutation, ...]]:
    """Parse a ``degree n`` header plus one permutation per line."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty group file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "degree":
        raise FormatError(f"expected header 'degree n', got {lines[0]!r}")
    degree = int(head[1])
    perms = tuple(parse_permutation(ln, degree) for ln in lines[1:])
    return degree, perms


def parse_group_text(
    text: str, cap: int = DEFAULT_CLOSURE_CAP, name: str = ""
) -> FiniteGroup:
    """Group file -> enumerated group (closure of the listed generators)."""
    degree, gens = parse_permutation_list(text)
    return closure(degree, gens, cap=cap, name=name)


def format_permutation_list(degree: int, perms: Sequence[Permutation]) -> str:
    lines = [f"degree {degree}"]
    lines.extend(format_permutation(p) for p in perms)
    return "\n".join(lines) + "\n"


def load_group(path: str | Path, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    p = Path(path)
    return parse_group_text(p.read_text(), cap=cap, name=p.stem)


def load_multiset(path: str | Path) -> tuple[int, tuple[Permutation, ...]]:
    """Read a permutation-list file verbatim (no closure): a connection multiset."""
    return parse_permutation_list(Path(path).read_text())


_INT64 = np.iinfo(np.int64)


def _edge_line(ln: str, n_rows: int, n_cols: int) -> tuple[int, int, int]:
    """Parse ``i j mult`` with 0 <= i < n_rows, 0 <= j < n_cols and an int64 mult."""
    i, j, mult = (int(t) for t in ln.split())
    if not (0 <= i < n_rows and 0 <= j < n_cols):
        raise FormatError(
            f"edge endpoint outside 0..{n_rows - 1} x 0..{n_cols - 1}: {ln!r}"
        )
    if not _INT64.min <= mult <= _INT64.max:
        raise FormatError(f"edge multiplicity does not fit int64: {ln!r}")
    return i, j, mult


def parse_graph_text(text: str) -> Graph | BipartiteGraph:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty graph file")
    head = lines[0].split()
    if head[0] == "graph" and len(head) == 2:
        n = int(head[1])
        adj = np.zeros((n, n), dtype=np.int64)
        for ln in lines[1:]:
            i, j, mult = _edge_line(ln, n, n)
            if adj[i, j] != 0:
                raise FormatError(f"duplicate edge line: {ln!r}")
            adj[i, j] = mult
            adj[j, i] = mult
        return Graph(adj)
    if head[0] == "bipartite" and len(head) == 3:
        n, m = int(head[1]), int(head[2])
        inc = np.zeros((n, m), dtype=np.int64)
        for ln in lines[1:]:
            i, j, mult = _edge_line(ln, n, m)
            if inc[i, j] != 0:
                raise FormatError(f"duplicate edge line: {ln!r}")
            inc[i, j] = mult
        return BipartiteGraph(inc)
    raise FormatError(f"expected 'graph n' or 'bipartite n m' header, got {lines[0]!r}")


def format_graph(g: Graph | BipartiteGraph) -> str:
    if isinstance(g, Graph):
        lines = [f"graph {g.n}"]
        for i in range(g.n):
            for j in range(i, g.n):
                if g.adj[i, j]:
                    lines.append(f"{i} {j} {int(g.adj[i, j])}")
    else:
        lines = [f"bipartite {g.n_in} {g.n_out}"]
        for i in range(g.n_in):
            for j in range(g.n_out):
                if g.inc[i, j]:
                    lines.append(f"{i} {j} {int(g.inc[i, j])}")
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path) -> Graph | BipartiteGraph:
    return parse_graph_text(Path(path).read_text())


def save_graph(g: Graph | BipartiteGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g))


def parse_design_text(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Design file -> (v, blocks); strength and count are supplied by the caller."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty design file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "design":
        raise FormatError(f"expected header 'design v b', got {lines[0]!r}")
    v, b = int(head[1]), int(head[2])
    blocks = tuple(tuple(int(t) for t in ln.split()) for ln in lines[1:])
    if len(blocks) != b:
        raise FormatError(f"header claims {b} blocks, file has {len(blocks)}")
    return v, blocks


def format_design(d: Design) -> str:
    lines = [f"design {d.v} {d.b}"]
    lines.extend(" ".join(str(x) for x in block) for block in d.blocks)
    return "\n".join(lines) + "\n"


def load_design(path: str | Path, t: int, gamma: int) -> Design:
    v, blocks = parse_design_text(Path(path).read_text())
    return Design(v=v, blocks=blocks, t=t, gamma=gamma)


def save_design(d: Design, path: str | Path) -> None:
    Path(path).write_text(format_design(d))

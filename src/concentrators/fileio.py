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

import numpy as np

from .designs import Design
from .graphs import BipartiteGraph, Graph
from .permgroup import DEFAULT_CLOSURE_CAP, FiniteGroup, Permutation, closure, from_cycles


class FormatError(ValueError):
    """Malformed input text."""


def _read_text(path: str | Path) -> str:
    """The text of a file, read as ``Path.read_text`` reads it (locale
    encoding, the same errors) at about half its fixed cost."""
    with open(path) as fh:
        return fh.read()


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


def _content_lines(text: str) -> list[str]:
    lines = [ln.strip() for ln in text.splitlines()]
    return [ln for ln in lines if ln and not ln.startswith("#")]


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


def parse_group_text(text: str, name: str = "") -> FiniteGroup:
    """Group file -> enumerated group (closure of the listed generators)."""
    degree, gens = parse_permutation_list(text)
    return closure(degree, gens, cap=DEFAULT_CLOSURE_CAP, name=name)


def load_group(path: str | Path) -> FiniteGroup:
    p = Path(path)
    return parse_group_text(_read_text(p), name=p.stem)


def load_multiset(path: str | Path) -> tuple[int, tuple[Permutation, ...]]:
    """Read a permutation-list file verbatim (no closure): a connection multiset."""
    return parse_permutation_list(_read_text(path))


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _edge_line(ln: str, n_rows: int, n_cols: int) -> tuple[int, int, int]:
    """Parse ``i j mult`` with 0 <= i < n_rows, 0 <= j < n_cols and an int64 mult."""
    i, j, mult = map(int, ln.split())
    if not (0 <= i < n_rows and 0 <= j < n_cols):
        raise FormatError(
            f"edge endpoint outside 0..{n_rows - 1} x 0..{n_cols - 1}: {ln!r}"
        )
    if not _INT64_MIN <= mult <= _INT64_MAX:
        raise FormatError(f"edge multiplicity does not fit int64: {ln!r}")
    return i, j, mult


def _scatter_edges(mat: np.ndarray, lines: list[str], symmetric: bool) -> None:
    """Write the ``i j mult`` lines into the zero matrix ``mat`` (and their
    mirror images when ``symmetric``), checking them in file order.  A line
    is a duplicate when an earlier line set its cell to a nonzero value; a
    zero multiplicity sets nothing, so each cell is written at most once."""
    n_rows, n_cols = mat.shape
    edges = {}  # flat cell index -> multiplicity, the mirror cells included
    for ln in lines:
        i, j, mult = _edge_line(ln, n_rows, n_cols)
        cell = i * n_cols + j
        if cell in edges:
            raise FormatError(f"duplicate edge line: {ln!r}")
        if mult:
            edges[cell] = mult
            if symmetric:
                edges[j * n_cols + i] = mult
    np.put(mat, list(edges), list(edges.values()))


def parse_graph_text(text: str) -> Graph | BipartiteGraph:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty graph file")
    head = lines[0].split()
    if head[0] == "graph" and len(head) == 2:
        n = int(head[1])
        adj = np.zeros((n, n), dtype=np.int64)
        _scatter_edges(adj, lines[1:], symmetric=True)
        return Graph(adj)
    if head[0] == "bipartite" and len(head) == 3:
        n, m = int(head[1]), int(head[2])
        inc = np.zeros((n, m), dtype=np.int64)
        _scatter_edges(inc, lines[1:], symmetric=False)
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
    return parse_graph_text(_read_text(path))


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
    v, blocks = parse_design_text(_read_text(path))
    return Design(v=v, blocks=blocks, t=t, gamma=gamma)


def save_design(d: Design, path: str | Path) -> None:
    Path(path).write_text(format_design(d))

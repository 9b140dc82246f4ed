"""Plain-text edge-list IO.

Format (one record per line, ``#`` comments allowed)::

    n <num_vertices>
    e <u> <v> [weight]

Weights are either present on every edge line or on none.
"""

from __future__ import annotations

from pathlib import Path

from repro.graphs.graph import Graph


def write_edgelist(g: Graph, path: str | Path) -> None:
    """Serialize ``g`` to ``path`` in the edge-list format above."""
    path = Path(path)
    lines = [f"n {g.n}"]
    for u, v, w in g.iter_weighted_edges():
        if g.weighted:
            lines.append(f"e {u} {v} {w!r}")
        else:
            lines.append(f"e {u} {v}")
    path.write_text("\n".join(lines) + "\n")


def read_edgelist(path: str | Path) -> Graph:
    """Parse a graph written by :func:`write_edgelist`."""
    path = Path(path)
    n: int | None = None
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    saw_unweighted = False
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tag, *fields = line.split()
        where = f"{path}:{lineno}"
        if tag not in ("n", "e"):
            raise ValueError(f"{where}: unknown record {tag!r}")
        if tag == "n" and n is not None:
            raise ValueError(f"{where}: duplicate 'n' line")
        try:
            if tag == "n":
                (count,) = fields
                n = int(count)
            else:
                u, v, *w = fields
                if len(w) > 1:
                    raise ValueError
                edges.append((int(u), int(v)))
                weights.extend(float(x) for x in w)
                saw_unweighted |= not w
        except ValueError:
            kind = "'n'" if tag == "n" else "edge"
            raise ValueError(f"{where}: malformed {kind} line {raw!r}") from None
    if n is None:
        raise ValueError(f"{path}: missing 'n' line")
    if weights and saw_unweighted:
        raise ValueError(f"{path}: mixed weighted and unweighted edge lines")
    return Graph(n, edges, weights if weights else None)

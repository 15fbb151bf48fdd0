"""Trivalent 3-face-colourable lattices on closed oriented surfaces.

A lattice is a combinatorial map: a graph together with a face set coming
from a rotation system (cyclic edge order at every vertex).  Vertices carry
data qubits, edges carry two-qubit checks, and faces carry the inferred
stabilisers.  Faces are properly 3-coloured and the colour of an edge is
the unique colour absent from its two incident faces.

Toric honeycombs ({6,3}) are generated directly; any other closed tiling,
such as an {8,3} one, is loaded from lattice text or a file.  No lattice
fixtures ship with the package yet, so a bare fixture name such as 'h64'
raises LatticeError.  Fine-graining subdivides the dual triangulation and
re-dualises, multiplying the qubit count by f² while preserving the genus.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = [
    "Edge",
    "Face",
    "Lattice",
    "RotationSystem",
    "LatticeError",
    "NotThreeColorableError",
    "generate_honeycomb_torus",
    "derive_faces",
    "color_faces",
    "fine_grain",
    "load_lattice",
    "save_lattice",
    "lattice_to_text",
    "validate_lattice",
    "fixture_path",
    "builtin_fixtures",
]

PAULI_OF_COLOR = ("X", "Y", "Z")


class LatticeError(ValueError):
    """Structural or invariant violation in a lattice."""


class NotThreeColorableError(LatticeError):
    """Raised when exhaustive search proves no proper face 3-colouring exists."""


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    color: Optional[int] = None


@dataclass(frozen=True)
class Face:
    edges: tuple[int, ...]
    color: Optional[int] = None


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic ordering of incident edge ids around each vertex."""

    order: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen_per_edge_end: dict[tuple[int, int], int] = {}
        for v, edges in enumerate(self.order):
            for e in edges:
                seen_per_edge_end[(e, v)] = seen_per_edge_end.get((e, v), 0) + 1
                if seen_per_edge_end[(e, v)] > 1:
                    raise LatticeError(
                        f"edge {e} appears more than once in rotation of vertex {v}"
                    )


@dataclass
class Lattice:
    name: str
    schlafli: tuple[int, int]
    genus: int
    n_vertices: int
    edges: tuple[Edge, ...]
    faces: tuple[Face, ...]

    @property
    def n(self) -> int:
        return self.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges) + len(self.faces)

    @property
    def k(self) -> int:
        """Number of encoded logical qubits, 2g."""
        return 2 * self.genus

    @property
    def encoding_rate(self) -> float:
        return self.k / self.n_vertices

    def edge_pauli(self, e: int) -> str:
        c = self.edges[e].color
        if c is None:
            raise LatticeError(f"edge {e} is uncoloured")
        return PAULI_OF_COLOR[c]

    def edges_of_color(self, color: int) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.color == color]

    def vertex_adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (edge id, other endpoint)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for i, e in enumerate(self.edges):
            adj[e.u].append((i, e.v))
            adj[e.v].append((i, e.u))
        return adj

    def edge_faces(self) -> list[list[int]]:
        """Per-edge list of incident face ids (with multiplicity)."""
        ef: list[list[int]] = [[] for _ in range(len(self.edges))]
        for fi, f in enumerate(self.faces):
            for e in f.edges:
                ef[e].append(fi)
        return ef


# ---------------------------------------------------------------------------
# darts and face tracing


def _dart_head(edges: Sequence[Edge], d: int) -> int:
    e = edges[d >> 1]
    return e.v if (d & 1) == 0 else e.u


def _dart_tail(edges: Sequence[Edge], d: int) -> int:
    e = edges[d >> 1]
    return e.u if (d & 1) == 0 else e.v


def _out_dart(edges: Sequence[Edge], e: int, v: int) -> int:
    edge = edges[e]
    if edge.u == v:
        return 2 * e
    if edge.v == v:
        return 2 * e + 1
    raise LatticeError(f"vertex {v} is not an endpoint of edge {e}")


def _trace_walks(edges: Sequence[Edge], rot: RotationSystem) -> list[list[int]]:
    """Orbits of next(d) = rotation-successor of reverse(d), as dart lists."""
    succ: dict[int, int] = {}
    for v, eids in enumerate(rot.order):
        darts = [_out_dart(edges, e, v) for e in eids]
        for i, d in enumerate(darts):
            succ[d] = darts[(i + 1) % len(darts)]
    n_darts = 2 * len(edges)
    if len(succ) != n_darts:
        raise LatticeError("rotation system does not cover every dart")
    visited = [False] * n_darts
    walks = []
    for start in range(n_darts):
        if visited[start]:
            continue
        walk = []
        d = start
        while not visited[d]:
            visited[d] = True
            walk.append(d)
            d = succ[d ^ 1]
        if d != start:
            raise LatticeError("face walk did not close")
        walks.append(walk)
    return walks


def derive_faces(
    n_vertices: int, edges: Sequence[tuple[int, int] | Edge], rot: RotationSystem
) -> list[tuple[int, ...]]:
    """Trace the faces of the embedding given by a rotation system.

    Returns one edge-id cycle per face.  Every directed edge is used exactly
    once across all walks; the Euler characteristic follows from the count.
    """
    es = tuple(e if isinstance(e, Edge) else Edge(e[0], e[1]) for e in edges)
    degree = [0] * n_vertices
    for e in es:
        if e.u == e.v:
            raise LatticeError("self-loops are not supported")
        degree[e.u] += 1
        degree[e.v] += 1
    for v, eids in enumerate(rot.order):
        if len(eids) != degree[v]:
            raise LatticeError(f"rotation at vertex {v} does not list all edges")
    walks = _trace_walks(es, rot)
    return [tuple(d >> 1 for d in walk) for walk in walks]


def _orient_stored_faces(lat: Lattice) -> list[list[int]]:
    """Reconstruct coherent dart walks for the stored face cycles.

    Face cycles are stored as edge ids; a closed orientable surface admits a
    direction assignment in which every dart is used exactly once.  The
    assignment is propagated from face 0 and is unique per component up to a
    global flip.
    """
    edges = lat.edges

    def walk_from(face: Face, first_dart: int) -> Optional[list[int]]:
        darts = [first_dart]
        for e in face.edges[1:]:
            at = _dart_head(edges, darts[-1])
            edge = edges[e]
            if edge.u == at:
                darts.append(2 * e)
            elif edge.v == at:
                darts.append(2 * e + 1)
            else:
                return None
        if _dart_head(edges, darts[-1]) != _dart_tail(edges, darts[0]):
            return None
        return darts

    # faces sharing an edge are neighbours; propagate orientation constraints
    edge_to_faces: dict[int, list[int]] = {}
    for fi, f in enumerate(lat.faces):
        for e in f.edges:
            edge_to_faces.setdefault(e, []).append(fi)
    for e, fs in edge_to_faces.items():
        if len(fs) != 2:
            raise LatticeError(f"edge {e} lies on {len(fs)} face slots, expected 2")

    oriented: dict[int, list[int]] = {}
    dart_used = [False] * (2 * len(edges))

    def commit(fi: int, darts: list[int]) -> None:
        for d in darts:
            if dart_used[d]:
                raise LatticeError(
                    "face orientations are inconsistent (surface not orientable "
                    "or face data corrupt)"
                )
            dart_used[d] = True
        oriented[fi] = darts

    for root in range(len(lat.faces)):
        if root in oriented:
            continue
        f0 = lat.faces[root]
        e0 = f0.edges[0]
        darts = walk_from(f0, 2 * e0)
        if darts is None:
            darts = walk_from(f0, 2 * e0 + 1)
        if darts is None:
            raise LatticeError(f"face {root} edge cycle is not a closed walk")
        commit(root, darts)
        stack = [root]
        while stack:
            fi = stack.pop()
            for d in oriented[fi]:
                e = d >> 1
                other = [g for g in edge_to_faces[e] if g != fi]
                nxt = other[0] if other else fi
                if nxt in oriented and nxt != fi:
                    continue
                if nxt == fi:
                    continue
                g = lat.faces[nxt]
                want = (d ^ 1)  # neighbour must traverse e in reverse
                cand = None
                for k, ge in enumerate(g.edges):
                    if ge != e:
                        continue
                    rolled = g.edges[k:] + g.edges[:k]
                    w = walk_from(Face(rolled, g.color), want)
                    if w is not None:
                        cand = w
                        break
                if cand is None:
                    raise LatticeError(
                        f"cannot orient face {nxt} against its neighbour {fi}"
                    )
                commit(nxt, cand)
                stack.append(nxt)
    if not all(dart_used):
        raise LatticeError("stored faces do not cover every directed edge")
    # return walks aligned with stored face order
    return [oriented[i] for i in range(len(lat.faces))]


def _rotation_from_walks(lat: Lattice, walks: list[list[int]]) -> RotationSystem:
    """Recover the rotation system from coherent face walks."""
    edges = lat.edges
    nxt: dict[int, int] = {}
    for walk in walks:
        for i, d in enumerate(walk):
            nxt[d] = walk[(i + 1) % len(walk)]
    order: list[tuple[int, ...]] = []
    adj = lat.vertex_adjacency()
    for v in range(lat.n_vertices):
        out = [_out_dart(edges, e, v) for e, _ in adj[v]]
        if not out:
            order.append(())
            continue
        seq = [out[0]]
        while True:
            d = nxt[seq[-1] ^ 1]
            if d == seq[0]:
                break
            seq.append(d)
            if len(seq) > len(out):
                raise LatticeError(f"rotation orbit at vertex {v} does not close")
        if len(seq) != len(out):
            raise LatticeError(f"embedding is pinched at vertex {v}")
        order.append(tuple(d >> 1 for d in seq))
    return RotationSystem(tuple(order))


def _face_of_dart(walks: list[list[int]]) -> dict[int, int]:
    owner: dict[int, int] = {}
    for fi, walk in enumerate(walks):
        for d in walk:
            owner[d] = fi
    return owner


# ---------------------------------------------------------------------------
# validation


def validate_lattice(lat: Lattice, require_colors: bool = True) -> None:
    """Check every structural invariant; raise LatticeError on violation."""
    degree = [0] * lat.n_vertices
    for i, e in enumerate(lat.edges):
        if not (0 <= e.u < lat.n_vertices and 0 <= e.v < lat.n_vertices):
            raise LatticeError(f"edge {i} references an unknown vertex")
        if e.u == e.v:
            raise LatticeError(f"edge {i} is a self-loop")
        degree[e.u] += 1
        degree[e.v] += 1
    bad = [v for v, d in enumerate(degree) if d != 3]
    if bad:
        raise LatticeError(f"vertices are not tri-valent (first offender: {bad[0]})")

    slot_count = [0] * len(lat.edges)
    for fi, f in enumerate(lat.faces):
        if len(f.edges) < 2:
            raise LatticeError(f"face {fi} has fewer than 2 edges")
        for e in f.edges:
            slot_count[e] += 1
    wrong = [e for e, c in enumerate(slot_count) if c != 2]
    if wrong:
        raise LatticeError(
            f"edge {wrong[0]} appears on {slot_count[wrong[0]]} face slots, expected 2"
        )

    chi = lat.euler_characteristic
    if chi != 2 - 2 * lat.genus:
        raise LatticeError(
            f"Euler characteristic {chi} does not match declared genus {lat.genus}"
        )

    # orientability + closed walks
    _orient_stored_faces(lat)

    if lat.schlafli == (8, 3) and all(len(f.edges) == 8 for f in lat.faces):
        if lat.n_vertices % 16 != 0 or lat.genus != lat.n_vertices // 16 + 1:
            raise LatticeError(
                f"{{8,3}} lattice with n={lat.n_vertices} must have genus n/16+1, "
                f"got {lat.genus}"
            )

    if require_colors:
        ef = lat.edge_faces()
        for fi, f in enumerate(lat.faces):
            if f.color is None:
                raise LatticeError(f"face {fi} is uncoloured")
            if f.color not in (0, 1, 2):
                raise LatticeError(f"face {fi} has invalid colour {f.color}")
        for i, e in enumerate(lat.edges):
            f0, f1 = ef[i]
            c0, c1 = lat.faces[f0].color, lat.faces[f1].color
            if c0 == c1:
                raise LatticeError(
                    f"faces {f0} and {f1} share edge {i} but have the same colour"
                )
            expect = 3 - c0 - c1
            if e.color is None:
                raise LatticeError(f"edge {i} is uncoloured")
            if e.color != expect:
                raise LatticeError(
                    f"edge {i} colour {e.color} does not complement its faces"
                )


# ---------------------------------------------------------------------------
# face colouring


def color_faces(lat: Lattice) -> Lattice:
    """Properly 3-colour the faces and derive edge colours.

    Already-coloured lattices are verified and returned unchanged.  Uses
    most-constrained-face-first backtracking with ties broken by face id;
    raises NotThreeColorableError when the exhaustive search fails.
    """
    if all(f.color is not None for f in lat.faces) and all(
        e.color is not None for e in lat.edges
    ):
        validate_lattice(lat, require_colors=True)
        return lat

    ef = lat.edge_faces()
    n_faces = len(lat.faces)
    neighbours: list[set[int]] = [set() for _ in range(n_faces)]
    for e in range(len(lat.edges)):
        a, b = ef[e]
        if a == b:
            raise NotThreeColorableError(
                f"face {a} is adjacent to itself across edge {e}; not 3-colorable"
            )
        neighbours[a].add(b)
        neighbours[b].add(a)

    colors: list[Optional[int]] = [f.color for f in lat.faces]
    for fi, c in enumerate(colors):
        if c is not None:
            for g in neighbours[fi]:
                if colors[g] == c:
                    raise LatticeError(
                        f"pre-assigned colours conflict on faces {fi} and {g}"
                    )

    def options(fi: int) -> list[int]:
        used = {colors[g] for g in neighbours[fi] if colors[g] is not None}
        return [c for c in (0, 1, 2) if c not in used]

    # iterative backtracking; most-constrained face first, ties by id
    trail: list[tuple[int, list[int], int]] = []  # (face, remaining options, depth)

    def pick() -> Optional[int]:
        best = None
        best_opts = 4
        for fi in range(n_faces):
            if colors[fi] is not None:
                continue
            k = len(options(fi))
            if k < best_opts:
                best, best_opts = fi, k
                if k <= 1:
                    break
        return best

    while True:
        fi = pick()
        if fi is None:
            break
        opts = options(fi)
        while not opts:
            # backtrack
            while trail:
                prev, remaining, _ = trail.pop()
                colors[prev] = None
                if remaining:
                    fi, opts = prev, remaining
                    break
            else:
                raise NotThreeColorableError(
                    "exhaustive search found no proper 3-colouring of the faces"
                )
            if opts:
                break
        c = opts.pop(0)
        colors[fi] = c
        trail.append((fi, opts, len(trail)))

    new_faces = tuple(Face(f.edges, colors[i]) for i, f in enumerate(lat.faces))
    new_edges = []
    for i, e in enumerate(lat.edges):
        f0, f1 = ef[i]
        derived = 3 - colors[f0] - colors[f1]
        if e.color is not None and e.color != derived:
            raise LatticeError(
                f"stored colour of edge {i} conflicts with the face colouring"
            )
        new_edges.append(Edge(e.u, e.v, derived))
    out = replace(lat, edges=tuple(new_edges), faces=new_faces)
    validate_lattice(out, require_colors=True)
    return out


# ---------------------------------------------------------------------------
# dualisation of an oriented triangulation

Point = tuple


def _dualize_triangulation(
    triangles: Sequence[tuple[Point, Point, Point]],
    *,
    name: str,
    schlafli: tuple[int, int],
    point_color: Optional[dict] = None,
) -> Lattice:
    """Dualise a coherently oriented closed triangulation.

    Triangles become trivalent vertices, shared triangle sides become edges,
    and the fan of triangles around each point becomes a face.  Face colours
    are taken from ``point_color`` when given, else left unset.
    """
    side_owner: dict[tuple[Point, Point], tuple[int, int]] = {}
    for t, (p, q, r) in enumerate(triangles):
        for s, (a, b) in enumerate(((p, q), (q, r), (r, p))):
            if (a, b) in side_owner:
                raise LatticeError("triangulation orientation is incoherent")
            side_owner[(a, b)] = (t, s)

    edge_ids: dict[frozenset, int] = {}
    edge_list: list[Edge] = []
    rot_order: list[tuple[int, int, int]] = []
    for t, (p, q, r) in enumerate(triangles):
        eids = []
        for a, b in ((p, q), (q, r), (r, p)):
            if (b, a) not in side_owner:
                raise LatticeError(f"triangulation is not closed at side {(a, b)}")
            key = frozenset(((a, b), (b, a)))
            if key not in edge_ids:
                t2, _ = side_owner[(b, a)]
                edge_ids[key] = len(edge_list)
                edge_list.append(Edge(t, t2))
            eids.append(edge_ids[key])
        if len(set(eids)) != 3:
            raise LatticeError("degenerate triangle with a repeated side")
        rot_order.append(tuple(eids))

    rot = RotationSystem(tuple(rot_order))
    edges = tuple(edge_list)
    walks = _trace_walks(edges, rot)

    # map every traced face to the point its fan surrounds
    pair_of_side: dict[tuple[int, int], tuple[Point, Point]] = {}
    for t, (p, q, r) in enumerate(triangles):
        for a, b in ((p, q), (q, r), (r, p)):
            key = frozenset(((a, b), (b, a)))
            e = edge_ids[key]
            pair_of_side[(t, e)] = (a, b)

    faces = []
    seen_points = set()
    for walk in walks:
        common: Optional[set] = None
        for d in walk:
            t = _dart_tail(edges, d)
            a, b = pair_of_side[(t, d >> 1)]
            cand = {a, b}
            common = cand if common is None else (common & cand)
        if common is None or len(common) != 1:
            raise LatticeError("face walk does not surround a unique point")
        point = common.pop()
        if point in seen_points:
            raise LatticeError(f"point {point} surrounded by two distinct fans")
        seen_points.add(point)
        color = point_color.get(point) if point_color else None
        faces.append(Face(tuple(d >> 1 for d in walk), color))

    n_vertices = len(triangles)
    chi = n_vertices - len(edges) + len(faces)
    if chi % 2 != 0:
        raise LatticeError("odd Euler characteristic")
    genus = (2 - chi) // 2
    lat = Lattice(
        name=name,
        schlafli=schlafli,
        genus=genus,
        n_vertices=n_vertices,
        edges=edges,
        faces=tuple(faces),
    )
    return lat


# ---------------------------------------------------------------------------
# honeycomb torus generator


def generate_honeycomb_torus(Lx: int, Ly: int) -> Lattice:
    """Toric honeycomb lattice with 2·Lx·Ly vertices and Lx·Ly hexagons.

    Both periods must be multiples of 3: the built-in face colouring assigns
    hexagon (x, y) the colour (x - y) mod 3, which is only consistent around
    the torus when 3 | Lx and 3 | Ly.  Other sizes are rejected.
    """
    if Lx < 1 or Ly < 1:
        raise LatticeError("periods must be positive")
    if Lx % 3 != 0 or Ly % 3 != 0:
        raise LatticeError(
            f"honeycomb torus ({Lx},{Ly}) admits no consistent face 3-colouring "
            "under the (x-y) mod 3 convention; both periods must be multiples of 3"
        )

    def pt(x: int, y: int) -> tuple[str, int, int]:
        return ("T", x % Lx, y % Ly)

    triangles = []
    for x in range(Lx):
        for y in range(Ly):
            triangles.append((pt(x, y), pt(x + 1, y), pt(x, y + 1)))
            triangles.append((pt(x + 1, y), pt(x + 1, y + 1), pt(x, y + 1)))
    colors = {pt(x, y): (x - y) % 3 for x in range(Lx) for y in range(Ly)}
    lat = _dualize_triangulation(
        triangles,
        name=f"honeycomb-{Lx}x{Ly}",
        schlafli=(6, 3),
        point_color=colors,
    )
    lat = color_faces(lat)  # fills edge colours, verifies propriety
    if lat.genus != 1:
        raise LatticeError(f"honeycomb torus traced genus {lat.genus}, expected 1")
    return lat


# ---------------------------------------------------------------------------
# fine-graining


def fine_grain(lat: Lattice, f: int) -> Lattice:
    """Subdivide the dual triangulation at level f and re-dualise.

    Each dual triangle (one per lattice vertex) is tiled with f² smaller
    triangles, so the result has f²·n vertices, the same genus, unchanged
    large-face count and hexagons for every added face.  Level 1 returns the
    lattice unchanged.
    """
    if f < 1:
        raise LatticeError("fine-graining level must be >= 1")
    if f == 1:
        return lat
    validate_lattice(lat, require_colors=True)

    walks = _orient_stored_faces(lat)
    rot = _rotation_from_walks(lat, walks)
    owner = _face_of_dart(walks)
    edges = lat.edges
    ef = lat.edge_faces()

    def corner_point(face: int) -> Point:
        return ("F", face)

    def edge_point(e: int, t: int) -> Point:
        # parameterised from the face owning dart 2e (edge.u -> edge.v side)
        return ("E", e, t)

    def interior_point(v: int, i: int, j: int) -> Point:
        return ("I", v, i, j)

    face0_of_edge = [owner[2 * e] for e in range(len(edges))]

    triangles = []
    for v in range(lat.n_vertices):
        out = [_out_dart(edges, e, v) for e in rot.order[v]]
        corners = [owner[d] for d in out]  # faces around v in rotation order
        # side s lies between corners[s] and corners[s+1], dual to edge of out[s]
        side_edge = [d >> 1 for d in out]

        def point_at(i: int, j: int, k: int) -> Point:
            # barycentric coords against corners (A, B, C) = corners[0..2]
            if i == f:
                return corner_point(corners[0])
            if j == f:
                return corner_point(corners[1])
            if k == f:
                return corner_point(corners[2])
            if k == 0:  # side between corners 0 and 1
                e = side_edge[0]
                t = j if face0_of_edge[e] == corners[0] else f - j
                return edge_point(e, t)
            if i == 0:  # side between corners 1 and 2
                e = side_edge[1]
                t = k if face0_of_edge[e] == corners[1] else f - k
                return edge_point(e, t)
            if j == 0:  # side between corners 2 and 0
                e = side_edge[2]
                t = i if face0_of_edge[e] == corners[2] else f - i
                return edge_point(e, t)
            return interior_point(v, i, j)

        for i in range(f):
            for j in range(f - i):
                k = f - 1 - i - j
                triangles.append(
                    (point_at(i + 1, j, k), point_at(i, j + 1, k), point_at(i, j, k + 1))
                )
                if i + j + k >= 1 and k >= 1:
                    triangles.append(
                        (
                            point_at(i, j + 1, k),
                            point_at(i + 1, j, k),
                            point_at(i + 1, j + 1, k - 1),
                        )
                    )

    out_lat = _dualize_triangulation(
        triangles,
        name=f"{lat.name}-f{f}",
        schlafli=lat.schlafli,
    )
    if out_lat.n_vertices != f * f * lat.n_vertices:
        raise LatticeError("fine-graining produced a wrong vertex count")
    if out_lat.genus != lat.genus:
        raise LatticeError(
            f"fine-graining changed the genus: {lat.genus} -> {out_lat.genus}"
        )
    out_lat = color_faces(out_lat)
    return out_lat


# ---------------------------------------------------------------------------
# file format

_HEADER = "LATTICE"


def lattice_to_text(lat: Lattice) -> str:
    lines = [
        f"{_HEADER} {lat.name}",
        f"SCHLAFLI {lat.schlafli[0]} {lat.schlafli[1]}",
        f"GENUS {lat.genus}",
        f"VERTICES {lat.n_vertices}",
    ]
    for i, e in enumerate(lat.edges):
        if e.color is None:
            lines.append(f"EDGE {i} {e.u} {e.v}")
        else:
            lines.append(f"EDGE {i} {e.u} {e.v} COLOR {e.color}")
    for i, fc in enumerate(lat.faces):
        edge_str = " ".join(str(e) for e in fc.edges)
        if fc.color is None:
            lines.append(f"FACE {i} EDGES {edge_str}")
        else:
            lines.append(f"FACE {i} COLOR {fc.color} EDGES {edge_str}")
    return "\n".join(lines) + "\n"


def save_lattice(lat: Lattice, path: str | Path) -> None:
    Path(path).write_text(lattice_to_text(lat), encoding="utf-8")


def _parse_lattice_text(text: str) -> Lattice:
    name = None
    schlafli = None
    genus = None
    n_vertices = None
    edges: dict[int, Edge] = {}
    faces: dict[int, Face] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0]
        try:
            if kind == _HEADER:
                name = tok[1]
            elif kind == "SCHLAFLI":
                schlafli = (int(tok[1]), int(tok[2]))
            elif kind == "GENUS":
                genus = int(tok[1])
            elif kind == "VERTICES":
                n_vertices = int(tok[1])
            elif kind == "EDGE":
                eid = int(tok[1])
                u, v = int(tok[2]), int(tok[3])
                color = None
                if len(tok) > 4:
                    if tok[4] != "COLOR":
                        raise ValueError("expected COLOR")
                    color = int(tok[5])
                if eid in edges:
                    raise ValueError(f"duplicate edge id {eid}")
                edges[eid] = Edge(u, v, color)
            elif kind == "FACE":
                fid = int(tok[1])
                color = None
                rest = tok[2:]
                if rest and rest[0] == "COLOR":
                    color = int(rest[1])
                    rest = rest[2:]
                if not rest or rest[0] != "EDGES":
                    raise ValueError("expected EDGES")
                cyc = tuple(int(x) for x in rest[1:])
                if fid in faces:
                    raise ValueError(f"duplicate face id {fid}")
                faces[fid] = Face(cyc, color)
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise LatticeError(f"lattice file line {lineno}: {exc}") from exc
    if name is None or schlafli is None or genus is None or n_vertices is None:
        raise LatticeError("lattice file is missing a header record")
    if sorted(edges) != list(range(len(edges))):
        raise LatticeError("edge ids must be 0..E-1")
    if sorted(faces) != list(range(len(faces))):
        raise LatticeError("face ids must be 0..F-1")
    return Lattice(
        name=name,
        schlafli=schlafli,
        genus=genus,
        n_vertices=n_vertices,
        edges=tuple(edges[i] for i in range(len(edges))),
        faces=tuple(faces[i] for i in range(len(faces))),
    )


def load_lattice(source: str | Path) -> Lattice:
    """Load and fully validate a lattice from file text, a path, or a fixture name.

    Validation failures raise LatticeError; nothing is silently repaired.
    Uncoloured input is coloured via color_faces.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    elif "\n" in source:
        text = source
    else:
        p = Path(source)
        if not p.exists():
            fp = fixture_path(source)
            if fp is None:
                raise LatticeError(f"no such lattice file or fixture: {source}")
            p = fp
        text = p.read_text(encoding="utf-8")
    lat = _parse_lattice_text(text)
    validate_lattice(lat, require_colors=False)
    if all(f.color is not None for f in lat.faces):
        validate_lattice(lat, require_colors=True)
        return lat
    # partial colourings are completed by search (pre-assignments respected)
    return color_faces(lat)


def fixture_path(name: str) -> Optional[Path]:
    """Path of a packaged lattice fixture, or None where there is none."""
    base = name.lower()
    if not base.endswith(".lattice"):
        base = base + ".lattice"
    pkg = importlib.resources.files("floqnet") / "fixtures" / base
    try:
        if pkg.is_file():
            return Path(str(pkg))
    except (OSError, TypeError):
        return None
    return None


def builtin_fixtures() -> list[str]:
    pkg = importlib.resources.files("floqnet") / "fixtures"
    try:
        return sorted(p.name[: -len(".lattice")] for p in pkg.iterdir() if p.name.endswith(".lattice"))
    except (OSError, FileNotFoundError):
        return []

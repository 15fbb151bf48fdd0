import dataclasses
import itertools
import random

import pytest

from floqnet.lattice import (
    Edge,
    Face,
    Lattice,
    LatticeError,
    NotThreeColorableError,
    RotationSystem,
    color_faces,
    derive_faces,
    _dualize_triangulation,
    _orient_stored_faces,
    _rotation_from_walks,
    fine_grain,
    generate_honeycomb_torus,
    lattice_to_text,
    load_lattice,
    validate_lattice,
)

from oracles import reference_color_faces


def test_honeycomb_3x3_counts():
    lat = generate_honeycomb_torus(3, 3)
    assert lat.n_vertices == 18
    assert lat.n_edges == 27
    assert lat.n_faces == 9
    assert lat.euler_characteristic == 0
    assert lat.genus == 1
    assert lat.k == 2
    assert all(len(f.edges) == 6 for f in lat.faces)
    validate_lattice(lat)


def test_honeycomb_vertices_trivalent_and_edges_on_two_faces():
    lat = generate_honeycomb_torus(6, 3)
    degree = [0] * lat.n_vertices
    for e in lat.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    assert set(degree) == {3}
    slots = [0] * lat.n_edges
    for f in lat.faces:
        for e in f.edges:
            slots[e] += 1
    assert set(slots) == {2}


def test_honeycomb_color_classes_are_perfect_matchings():
    lat = generate_honeycomb_torus(3, 3)
    for c in range(3):
        eids = lat.edges_of_color(c)
        touched = set()
        for e in eids:
            touched.add(lat.edges[e].u)
            touched.add(lat.edges[e].v)
        assert len(touched) == 2 * len(eids) == lat.n_vertices


def _triangular_torus_face_adjacency(L):
    """Face adjacency of the LxL triangular torus (hexagon adjacency)."""
    faces = [(x, y) for x in range(L) for y in range(L)]
    idx = {f: i for i, f in enumerate(faces)}
    adj = {i: set() for i in range(len(faces))}
    for x, y in faces:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)):
            j = idx[((x + dx) % L, (y + dy) % L)]
            if j != idx[(x, y)]:
                adj[idx[(x, y)]].add(j)
    return adj


def test_honeycomb_rejects_uncolorable_size():
    # independent exhaustive oracle: the 2x2 hexagon adjacency has no proper
    # 3-colouring, so rejecting (2,2) is forced, not a convenience.
    adj = _triangular_torus_face_adjacency(2)
    ok = False
    for colors in itertools.product(range(3), repeat=4):
        if all(colors[i] != colors[j] for i in adj for j in adj[i]):
            ok = True
    assert not ok
    with pytest.raises(LatticeError, match="3-colouring|3-coloring|multiples of 3"):
        generate_honeycomb_torus(2, 2)


def test_honeycomb_rejects_nonmultiple_periods():
    with pytest.raises(LatticeError):
        generate_honeycomb_torus(4, 3)
    with pytest.raises(LatticeError):
        generate_honeycomb_torus(3, 5)


@pytest.mark.parametrize("size", [0, -3, 3.0, 2.5, True, "3", None])
def test_honeycomb_rejects_non_positive_integer_periods(size):
    with pytest.raises(LatticeError):
        generate_honeycomb_torus(size, 3)
    with pytest.raises(LatticeError):
        generate_honeycomb_torus(3, size)


@pytest.mark.parametrize("f", [0, -1, 2.0, 2.5, True, "2"])
def test_fine_grain_rejects_non_positive_integer_levels(f):
    with pytest.raises(LatticeError):
        fine_grain(generate_honeycomb_torus(3, 3), f)


def test_theta_graph_faces_sphere():
    # 2 vertices joined by 3 parallel edges; rotation (0,1,2) at u and
    # (2,1,0) at v traces 3 digon faces: V-E+F = 2-3+3 = 2, a sphere.
    edges = [(0, 1), (0, 1), (0, 1)]
    rot = RotationSystem(((0, 1, 2), (2, 1, 0)))
    faces = derive_faces(2, edges, rot)
    assert len(faces) == 3
    assert sorted(len(f) for f in faces) == [2, 2, 2]
    assert 2 - 3 + len(faces) == 2


def test_derive_faces_honeycomb_oracle():
    lat = generate_honeycomb_torus(3, 3)
    walks = _orient_stored_faces(lat)
    rot = _rotation_from_walks(lat, walks)
    traced = derive_faces(lat.n_vertices, [(e.u, e.v) for e in lat.edges], rot)
    assert len(traced) == 9
    assert all(len(f) == 6 for f in traced)


def test_color_faces_idempotent():
    lat = generate_honeycomb_torus(3, 3)
    again = color_faces(lat)
    assert again is lat


def test_color_faces_from_scratch_matches_backtracking_oracle():
    honeycombs = [generate_honeycomb_torus(L, L) for L in (3, 6, 9)]
    fine = [fine_grain(honeycombs[0], 2), fine_grain(honeycombs[0], 3)]
    fine.append(fine_grain(honeycombs[1], 2))
    for lat in honeycombs + fine:
        stripped = dataclasses.replace(
            lat,
            edges=tuple(Edge(e.u, e.v, None) for e in lat.edges),
            faces=tuple(Face(f.edges, None) for f in lat.faces),
        )
        colored = color_faces(stripped)
        assert colored == reference_color_faces(stripped)
        assert colored == lat
        validate_lattice(colored)
        ef = colored.edge_faces()
        for i, e in enumerate(colored.edges):
            c0 = colored.faces[ef[i][0]].color
            c1 = colored.faces[ef[i][1]].color
            assert e.color == 3 - c0 - c1


def test_color_faces_matches_backtracking_oracle_on_random_maps():
    """Random cubic multigraphs under random rotation systems, some of them
    disconnected: the propagation and the search give the same colouring,
    or both find none."""
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        n = rng.choice([2, 4, 6, 8, 10, 12])
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = list(zip(ends[::2], ends[1::2]))
        if any(u == v for u, v in edges):
            continue
        at = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            at[u].append(i)
            at[v].append(i)
        for rotation in at:
            rng.shuffle(rotation)
        cycles = derive_faces(n, edges, RotationSystem(tuple(map(tuple, at))))
        lat = Lattice(
            name="random",
            schlafli=(3, 3),
            genus=(2 - (n - len(edges) + len(cycles))) // 2,
            n_vertices=n,
            edges=tuple(Edge(u, v) for u, v in edges),
            faces=tuple(Face(c) for c in cycles),
        )
        results = []
        for colour in (color_faces, reference_color_faces):
            try:
                results.append(colour(lat))
            except NotThreeColorableError:
                results.append(None)
        assert results[0] == results[1]
        outcomes.add(results[0] is None)
    assert outcomes == {False, True}


def _uncoloured_honeycomb(L):
    """The LxL honeycomb torus of generate_honeycomb_torus, faces uncoloured,
    for any L (the generator only accepts multiples of 3)."""

    def pt(x, y):
        return ("T", x % L, y % L)

    triangles = []
    for x in range(L):
        for y in range(L):
            triangles.append((pt(x, y), pt(x + 1, y), pt(x, y + 1)))
            triangles.append((pt(x + 1, y), pt(x + 1, y + 1), pt(x, y + 1)))
    return _dualize_triangulation(triangles, name=f"hc{L}", schlafli=(6, 3))


@pytest.mark.parametrize("L", [4, 5])
def test_uncoloured_torus_not_three_colorable(L):
    lat = _uncoloured_honeycomb(L)
    validate_lattice(lat, require_colors=False)
    with pytest.raises(NotThreeColorableError, match="no proper 3-colouring"):
        color_faces(lat)
    with pytest.raises(NotThreeColorableError):
        reference_color_faces(lat)


def test_color_faces_rejects_partial_colouring(tmp_path):
    lat = generate_honeycomb_torus(3, 3)
    faces = tuple(
        Face(f.edges, None if i == 4 else f.color) for i, f in enumerate(lat.faces)
    )
    partial = dataclasses.replace(
        lat, edges=tuple(Edge(e.u, e.v) for e in lat.edges), faces=faces
    )
    with pytest.raises(LatticeError, match="face 4 is uncoloured"):
        color_faces(partial)
    p = tmp_path / "partial.lattice"
    p.write_text(lattice_to_text(partial))
    with pytest.raises(LatticeError, match="face 4 is uncoloured"):
        load_lattice(p)


def _with_face_edges(lat, fi, edges):
    faces = list(lat.faces)
    faces[fi] = Face(tuple(edges), faces[fi].color)
    return dataclasses.replace(lat, faces=tuple(faces))


@pytest.mark.parametrize(
    "fi, message",
    [
        (0, "face 0 edge cycle is not a closed walk"),  # the first face oriented
        (1, "cannot orient face 1 against its neighbour"),
    ],
    ids=["first-face", "neighbour"],
)
def test_validate_rejects_face_cycle_that_is_not_a_closed_walk(fi, message):
    lat = generate_honeycomb_torus(3, 3)
    e = lat.faces[fi].edges  # a simple hexagon: e[0] and e[2] share no vertex
    bad = _with_face_edges(lat, fi, (e[0], e[2], e[1]) + e[3:])
    with pytest.raises(LatticeError, match=message):
        validate_lattice(bad, require_colors=False)


def test_validate_rejects_edge_on_three_face_slots():
    lat = generate_honeycomb_torus(3, 3)
    extra = lat.faces[1].edges[0]
    bad = _with_face_edges(lat, 0, lat.faces[0].edges + (extra,))
    with pytest.raises(LatticeError, match=f"edge {extra} appears on 3 face slots"):
        validate_lattice(bad, require_colors=False)
    with pytest.raises(LatticeError, match=f"edge {extra} lies on 3 face slots"):
        _orient_stored_faces(bad)


def test_validate_rejects_two_faces_using_one_dart():
    # the triangular prism as three hexagons on a Klein bottle: every edge
    # lies on two face slots and V - E + F = 6 - 9 + 3 = 0, but once the
    # first face is oriented, the second must run edge 0 backwards and so
    # runs edge 8 (2 -> 5) the same way as the first
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    cycles = [(0, 1, 8, 4, 3, 6), (0, 2, 8, 5, 3, 7), (1, 2, 6, 5, 4, 7)]
    lat = Lattice(
        name="prism-klein",
        schlafli=(6, 3),
        genus=1,
        n_vertices=6,
        edges=tuple(Edge(u, v) for u, v in edges),
        faces=tuple(Face(c) for c in cycles),
    )
    with pytest.raises(LatticeError, match="face orientations are inconsistent"):
        validate_lattice(lat, require_colors=False)


def test_fine_grain_level1_is_identity():
    lat = generate_honeycomb_torus(3, 3)
    assert fine_grain(lat, 1) is lat


@pytest.mark.parametrize("f", [2, 3])
def test_fine_grain_honeycomb_counts(f):
    lat = generate_honeycomb_torus(3, 3)
    fg = fine_grain(lat, f)
    assert fg.n_vertices == f * f * 18
    assert fg.genus == 1
    assert fg.euler_characteristic == 0
    validate_lattice(fg)
    # original faces survive with their sizes, every added face is a hexagon
    assert sum(1 for fc in fg.faces if len(fc.edges) == 6) == fg.n_faces
    assert fg.name.endswith(f"-f{f}")


def test_fine_grain_face_census():
    lat = generate_honeycomb_torus(3, 3)
    fg = fine_grain(lat, 2)
    # F' = F + E(f-1) + V(f-1)(f-2)/2 = 9 + 27 + 0 = 36
    assert fg.n_faces == 36
    assert fg.n_edges == 3 * fg.n_vertices // 2


def test_save_load_round_trip(tmp_path):
    lat = generate_honeycomb_torus(3, 3)
    p = tmp_path / "hc.lattice"
    text = lattice_to_text(lat)
    p.write_text(text)
    lat2 = load_lattice(p)
    assert lattice_to_text(lat2) == text
    assert lat2 == lat


def test_load_uncolored_gets_colored(tmp_path):
    lat = generate_honeycomb_torus(3, 3)
    stripped = Lattice(
        name=lat.name,
        schlafli=lat.schlafli,
        genus=lat.genus,
        n_vertices=lat.n_vertices,
        edges=tuple(Edge(e.u, e.v, None) for e in lat.edges),
        faces=tuple(Face(f.edges, None) for f in lat.faces),
    )
    p = tmp_path / "plain.lattice"
    p.write_text(lattice_to_text(stripped))
    lat2 = load_lattice(p)
    assert all(f.color is not None for f in lat2.faces)
    validate_lattice(lat2)


def test_load_face_colours_alone_derives_edge_colours():
    lat = generate_honeycomb_torus(3, 3)
    faces_only = dataclasses.replace(
        lat, edges=tuple(Edge(e.u, e.v) for e in lat.edges)
    )
    assert load_lattice(lattice_to_text(faces_only)) == lat


def test_load_rejects_degree_four(tmp_path):
    text = "\n".join(
        [
            "LATTICE bad",
            "SCHLAFLI 8 3",
            "GENUS 0",
            "VERTICES 2",
            "EDGE 0 0 1",
            "EDGE 1 0 1",
            "EDGE 2 0 1",
            "EDGE 3 0 1",
            "FACE 0 EDGES 0 1",
            "FACE 1 EDGES 1 2",
            "FACE 2 EDGES 2 3",
            "FACE 3 EDGES 3 0",
        ]
    )
    with pytest.raises(LatticeError, match="tri-valent"):
        load_lattice(text + "\n")


def test_load_rejects_genus_mismatch():
    lat = generate_honeycomb_torus(3, 3)
    text = lattice_to_text(lat).replace("GENUS 1", "GENUS 3")
    with pytest.raises(LatticeError, match="Euler|genus"):
        load_lattice(text)


def test_load_missing_fixture_raises(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no file named h64 in the working directory
    with pytest.raises(LatticeError, match="h64"):
        load_lattice("h64")


def test_self_adjacent_face_not_colorable():
    # two hexagonal faces glued into a torus-like strip where a face meets
    # itself is impossible here; instead check the digon sphere: 3 faces,
    # pairwise adjacent twice, still 3-colourable.
    edges = [(0, 1), (0, 1), (0, 1)]
    rot = RotationSystem(((0, 1, 2), (2, 1, 0)))
    cycles = derive_faces(2, edges, rot)
    lat = Lattice(
        name="theta",
        schlafli=(2, 3),
        genus=0,
        n_vertices=2,
        edges=tuple(Edge(u, v) for u, v in edges),
        faces=tuple(Face(c) for c in cycles),
    )
    colored = color_faces(lat)
    assert sorted(f.color for f in colored.faces) == [0, 1, 2]
    assert colored == reference_color_faces(lat)

"""Exact maximum-weight general matching (blossom algorithm).

Primal-dual blossom matching over an explicit edge list with integer
weights, following the classic O(V^3) staged construction: grow alternating
trees from free vertices, shrink odd cycles into blossoms, expand zero-dual
T-blossoms, and adjust dual variables between events.  Integer weights keep
every dual variable integral (duals are stored doubled), so optimality is
exact, not floating-point.
"""

from __future__ import annotations

__all__ = ["max_weight_matching"]


def max_weight_matching(n: int, edges):
    """Maximum-weight matching; returns the mate array (mate[v] = partner
    or -1).

    ``edges`` is a sequence of (u, v, weight) with integer weights.
    """
    if n == 0:
        return []
    edges = [(int(i), int(j), int(w)) for (i, j, w) in edges]
    nedge = len(edges)
    for (i, j, w) in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError("bad edge")

    maxweight = max([0] + [w for (_, _, w) in edges])

    # endpoint p of edge k = p // 2: endpoint[p] is the vertex at side p % 2
    endpoint = [edges[p // 2][p % 2] for p in range(2 * nedge)]
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j, _) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

    mate = [-1] * n  # mate[v] = remote endpoint of its matched edge
    # label: 0 free, 1 = S, 2 = T (per top-level blossom and per vertex)
    label = [0] * (2 * n)
    # labelend[b] = remote endpoint of the edge through which b was labeled
    labelend = [-1] * (2 * n)
    inblossom = list(range(n))
    blossomparent = [-1] * (2 * n)
    blossomchilds: list = [None] * (2 * n)
    blossombase = list(range(n)) + [-1] * n
    blossomendps: list = [None] * (2 * n)
    bestedge = [-1] * (2 * n)
    blossombestedges: list = [None] * (2 * n)
    unusedblossoms = list(range(n, 2 * n))
    dualvar = [maxweight] * n + [0] * n
    allowedge = [False] * nedge
    queue: list[int] = []

    def slack(k):
        (i, j, wt) = edges[k]
        return dualvar[i] + dualvar[j] - 2 * wt

    def blossom_leaves(b):
        if b < n:
            yield b
        else:
            for t in blossomchilds[b]:
                if t < n:
                    yield t
                else:
                    yield from blossom_leaves(t)

    def assign_label(w, t, p):
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            queue.extend(blossom_leaves(b))
        else:
            base = blossombase[b]
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v, w):
        # find the lowest common ancestor base of the tree paths of v and w
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] |= 4
            if mate[blossombase[b]] == -1:
                v = -1  # reached a root
            else:
                v = endpoint[mate[blossombase[b]]]
                b = inblossom[v]
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] &= ~4
        return base

    def add_blossom(base, k):
        (v, w, _) = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = []
        endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        blossomchilds[b] = path
        blossomendps[b] = endps
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        bestedgeto = [-1] * (2 * n)
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [
                    [p // 2 for p in neighbend[leaf]] for leaf in blossom_leaves(bv)
                ]
            else:
                nblists = [blossombestedges[bv]]
            for nblist in nblists:
                for kk in nblist:
                    (i, j, _) = edges[kk]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (
                        bj != b
                        and label[bj] == 1
                        and (bestedgeto[bj] == -1 or slack(kk) < slack(bestedgeto[bj]))
                    ):
                        bestedgeto[bj] = kk
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = [kk for kk in bestedgeto if kk != -1]
        bestedge[b] = -1
        for kk in blossombestedges[b]:
            if bestedge[b] == -1 or slack(kk) < slack(bestedge[b]):
                bestedge[b] = kk

    def expand_blossom(b, endstage):
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            # relabel along the path from the entry child to the base child
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[
                    endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]
                ] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == 1:
                    j += jstep
                    continue
                for v in blossom_leaves(bv):
                    if label[v] != 0:
                        break
                if label[v] != 0:
                    label[v] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(v, 2, labelend[v])
                j += jstep
        label[b] = -1
        labelend[b] = -1
        blossomchilds[b] = None
        blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b, v):
        # move vertex v to the base of blossom b by re-matching along the cycle
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= n:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= n:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]

    def augment_matching(k):
        (v, w, _) = edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                v_ = endpoint[labelend[bt]]
                w_ = endpoint[labelend[bt] ^ 1]
                if bt >= n:
                    augment_blossom(bt, w_)
                mate[w_] = labelend[bt]
                p = labelend[bt] ^ 1
                s = v_

    for _ in range(n):
        label[:] = [0] * (2 * n)
        bestedge[:] = [-1] * (2 * n)
        for b in range(n, 2 * n):
            blossombestedges[b] = None
        allowedge[:] = [False] * nedge
        queue[:] = []
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                for p in neighbend[v]:
                    k = p // 2
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    if not allowedge[k]:
                        kslack = slack(k)
                        if kslack <= 0:
                            allowedge[k] = True
                    if allowedge[k]:
                        if label[inblossom[w]] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[inblossom[w]] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w] = 2
                            labelend[w] = p ^ 1
                    elif label[inblossom[w]] == 1:
                        b = inblossom[v]
                        if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                            bestedge[b] = k
                    elif label[w] == 0:
                        if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                            bestedge[w] = k
            if augmented:
                break
            # compute the dual adjustment; delta1, the least vertex dual,
            # brings the free vertices' duals to zero and ends the search
            deltatype = 1
            delta = min(dualvar[:n])
            deltaedge = deltablossom = None
            for v in range(n):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            for b in range(2 * n):
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    d = slack(bestedge[b]) // 2
                    if d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            for b in range(n, 2 * n):
                if (
                    blossombase[b] >= 0
                    and blossomparent[b] == -1
                    and label[b] == 2
                    and dualvar[b] < delta
                ):
                    delta = dualvar[b]
                    deltatype = 4
                    deltablossom = b
            for v in range(n):
                lbl = label[inblossom[v]]
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in range(n, 2 * n):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta
            if deltatype == 1:
                break
            elif deltatype == 2:
                allowedge[deltaedge] = True
                (i, j, _) = edges[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                (i, j, _) = edges[deltaedge]
                queue.append(i)
            elif deltatype == 4:
                expand_blossom(deltablossom, False)
        if not augmented:
            break
        for b in range(n, 2 * n):
            if (
                blossombase[b] >= 0
                and blossomparent[b] == -1
                and label[b] == 1
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    out = [-1] * n
    for v in range(n):
        if mate[v] != -1:
            out[v] = endpoint[mate[v]]
    return out

# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled search kernels; semantics identical to `_kernels_py`.

The recursion is flattened over C arrays; deadline checks are strided the
same way as the fallback so node counts agree between backends.  The flow
search breaks the alpha <-> beta symmetry by the fallback's rule (see
`_kernels_py.flow_search`): `sym_skip[i]` marks a value whose swap comes
earlier in `values`, and such a value is not tried, nor counted as a node,
while every edge valued so far holds a swap-fixed value.

The committed `_kernels.c` was generated by Cython 3 from the revision of
this file before the symmetry rule; the rule was then written into it by
hand, line for line as here, so regenerating it gives the same kernel.
"""

import time

from cpython.mem cimport PyMem_Free, PyMem_Malloc

from ._kernels_py import SearchTimeout

BACKEND = "c"

cdef int _DEADLINE_STRIDE = 4096


cdef struct SearchState:
    int m
    int nq
    int* order
    int* eu
    int* ev
    int* rem
    int* acc
    int* val
    int* partner_off
    int* partner_dat
    int* vals
    int* sym_skip
    int nvals
    int mode  # 0 first, 1 min, 2 count
    long nodes
    long flows_seen
    int best_conf
    int* best_val
    int has_best
    double deadline
    int has_deadline


cdef int* _alloc(int k) except NULL:
    cdef int* p = <int*> PyMem_Malloc(k * sizeof(int) if k > 0 else sizeof(int))
    if p == NULL:
        raise MemoryError()
    return p


cdef inline int _swap_alpha_beta(int x) noexcept nogil:
    """x with bits 0 and 1 exchanged: alpha = 1 <-> beta = 2 (and 5 <-> 6)."""
    return x ^ 3 if (x ^ (x >> 1)) & 1 else x


cdef int _flow_rec(SearchState* s, int depth, int conf, int sym) except -1:
    cdef int e, u, v, loop, i, x, dconf, p, ncand, done
    cdef int cand[3]
    cdef int use_vals
    if depth == s.m:
        s.flows_seen += 1
        if s.mode != 2 and conf < s.best_conf:
            s.best_conf = conf
            for i in range(s.m):
                s.best_val[i] = s.val[i]
            s.has_best = 1
            if s.mode == 0 and conf == 0:
                return 1
        return 0
    e = s.order[depth]
    u = s.eu[e]
    v = s.ev[e]
    loop = u == v
    use_vals = 1
    ncand = 0
    if not loop:
        if s.rem[u] == 1 and s.rem[v] == 1:
            use_vals = 0
            if s.acc[u] == s.acc[v] and s.acc[u] != 0:
                cand[0] = s.acc[u]
                ncand = 1
        elif s.rem[u] == 1:
            use_vals = 0
            if s.acc[u] != 0:
                cand[0] = s.acc[u]
                ncand = 1
        elif s.rem[v] == 1:
            use_vals = 0
            if s.acc[v] != 0:
                cand[0] = s.acc[v]
                ncand = 1
    if use_vals:
        ncand = s.nvals
    for i in range(ncand):
        if sym and use_vals and s.sym_skip[i]:
            continue
        x = s.vals[i] if use_vals else cand[i]
        s.nodes += 1
        if s.has_deadline and s.nodes % _DEADLINE_STRIDE == 0:
            if time.monotonic() > s.deadline:
                raise SearchTimeout
        dconf = 0
        if s.mode != 2:
            for p in range(s.partner_off[e], s.partner_off[e + 1]):
                if s.val[s.partner_dat[p]] != 0 and (s.val[s.partner_dat[p]] ^ x) == 3:
                    dconf += 1
            if s.mode == 0 and dconf:
                continue
            if conf + dconf >= s.best_conf:
                continue
        s.val[e] = x
        if not loop:
            s.acc[u] ^= x
            s.acc[v] ^= x
            s.rem[u] -= 1
            s.rem[v] -= 1
        done = _flow_rec(s, depth + 1, conf + dconf, sym and _swap_alpha_beta(x) == x)
        s.val[e] = 0
        if not loop:
            s.acc[u] ^= x
            s.acc[v] ^= x
            s.rem[u] += 1
            s.rem[v] += 1
        if done:
            return 1
    return 0


def flow_search(int nq, eu, ev, conflict_pairs, mode, values=(1, 2, 3), deadline=None):
    """See `_kernels_py.flow_search`; same contract and return shape."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout
    cdef int m = len(eu)
    if m == 0:
        if mode == "count":
            return None, 0, 0, 1
        return [], 0, 0, 1

    cdef SearchState s
    cdef int e, v, i, j, a, b, sym
    s.m = m
    s.nq = nq
    s.eu = _alloc(m)
    s.ev = _alloc(m)
    s.order = _alloc(m)
    s.rem = _alloc(nq)
    s.acc = _alloc(nq)
    s.val = _alloc(m)
    s.best_val = _alloc(m)
    s.partner_off = _alloc(m + 1)
    s.partner_dat = _alloc(2 * len(conflict_pairs))
    s.vals = _alloc(len(values))
    s.sym_skip = _alloc(len(values))
    try:
        for e in range(m):
            s.eu[e] = eu[e]
            s.ev[e] = ev[e]
            s.val[e] = 0
        # vertex-grouped static order, mirroring the fallback exactly
        placed = [False] * m
        incid = [[] for _ in range(nq)]
        for e in range(m):
            incid[s.eu[e]].append(e)
            if s.ev[e] != s.eu[e]:
                incid[s.ev[e]].append(e)
        order_py = []
        for v in range(nq):
            for e in incid[v]:
                if not placed[e]:
                    placed[e] = True
                    order_py.append(e)
        for e in range(m):
            if not placed[e]:
                order_py.append(e)
        for i in range(m):
            s.order[i] = order_py[i]

        partners = [[] for _ in range(m)]
        for a, b in conflict_pairs:
            partners[a].append(b)
            partners[b].append(a)
        i = 0
        for e in range(m):
            s.partner_off[e] = i
            for b in partners[e]:
                s.partner_dat[i] = b
                i += 1
        s.partner_off[m] = i

        for v in range(nq):
            s.rem[v] = 0
            s.acc[v] = 0
        for e in range(m):
            if s.eu[e] != s.ev[e]:
                s.rem[s.eu[e]] += 1
                s.rem[s.ev[e]] += 1

        s.nvals = len(values)
        for i in range(s.nvals):
            s.vals[i] = values[i]
        s.mode = {"first": 0, "min": 1, "count": 2}[mode]
        # "first" and "min" break the symmetry when `values` is closed
        # under the swap; "count" must see every flow
        sym = s.mode != 2
        for i in range(s.nvals):
            j = 0
            while j < s.nvals and s.vals[j] != _swap_alpha_beta(s.vals[i]):
                j += 1
            if j == s.nvals:
                sym = 0
            s.sym_skip[i] = j < i
        s.nodes = 0
        s.flows_seen = 0
        s.best_conf = len(conflict_pairs) + 1
        s.has_best = 0
        s.has_deadline = 0 if deadline is None else 1
        s.deadline = 0.0 if deadline is None else deadline

        _flow_rec(&s, 0, 0, sym)

        if s.mode == 2:
            return None, 0, s.nodes, s.flows_seen
        if not s.has_best:
            return None, 0, s.nodes, s.flows_seen
        out = [s.best_val[i] for i in range(m)]
        return out, s.best_conf, s.nodes, s.flows_seen
    finally:
        PyMem_Free(s.eu)
        PyMem_Free(s.ev)
        PyMem_Free(s.order)
        PyMem_Free(s.rem)
        PyMem_Free(s.acc)
        PyMem_Free(s.val)
        PyMem_Free(s.best_val)
        PyMem_Free(s.partner_off)
        PyMem_Free(s.partner_dat)
        PyMem_Free(s.vals)
        PyMem_Free(s.sym_skip)


cdef struct ColorState:
    int m
    int n
    int k
    int forbid
    int* eu
    int* ev
    int* order
    int* color
    int* adj_off
    int* adj_dat
    int* inc_off
    int* inc_dat
    int* closed_uncolored
    long nodes
    double deadline
    int has_deadline


cdef int _star_ok(ColorState* s, int e):
    cdef int mask_u = 0, mask_v = 0, f, size, mask
    for f in range(s.inc_off[s.eu[e]], s.inc_off[s.eu[e] + 1]):
        mask_u |= 1 << s.color[s.inc_dat[f]]
    for f in range(s.inc_off[s.ev[e]], s.inc_off[s.ev[e] + 1]):
        mask_v |= 1 << s.color[s.inc_dat[f]]
    mask = mask_u | mask_v
    size = 0
    while mask:
        size += 1
        mask &= mask - 1
    return size != 4


cdef int _color_rec(ColorState* s, int depth, int maxused) except -1:
    cdef int e, c, limit, ok, f, good, i
    if depth == s.m:
        return 1
    e = s.order[depth]
    limit = s.k if s.k < maxused + 1 else maxused + 1
    for c in range(1, limit + 1):
        s.nodes += 1
        if s.has_deadline and s.nodes % _DEADLINE_STRIDE == 0:
            if time.monotonic() > s.deadline:
                raise SearchTimeout
        ok = 1
        for i in range(s.adj_off[e], s.adj_off[e + 1]):
            if s.color[s.adj_dat[i]] == c:
                ok = 0
                break
        if not ok:
            continue
        s.color[e] = c
        good = 1
        if s.forbid:
            s.closed_uncolored[e] -= 1
            for i in range(s.adj_off[e], s.adj_off[e + 1]):
                s.closed_uncolored[s.adj_dat[i]] -= 1
            if s.closed_uncolored[e] == 0 and not _star_ok(s, e):
                good = 0
            if good:
                for i in range(s.adj_off[e], s.adj_off[e + 1]):
                    f = s.adj_dat[i]
                    if s.closed_uncolored[f] == 0 and not _star_ok(s, f):
                        good = 0
                        break
        if good and _color_rec(s, depth + 1, maxused if maxused > c else c):
            return 1
        if s.forbid:
            s.closed_uncolored[e] += 1
            for i in range(s.adj_off[e], s.adj_off[e + 1]):
                s.closed_uncolored[s.adj_dat[i]] += 1
        s.color[e] = 0
    return 0


def normal_coloring_search(int n, eu, ev, int k, forbid_abnormal=True, deadline=None):
    """See `_kernels_py.normal_coloring_search`; same contract."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout
    cdef int m = len(eu)
    if m == 0:
        return [], 0

    incid = [[] for _ in range(n)]
    cdef int e, i, total
    for e in range(m):
        incid[eu[e]].append(e)
        incid[ev[e]].append(e)
    adjacent = [[] for _ in range(m)]
    for e in range(m):
        seen = set()
        for v in (eu[e], ev[e]):
            for f in incid[v]:
                if f != e and f not in seen:
                    seen.add(f)
                    adjacent[e].append(f)
    order_py = []
    placed = [False] * m
    for st in range(m):
        if placed[st]:
            continue
        placed[st] = True
        queue = [st]
        while queue:
            e = queue.pop(0)
            order_py.append(e)
            for f in adjacent[e]:
                if not placed[f]:
                    placed[f] = True
                    queue.append(f)

    cdef ColorState s
    s.m = m
    s.n = n
    s.k = k
    s.forbid = 1 if forbid_abnormal else 0
    s.eu = _alloc(m)
    s.ev = _alloc(m)
    s.order = _alloc(m)
    s.color = _alloc(m)
    s.closed_uncolored = _alloc(m)
    s.adj_off = _alloc(m + 1)
    total = 0
    for e in range(m):
        total += len(adjacent[e])
    s.adj_dat = _alloc(total)
    s.inc_off = _alloc(n + 1)
    total = 0
    for v in range(n):
        total += len(incid[v])
    s.inc_dat = _alloc(total)
    try:
        for e in range(m):
            s.eu[e] = eu[e]
            s.ev[e] = ev[e]
            s.order[e] = order_py[e]
            s.color[e] = 0
            s.closed_uncolored[e] = len(adjacent[e]) + 1
        i = 0
        for e in range(m):
            s.adj_off[e] = i
            for f in adjacent[e]:
                s.adj_dat[i] = f
                i += 1
        s.adj_off[m] = i
        i = 0
        for v in range(n):
            s.inc_off[v] = i
            for f in incid[v]:
                s.inc_dat[i] = f
                i += 1
        s.inc_off[n] = i
        s.nodes = 0
        s.has_deadline = 0 if deadline is None else 1
        s.deadline = 0.0 if deadline is None else deadline

        if _color_rec(&s, 0, 0):
            return [s.color[i] for i in range(m)], s.nodes
        return None, s.nodes
    finally:
        PyMem_Free(s.eu)
        PyMem_Free(s.ev)
        PyMem_Free(s.order)
        PyMem_Free(s.color)
        PyMem_Free(s.closed_uncolored)
        PyMem_Free(s.adj_off)
        PyMem_Free(s.adj_dat)
        PyMem_Free(s.inc_off)
        PyMem_Free(s.inc_dat)

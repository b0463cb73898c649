/* Compiled search kernels, loaded by `ncflow.kernels` through ctypes.

   Build:  cc -O2 -shared -fPIC _kernels.c -o _kernels.so
   (`python setup.py build_ext --inplace` does the same).

   Both searches return what `_kernels_py` returns, node counts included:
   the edge orders, the alpha <-> beta symmetry rule of the flow search,
   the depth at which the coloring search looks one edge ahead and the
   deadline stride are the same.  Each entry point takes plain int
   arrays, builds its own order, incidence and partner arrays, frees them
   on every path and returns a status code; the coloring search builds
   them once for all the palettes it is given.  Neither recurses: each keeps
   its candidates in per-depth arrays, so deep inputs need no stack.  A
   deadline is given as the seconds left (negative: none) and read from
   CLOCK_MONOTONIC every DEADLINE_STRIDE nodes. */

#define _POSIX_C_SOURCE 199309L

#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { NC_EXHAUSTED, NC_FOUND, NC_TIMEOUT, NC_NOMEM, NC_BADINDEX };

#define DEADLINE_STRIDE 4096
#define TIMED_OUT (-1)

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static double deadline_in(double seconds)
{
    return seconds < 0 ? -1.0 : now() + seconds;
}

/* Counts one node; true once the deadline (if any) has passed, which is
   read every DEADLINE_STRIDE nodes. */
static int tick(long long *nodes, double deadline)
{
    ++*nodes;
    return deadline >= 0 && *nodes % DEADLINE_STRIDE == 0 && now() > deadline;
}

static int in_range(int n, const int *idx, int count)
{
    for (int i = 0; i < count; i++)
        if (idx[i] < 0 || idx[i] >= n)
            return 0;
    return 1;
}

/* Compressed lists off[0..n] / dat: count list k's items in off[k + 1],
   call `offsets`, store each item at dat[off[k]++], then call
   `rewind_offsets`.  Items keep their insertion order within a list. */
static void offsets(int *off, int n)
{
    for (int k = 0; k < n; k++)
        off[k + 1] += off[k];
}

static void rewind_offsets(int *off, int n)
{
    for (int k = n; k > 0; k--)
        off[k] = off[k - 1];
    off[0] = 0;
}

/* Incidence lists of n vertices in edge id order; a loop is listed once
   at its vertex when `loops_once`, twice otherwise.  off has n + 1 ints,
   dat 2m. */
static void incidence(int n, int m, const int *eu, const int *ev, int loops_once, int *off, int *dat)
{
    for (int e = 0; e < m; e++) {
        off[eu[e] + 1]++;
        if (!(loops_once && eu[e] == ev[e]))
            off[ev[e] + 1]++;
    }
    offsets(off, n);
    for (int e = 0; e < m; e++) {
        dat[off[eu[e]]++] = e;
        if (!(loops_once && eu[e] == ev[e]))
            dat[off[ev[e]]++] = e;
    }
    rewind_offsets(off, n);
}

/* ---- flow search ---------------------------------------------------- */

enum { MODE_FIRST, MODE_MIN };

/* The edge valued at one depth of the static order: its endpoints, the
   endpoint it closes (the first at which it is the last non-loop edge in
   the order, or -1) and whether it closes both. */
typedef struct {
    int u, v, closes, both;
} Step;

/* The search state, and what `flow_setup` reads to fill it: the edges,
   the conflict pairs (first edges, then second edges), incidence lists in
   id order with a loop once, its scratch arrays depth_of (m ints) and
   last (nq ints), and the per-depth arrays of `flow_walk` (m + 1 ints
   each). */
typedef struct {
    int nq, m, npairs, mode, nvals, best_conf;
    const int *eu, *ev, *pairs, *vals;
    Step *steps;
    int *order, *acc, *val, *best_val, *partner_off, *partner_dat, *sym_skip;
    int *inc_off, *inc_dat, *depth_of, *last, *next, *conf, *sym;
    long long nodes;
    double deadline;
} FlowState;

/* x with bits 0 and 1 exchanged: alpha = 1 <-> beta = 2 (and 5 <-> 6). */
static int swap_alpha_beta(int x)
{
    return ((x ^ (x >> 1)) & 1) ? x ^ 3 : x;
}

/* The first index of x in vals[0..n), or n. */
static int index_of(const int *vals, int n, int x)
{
    int i = 0;
    while (i < n && vals[i] != x)
        i++;
    return i;
}

/* The edges in the order of the search that takes the vertices in the
   sequence `seq`: each vertex in turn takes its edges not yet placed, in
   id order.  `_kernels_py._edge_order` returns the same. */
static void edge_order(FlowState *s, const int *seq, int *order)
{
    int *placed_at = s->depth_of; /* depth + 1 once placed */
    memset(placed_at, 0, (size_t)s->m * sizeof(int));
    for (int k = 0, placed = 0; k < s->nq; k++)
        for (int i = s->inc_off[seq[k]]; i < s->inc_off[seq[k] + 1]; i++) {
            int e = s->inc_dat[i];
            if (!placed_at[e]) {
                order[placed] = e;
                placed_at[e] = ++placed;
            }
        }
}

/* The steps and partner lists of the search that values the edges in
   `order`, which it keeps.  `_kernels_py._step_table` builds the same. */
static void flow_setup(FlowState *s, int *order)
{
    int m = s->m, nq = s->nq, npairs = s->npairs;
    const int *eu = s->eu, *ev = s->ev, *pairs = s->pairs;
    int *depth_of = s->depth_of, *last = s->last;

    s->order = order;
    /* last: the depth of the last non-loop edge at each vertex */
    for (int w = 0; w < nq; w++)
        last[w] = -1;
    for (int d = 0; d < m; d++) {
        int e = s->order[d];
        depth_of[e] = d;
        if (eu[e] != ev[e])
            last[eu[e]] = last[ev[e]] = d;
    }
    for (int d = 0; d < m; d++) {
        int u = eu[s->order[d]], v = ev[s->order[d]];
        s->steps[d] = (Step){u, v, last[u] == d ? u : last[v] == d ? v : -1, last[u] == d && last[v] == d};
    }

    /* the later depth of a pair lists the earlier one, which is valued
       whenever the later one is tried; a self-pair never conflicts */
    memset(s->partner_off, 0, ((size_t)m + 1) * sizeof(int));
    for (int i = 0; i < npairs; i++) {
        int a = depth_of[pairs[i]], b = depth_of[pairs[npairs + i]];
        if (a != b)
            s->partner_off[(a > b ? a : b) + 1]++;
    }
    offsets(s->partner_off, m);
    for (int i = 0; i < npairs; i++) {
        int a = depth_of[pairs[i]], b = depth_of[pairs[npairs + i]];
        if (a != b)
            s->partner_dat[s->partner_off[a > b ? a : b]++] = a > b ? b : a;
    }
    rewind_offsets(s->partner_off, m);
}

/* 1 once "first" has its flow, TIMED_OUT on the deadline, 0 otherwise.
   The search walks the depths in a loop and keeps, per depth, the index
   of the next candidate (next), the conflicts of the values above it
   (conf) and whether they are all swap-fixed (sym), so its depth is
   bounded by memory, not by the stack.  val[d] is the value at depth d
   and acc[w] the XOR of the values at w, so an edge that closes a vertex
   can only take acc there (a loop XORs its value in twice, which changes
   nothing); every value is XORed out again on the way back, so acc is
   all zeros after a search that did not time out.  While sym holds, a
   free edge skips each value whose swap comes earlier in `vals`, and a
   skipped value is not a node.  A value conflicts with a partner (an
   earlier depth) alpha + beta apart, and a branch is cut once its
   conflicts reach best_conf.  No value is 0, so x = 0 marks a depth
   with no candidate left. */
static int flow_walk(FlowState *s, int sym_start)
{
    int m = s->m, depth = 0;
    int *next = s->next, *conf = s->conf, *sym = s->sym;
    next[0] = conf[0] = 0;
    sym[0] = sym_start;
    for (;;) {
        const Step *st = &s->steps[depth];
        int x = 0;
        if (depth == m) {
            if (conf[m] < s->best_conf) {
                s->best_conf = conf[m];
                for (int d = 0; d < m; d++)
                    s->best_val[s->order[d]] = s->val[d];
                if (s->mode == MODE_FIRST)
                    return 1;
            }
        } else if (st->closes >= 0) {
            if (next[depth]++ == 0) {
                x = s->acc[st->closes];
                if (st->both && s->acc[st->v] != x)
                    x = 0;
            }
        } else {
            while (next[depth] < s->nvals && sym[depth] && s->sym_skip[next[depth]])
                next[depth]++;
            if (next[depth] < s->nvals)
                x = s->vals[next[depth]++];
        }
        if (x == 0) { /* back to the depth above, taking its value out */
            if (depth == 0)
                return 0;
            depth--;
            s->acc[s->steps[depth].u] ^= s->val[depth];
            s->acc[s->steps[depth].v] ^= s->val[depth];
            continue;
        }
        if (tick(&s->nodes, s->deadline))
            return TIMED_OUT;
        int c = conf[depth];
        for (int p = s->partner_off[depth]; p < s->partner_off[depth + 1] && c < s->best_conf; p++)
            c += (s->val[s->partner_dat[p]] ^ x) == 3;
        if (c >= s->best_conf)
            continue;
        s->val[depth] = x;
        s->acc[st->u] ^= x;
        s->acc[st->v] ^= x;
        depth++;
        next[depth] = 0;
        conf[depth] = c;
        sym[depth] = sym[depth - 1] && swap_alpha_beta(x) == x;
    }
}

/* Nowhere-zero flows of the multigraph on nq vertices with edges
   eu[i]-ev[i], XOR conservation at every vertex, free edges valued from
   vals in the order given; vals with 0 must be closed under XOR, as
   `_kernels_py.check_search_args` requires.  pairs holds the first edges
   of npairs conflict pairs, then their second edges.  mode 0 ("first")
   looks for a flow without conflicts, mode 1 ("min") for the first flow
   with the fewest.  On NC_FOUND the flow is in out_val and its conflict
   count in *out_conf; *out_nodes is set on NC_FOUND, NC_EXHAUSTED and
   NC_TIMEOUT.

   Both modes search once, in the order of `_kernels_py.flow_search`: the
   vertices by their number of edges (a loop once), then by id, so the
   vertices with fewest edges close first (fail first). */
int nc_flow_search(int nq, int m, const int *eu, const int *ev, int npairs, const int *pairs,
                   int mode, int nvals, const int *vals, double seconds,
                   int *out_val, int *out_conf, long long *out_nodes)
{
    if (!in_range(nq, eu, m) || !in_range(nq, ev, m) || !in_range(m, pairs, 2 * npairs))
        return NC_BADINDEX;
    size_t total = 10 * (size_t)m + 4 * (size_t)nq + (size_t)npairs + (size_t)nvals + 7;
    int *block = calloc(total, sizeof(int));
    Step *steps = malloc(((size_t)m + 1) * sizeof(Step));
    if (block == NULL || steps == NULL) {
        free(block);
        free(steps);
        return NC_NOMEM;
    }
    /* "first" is "min" that admits no conflict and stops at its first flow */
    int bound = mode == MODE_FIRST ? 1 : npairs + 1;
    FlowState s = {.nq = nq, .m = m, .npairs = npairs, .mode = mode, .nvals = nvals, .eu = eu,
                   .ev = ev, .pairs = pairs, .vals = vals, .steps = steps, .best_val = out_val,
                   .best_conf = bound, .deadline = deadline_in(seconds)};
    int *p = block;
    int *order = p;
    p += m;
    s.val = p, p += m;
    s.partner_off = p, p += m + 1;
    s.partner_dat = p, p += npairs;
    s.sym_skip = p, p += nvals;
    s.acc = p, p += nq;
    s.depth_of = p, p += m;
    s.last = p, p += nq;
    s.inc_off = p, p += nq + 1;
    s.inc_dat = p, p += 2 * m;
    s.next = p, p += m + 1;
    s.conf = p, p += m + 1;
    s.sym = p, p += m + 1;
    int *fail_first = p; /* the vertices by (edges, id), counted out */
    p += nq;
    int *by_edges = p; /* m + 2 ints */
    incidence(nq, m, eu, ev, 1, s.inc_off, s.inc_dat);

    for (int w = 0; w < nq; w++)
        by_edges[s.inc_off[w + 1] - s.inc_off[w] + 1]++;
    offsets(by_edges, m + 1);
    for (int w = 0; w < nq; w++)
        fail_first[by_edges[s.inc_off[w + 1] - s.inc_off[w]]++] = w;

    /* the symmetry is broken only when vals is closed under the swap */
    int sym = 1;
    for (int i = 0; i < nvals; i++) {
        int j = index_of(vals, nvals, swap_alpha_beta(vals[i]));
        sym &= j < nvals;
        s.sym_skip[i] = j < i;
    }

    edge_order(&s, fail_first, order);
    flow_setup(&s, order);
    int done = flow_walk(&s, sym);
    free(block);
    free(steps);
    *out_nodes = s.nodes;
    if (done == TIMED_OUT)
        return NC_TIMEOUT;
    *out_conf = s.best_conf;
    return s.best_conf < bound ? NC_FOUND : NC_EXHAUSTED;
}

/* ---- normal edge-coloring search ------------------------------------ */

/* A set of colors, 64 to a word: color c is bit c % 64 of word c / 64. */
typedef unsigned long long Mask;

typedef struct {
    int m, k, words;
    const int *eu, *ev;
    int *order, *color, *adj_off, *adj_dat, *closed_uncolored, *last, *next, *maxused;
    Mask *pal, *palette;
    long long nodes;
    double deadline;
} ColorState;

static int popcount(Mask x)
{
    int count = 0;
    for (; x; x &= x - 1)
        count++;
    return count;
}

/* The colors on the colored edges at v. */
static Mask *pal_at(const ColorState *s, int v)
{
    return s->pal + (size_t)v * (size_t)s->words;
}

/* The number of colors on the closed star of e: the union of the colors
   at its ends. */
static int star_colors(const ColorState *s, int e)
{
    const Mask *a = pal_at(s, s->eu[e]), *b = pal_at(s, s->ev[e]);
    int count = 0;
    for (int w = 0; w < s->words; w++)
        count += popcount(a[w] | b[w]);
    return count;
}

/* The look-ahead for an edge g whose closed star has one uncolored edge
   left, f = last[g]: 1 when some color b in 1..k free at both ends of f
   leaves g normal.  With S the colors on g's star, b in S keeps |S|
   colors and b outside S makes |S| + 1, and g is abnormal when that is 4,
   so g can stay normal iff (S & free and |S| != 4) or (free & ~S and
   |S| != 3). */
static int star_can_be_normal(const ColorState *s, int g)
{
    int f = s->last[g];
    const Mask *a = pal_at(s, s->eu[g]), *b = pal_at(s, s->ev[g]);
    const Mask *x = pal_at(s, s->eu[f]), *y = pal_at(s, s->ev[f]);
    Mask inside = 0, outside = 0;
    int size = 0;
    for (int w = 0; w < s->words; w++) {
        Mask seen = a[w] | b[w], free = s->palette[w] & ~(x[w] | y[w]);
        size += popcount(seen);
        inside |= free & seen;
        outside |= free & ~seen;
    }
    return (inside && size != 4) || (outside && size != 3);
}

/* 0 when the closed star of g, whose count has just dropped, is fully
   colored and abnormal, or has one uncolored edge left and no color for
   it keeps g normal; 1 otherwise. */
static int star_ok(const ColorState *s, int g)
{
    int left = s->closed_uncolored[g];
    return left > 1 || (left == 1 ? star_can_be_normal(s, g) : star_colors(s, g) != 4);
}

/* Puts color c on e (put = 1) or takes it off again (put = 0): its bit
   at both ends, and the uncolored counts of e's closed star and of the
   closed stars e is on. */
static void paint(ColorState *s, int e, int c, int put)
{
    Mask bit = (Mask)1 << c % 64;
    Mask *pu = &pal_at(s, s->eu[e])[c / 64], *pv = &pal_at(s, s->ev[e])[c / 64];
    int step = put ? -1 : 1;
    *pu = put ? *pu | bit : *pu & ~bit;
    *pv = put ? *pv | bit : *pv & ~bit;
    s->closed_uncolored[e] += step;
    for (int i = s->adj_off[e]; i < s->adj_off[e + 1]; i++)
        s->closed_uncolored[s->adj_dat[i]] += step;
}

/* 1 once every edge is colored, TIMED_OUT on the deadline, 0 otherwise.
   The search walks the depths in a loop and keeps, per depth, the next
   color to try (next) and the highest color used above it (maxused), so
   its depth is bounded by memory, not by the stack.  Colors enter in
   increasing order (at most maxused + 1), and a color is free for e when
   it is in neither mask at e's ends.  closed_uncolored[g] counts the
   uncolored edges of g's closed star.  An edge whose star completes must
   see 3 or 5 colors (poor or rich).  An edge whose count drops to 1 is
   looked at one edge ahead (`star_can_be_normal`): the branch is cut
   when no color in 1..k that the last edge could still take leaves the
   edge normal.  The check reads all of 1..k, not only the colors up to
   maxused + 1 that canonical introduction lets the last edge take, and
   every color that the last edge takes later is free now, so it cuts
   only branches with no normal completion: the first coloring found is
   the same as without it, with fewer nodes.  It fires once per edge, on
   the drop to 1, at the depth where `_kernels_py` fires it, so node
   counts stay equal. */
static int color_walk(ColorState *s)
{
    int m = s->m, depth = 0;
    int *next = s->next, *maxused = s->maxused;
    next[0] = 1;
    maxused[0] = 0;
    while (depth < m) {
        int e = s->order[depth], c = next[depth]++;
        if (c > s->k || c > maxused[depth] + 1) { /* back to the depth above */
            if (depth == 0)
                return 0;
            depth--;
            paint(s, s->order[depth], s->color[s->order[depth]], 0);
            continue;
        }
        if (tick(&s->nodes, s->deadline))
            return TIMED_OUT;
        Mask used = pal_at(s, s->eu[e])[c / 64] | pal_at(s, s->ev[e])[c / 64];
        if (used & (Mask)1 << c % 64)
            continue;
        paint(s, e, c, 1);
        int ok = star_ok(s, e);
        for (int i = s->adj_off[e]; i < s->adj_off[e + 1] && ok; i++)
            ok = star_ok(s, s->adj_dat[i]);
        if (!ok) {
            paint(s, e, c, 0);
            continue;
        }
        s->color[e] = c;
        depth++;
        next[depth] = 1;
        maxused[depth] = maxused[depth - 1] > c ? maxused[depth - 1] : c;
    }
    return 1;
}

/* The closed-star order's heap: left[g] counts the uncolored edges of
   g's closed star, done[e] the stars e would complete (those whose only
   uncolored edge it is) and seen[e] e's colored adjacent edges;
   heap[0..len) holds the uncolored edges and pos[e] is e's index in it
   (-1 once colored). */
typedef struct {
    int *left, *done, *seen, *heap, *pos;
    int len;
} StarOrder;

/* Edge e comes before edge f: it completes more closed stars, or as many
   with more colored adjacent edges, or as many of both with a lower id. */
static int before(const StarOrder *h, int e, int f)
{
    if (h->done[e] != h->done[f])
        return h->done[e] > h->done[f];
    if (h->seen[e] != h->seen[f])
        return h->seen[e] > h->seen[f];
    return e < f;
}

static void heap_put(StarOrder *h, int i, int e)
{
    h->heap[i] = e;
    h->pos[e] = i;
}

/* Moves the entry at i up past every parent it comes before. */
static void heap_up(StarOrder *h, int i)
{
    int e = h->heap[i];
    for (; i > 0 && before(h, e, h->heap[(i - 1) / 2]); i = (i - 1) / 2)
        heap_put(h, i, h->heap[(i - 1) / 2]);
    heap_put(h, i, e);
}

/* Moves the entry at i down below every child that comes before it. */
static void heap_down(StarOrder *h, int i)
{
    int e = h->heap[i];
    for (;;) {
        int c = 2 * i + 1;
        if (c + 1 < h->len && before(h, h->heap[c + 1], h->heap[c]))
            c++;
        if (c >= h->len || !before(h, h->heap[c], e))
            break;
        heap_put(h, i, h->heap[c]);
        i = c;
    }
    heap_put(h, i, e);
}

/* One more star that edge f, still uncolored, would complete, or one more
   colored edge next to it: its keys only grow, so it only moves up. */
static void heap_raise(StarOrder *h, int *key, int f)
{
    key[f]++;
    heap_up(h, h->pos[f]);
}

/* Fills s->order with the edges in the order of `_kernels_py.
   _coloring_steps`: next the uncolored edge completing the most closed
   stars, then the one with the most colored adjacent edges, then the
   lowest id.  An indexed heap whose keys only grow gives the sequence of
   the Python twin's lazy heap in O(m log m).  work holds 5m ints. */
static void closed_star_order(const ColorState *s, int *work)
{
    int m = s->m;
    StarOrder h = {work, work + m, work + 2 * (size_t)m, work + 3 * (size_t)m, work + 4 * (size_t)m, m};
    for (int e = 0; e < m; e++) {
        h.left[e] = s->adj_off[e + 1] - s->adj_off[e] + 1;
        h.done[e] = h.left[e] == 1;
        h.seen[e] = 0;
        heap_put(&h, e, e);
    }
    for (int i = m / 2 - 1; i >= 0; i--)
        heap_down(&h, i);
    for (int d = 0; d < m; d++) {
        int e = h.heap[0];
        s->order[d] = e;
        h.pos[e] = -1;
        if (--h.len > 0) {
            heap_put(&h, 0, h.heap[h.len]);
            heap_down(&h, 0);
        }
        for (int i = s->adj_off[e]; i < s->adj_off[e + 1]; i++)
            if (h.pos[s->adj_dat[i]] >= 0)
                heap_raise(&h, h.seen, s->adj_dat[i]);
        /* the closed stars holding e: e's own and its neighbours' */
        for (int i = s->adj_off[e] - 1; i < s->adj_off[e + 1]; i++) {
            int g = i < s->adj_off[e] ? e : s->adj_dat[i];
            if (--h.left[g] != 1)
                continue;
            int f = g; /* the star's last uncolored edge */
            for (int j = s->adj_off[g]; h.pos[f] < 0; j++)
                f = s->adj_dat[j];
            heap_raise(&h, h.done, f);
        }
    }
}

/* Normal edge-colorings of the loop-free graph on n vertices with edges
   eu[i]-ev[i], at the npal palettes (numbers of colors) in turn, up to
   the first that admits one.  The incidence, adjacency, order and
   look-ahead tables are built once, as none depends on the palette; only
   the masks are reset between palettes.  Edges are colored in
   `closed_star_order`.  On NC_FOUND the colors (1..that palette) are in
   out_color.  *out_searched counts the palettes searched and out_nodes[i]
   holds palette i's nodes, on NC_FOUND and NC_EXHAUSTED; the deadline is
   read before each palette as well as every DEADLINE_STRIDE nodes.  The
   masks hold colors 1..min(k, m + 1): no search uses a color above m, so
   color m + 1 stands for every unused color above it in the
   look-ahead. */
int nc_normal_coloring_search(int n, int m, const int *eu, const int *ev, int npal, const int *palettes,
                              double seconds, int *out_color, long long *out_nodes, int *out_searched)
{
    if (!in_range(n, eu, m) || !in_range(n, ev, m))
        return NC_BADINDEX;
    int widest = 1; /* words of the widest palette */
    for (int i = 0; i < npal; i++) {
        int colors = palettes[i] < m + 1 ? palettes[i] : m + 1;
        if (colors > 0 && colors / 64 + 1 > widest)
            widest = colors / 64 + 1;
    }
    int *block = calloc(14 * (size_t)m + 3 + (size_t)n + 1, sizeof(int));
    Mask *masks = calloc(((size_t)n + 1) * (size_t)widest, sizeof(Mask));
    if (block == NULL || masks == NULL) {
        free(block);
        free(masks);
        return NC_NOMEM;
    }
    ColorState s = {.m = m, .eu = eu, .ev = ev, .deadline = deadline_in(seconds)};
    int *p = block;
    s.order = p, p += m;
    s.closed_uncolored = p, p += m;
    s.last = p, p += m;
    s.next = p, p += m + 1;
    s.maxused = p, p += m + 1;
    int *mark = p;
    p += m;
    s.adj_off = p, p += m + 1;
    int *inc_off = p;
    p += n + 1;
    int *inc_dat = p;
    p += 2 * (size_t)m;
    int *work = p;
    s.color = out_color;
    incidence(n, m, eu, ev, 0, inc_off, inc_dat);

    /* edges sharing an endpoint with e: e excluded, parallel edges once */
    size_t adj_size = 1;
    for (int e = 0; e < m; e++)
        adj_size += (size_t)(inc_off[eu[e] + 1] - inc_off[eu[e]] + inc_off[ev[e] + 1] - inc_off[ev[e]]);
    s.adj_dat = malloc(adj_size * sizeof(int));
    if (s.adj_dat == NULL) {
        free(block);
        free(masks);
        return NC_NOMEM;
    }
    for (int e = 0; e < m; e++)
        mark[e] = -1;
    for (int e = 0, len = 0; e < m; e++) {
        s.adj_off[e] = len;
        int ends[2] = {eu[e], ev[e]};
        for (int a = 0; a < 2; a++)
            for (int i = inc_off[ends[a]]; i < inc_off[ends[a] + 1]; i++) {
                int f = inc_dat[i];
                if (f != e && mark[f] != e) {
                    mark[f] = e;
                    s.adj_dat[len++] = f;
                }
            }
        s.adj_off[e + 1] = len;
        s.closed_uncolored[e] = len - s.adj_off[e] + 1;
    }
    closed_star_order(&s, work);

    /* last[e]: the edge of e's closed star colored last (mark now holds
       each edge's depth), the one left when the star's count is 1 */
    for (int d = 0; d < m; d++)
        mark[s.order[d]] = d;
    for (int e = 0; e < m; e++) {
        s.last[e] = e;
        for (int i = s.adj_off[e]; i < s.adj_off[e + 1]; i++)
            if (mark[s.adj_dat[i]] > mark[s.last[e]])
                s.last[e] = s.adj_dat[i];
    }

    int done = 0;
    *out_searched = 0;
    for (int i = 0; i < npal && !done; i++) {
        if (s.deadline >= 0 && now() > s.deadline) {
            done = TIMED_OUT;
            break;
        }
        int colors = palettes[i] < m + 1 ? palettes[i] : m + 1;
        s.k = palettes[i];
        s.words = colors > 0 ? colors / 64 + 1 : 1;
        s.palette = masks;
        s.pal = masks + s.words;
        s.nodes = 0;
        /* an exhausted search leaves no color on, but the masks' layout
           follows the palette's words */
        memset(masks, 0, ((size_t)n + 1) * (size_t)widest * sizeof(Mask));
        for (int c = 1; c <= colors; c++) /* colors 1..colors, in the palette's words */
            s.palette[c / 64] |= (Mask)1 << c % 64;
        done = color_walk(&s);
        out_nodes[i] = s.nodes;
        *out_searched = i + 1;
    }
    free(s.adj_dat);
    free(block);
    free(masks);
    return done == TIMED_OUT ? NC_TIMEOUT : done ? NC_FOUND : NC_EXHAUSTED;
}

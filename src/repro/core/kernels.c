/* The packed engines' query stages, compiled through cffi by
 * repro/core/kernels.py.
 *
 * isl_bidijkstra is Algorithm 1's Stage 2 (label-seeded bidirectional
 * Dijkstra over the CSR G_k), a line-for-line port of
 * repro.core.query.csr_label_bidijkstra_reference:
 * the same stopping rule, the same mu updates on settle and on every
 * scanned edge, the same `candidate >= mu` prune and the same epoch-stamped
 * buffers.  Heap records are (int64 distance, int32 vertex) compared
 * lexicographically, which is the reference's `d * n + v` key order
 * without its overflow for large weights; since keys are unique up to
 * exact duplicates, the pop order (and so every work counter) is the
 * reference's.
 *
 * isl_table_query and isl_table_batch are the table mode of a whole query
 * (PackedEngineBase.staged and distances, when the engine keeps the
 * all-pairs G_k table): the Equation 1 merge, the seeds (label entries
 * lying in G_k, as dense ids) and Theorem 4's reduction
 * min(mu0, min (table[a,b] + d_a) + d_b), summed in float64 in numpy's
 * order.  They read the lazily filled table but never fill it: a missing
 * row goes back to Python.  A label reaches them as a span (offset,
 * length) of a registered isl_labels backing, the anc/dist pair a label
 * table keeps, so a query passes integers, not buffers.
 *
 * No Python object is touched here: cffi releases the GIL for every call,
 * so one isl_scratch must never be shared by two threads at once.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t d;
    int32_t v;
} isl_rec;

typedef struct {
    isl_rec *items;
    int64_t len;
    int64_t cap;
} isl_heap;

typedef struct isl_scratch {
    uint64_t epoch;
    int64_t cap;           /* vertex slots in every per-vertex buffer */
    int64_t *dist[2];      /* [0] forward, [1] reverse */
    uint64_t *seen[2];     /* dist[x][v] is live iff seen[x][v] == epoch */
    uint64_t *done[2];     /* settled iff done[x][v] == epoch */
    isl_heap heap[2];
    int64_t seed_cap;      /* slots in each table-mode seed buffer */
    int64_t *seed_v[2];    /* [0] forward, [1] reverse dense seed ids */
    double *seed_d[2];     /* their label distances, as float64 */
} isl_scratch;

isl_scratch *isl_scratch_new(void)
{
    return (isl_scratch *)calloc(1, sizeof(isl_scratch));
}

void isl_scratch_free(isl_scratch *s)
{
    if (s == NULL)
        return;
    for (int x = 0; x < 2; x++) {
        free(s->dist[x]);
        free(s->seen[x]);
        free(s->done[x]);
        free(s->heap[x].items);
        free(s->seed_v[x]);
        free(s->seed_d[x]);
    }
    free(s);
}

static int grow(void **buf, int64_t old_n, int64_t new_n, size_t size, int zero)
{
    void *p = realloc(*buf, (size_t)new_n * size);
    if (p == NULL)
        return -1;
    if (zero)
        memset((char *)p + (size_t)old_n * size, 0, (size_t)(new_n - old_n) * size);
    *buf = p;
    return 0;
}

static int reserve(isl_scratch *s, int64_t n)
{
    if (n <= s->cap)
        return 0;
    for (int x = 0; x < 2; x++) {
        /* New stamps start at 0, which no epoch (>= 1) ever equals. */
        if (grow((void **)&s->dist[x], s->cap, n, sizeof(int64_t), 0)
            || grow((void **)&s->seen[x], s->cap, n, sizeof(uint64_t), 1)
            || grow((void **)&s->done[x], s->cap, n, sizeof(uint64_t), 1))
            return -1;
    }
    s->cap = n;
    return 0;
}

static inline int rec_less(isl_rec a, isl_rec b)
{
    return a.d < b.d || (a.d == b.d && a.v < b.v);
}

static int heap_push(isl_heap *h, int64_t d, int32_t v)
{
    if (h->len == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 256;
        isl_rec *p = (isl_rec *)realloc(h->items, (size_t)cap * sizeof(isl_rec));
        if (p == NULL)
            return -1;
        h->items = p;
        h->cap = cap;
    }
    isl_rec r = {d, v};
    int64_t i = h->len++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!rec_less(r, h->items[parent]))
            break;
        h->items[i] = h->items[parent];
        i = parent;
    }
    h->items[i] = r;
    return 0;
}

static isl_rec heap_pop(isl_heap *h)
{
    isl_rec top = h->items[0];
    isl_rec last = h->items[--h->len];
    int64_t n = h->len, i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && rec_less(h->items[c + 1], h->items[c]))
            c++;
        if (!rec_less(h->items[c], last))
            break;
        h->items[i] = h->items[c];
        i = c;
    }
    if (n > 0)
        h->items[i] = last;
    return top;
}

/* Returns 0, -1 when out of memory, or -2 when a seed id is outside
 * 0..n-1 (the CSR arrays are validated by the caller).  out[] receives
 * {mu, meet, settled_forward, settled_reverse, relaxed_edges, heap_pushes};
 * mu starts at initial_mu (INT64_MAX stands for "no bound") and meet at -1.
 */
int isl_bidijkstra(
    isl_scratch *s, int64_t n,
    const int64_t *indptr, const int64_t *indices, const int64_t *weights,
    const int64_t *indptr_r, const int64_t *indices_r, const int64_t *weights_r,
    const int64_t *seed_fv, const int64_t *seed_fd, int64_t n_seed_f,
    const int64_t *seed_rv, const int64_t *seed_rd, int64_t n_seed_r,
    int64_t initial_mu, int64_t *out)
{
    if (reserve(s, n))
        return -1;
    const uint64_t ep = ++s->epoch;
    const int64_t *ptr[2] = {indptr, indptr_r};
    const int64_t *idx[2] = {indices, indices_r};
    const int64_t *wts[2] = {weights, weights_r};
    const int64_t *seed_v[2] = {seed_fv, seed_rv};
    const int64_t *seed_d[2] = {seed_fd, seed_rd};
    const int64_t n_seed[2] = {n_seed_f, n_seed_r};
    isl_heap *heap = s->heap;
    int64_t settled[2] = {0, 0};
    int64_t relaxed = 0, pushes = 0;
    int64_t mu = initial_mu, meet = -1;

    for (int x = 0; x < 2; x++) {
        heap[x].len = 0;
        for (int64_t i = 0; i < n_seed[x]; i++) {
            int64_t v = seed_v[x][i], d = seed_d[x][i];
            if (v < 0 || v >= n)
                return -2;
            s->dist[x][v] = d;
            s->seen[x][v] = ep;
            if (heap_push(&heap[x], d, (int32_t)v))
                return -1;
        }
    }

    for (;;) {
        for (int x = 0; x < 2; x++)
            while (heap[x].len && s->done[x][heap[x].items[0].v] == ep)
                heap_pop(&heap[x]);
        /* Line 8's prune; an exhausted queue's minimum is infinite. */
        if (!heap[0].len || !heap[1].len)
            break;
        int64_t min_f = heap[0].items[0].d, min_r = heap[1].items[0].d;
        if (min_f >= mu - min_r)
            break;

        const int x = min_f <= min_r ? 0 : 1, o = 1 - x;
        int64_t *dist_x = s->dist[x], *dist_o = s->dist[o];
        uint64_t *seen_x = s->seen[x], *seen_o = s->seen[o], *done_x = s->done[x];
        isl_rec top = heap_pop(&heap[x]);
        const int64_t d = top.d, v = top.v;
        done_x[v] = ep;
        settled[x]++;

        if (seen_o[v] == ep && d + dist_o[v] < mu) {
            mu = d + dist_o[v];
            meet = v;
        }

        for (int64_t p = ptr[x][v]; p < ptr[x][v + 1]; p++) {
            relaxed++;
            const int64_t u = idx[x][p];
            if (done_x[u] == ep)
                continue;
            const int64_t candidate = d + wts[x][p];
            if (candidate >= mu)
                continue;
            if (seen_x[u] != ep || candidate < dist_x[u]) {
                dist_x[u] = candidate;
                seen_x[u] = ep;
                if (heap_push(&heap[x], candidate, (int32_t)u))
                    return -1;
                pushes++;
            }
            if (seen_o[u] == ep && dist_x[u] + dist_o[u] < mu) {
                mu = dist_x[u] + dist_o[u];
                meet = u;
            }
        }
    }

    out[0] = mu;
    out[1] = meet;
    out[2] = settled[0];
    out[3] = settled[1];
    out[4] = relaxed;
    out[5] = pushes;
    return 0;
}

/* ---------------------------------------------------------------------
 * Table mode: Equation 1, seeds and the G_k table in one call
 * ------------------------------------------------------------------- */

/* A label table's backing pair, registered once by kernels.py: label
 * entries anc[i]/dist[i] for 0 <= i < len, each label a contiguous span. */
typedef struct {
    const int64_t *anc;
    const int64_t *dist;
    int64_t len;
} isl_labels;

/* The G_k side of the table stage, checked and wrapped once per thread
 * and array set by kernels.py: the n sorted G_k ids (dense id = rank),
 * the lazily filled n x n table and its row flags. */
typedef struct {
    int64_t n;
    const int64_t *ids;
    const double *table;
    const uint8_t *done;
} isl_gk;

static const int64_t zero_dist = 0;

/* Entries *off .. *off + len of a registered backing.  A NULL backing
 * stands for the implicit one-entry label {(*off, 0)} of a vertex the
 * table holds no label for, so its ancestor array is *off itself.
 * Returns 0, or -3 when the span does not lie inside the backing. */
static int slice(const isl_labels *lab, const int64_t *off, int64_t len,
                 const int64_t **anc, const int64_t **dist)
{
    if (lab == NULL) {
        *anc = off;
        *dist = &zero_dist;
        return len == 1 ? 0 : -3;
    }
    if (*off < 0 || len < 0 || *off > lab->len - len)
        return -3;
    *anc = lab->anc + *off;
    *dist = lab->dist + *off;
    return 0;
}

/* Equation 1 over two labels sorted by ancestor: the least d_s + d_t over
 * common ancestors, INT64_MAX when there is none. */
static int64_t eq1(const int64_t *anc_s, const int64_t *dist_s, int64_t len_s,
                   const int64_t *anc_t, const int64_t *dist_t, int64_t len_t)
{
    int64_t best = INT64_MAX, i = 0, j = 0;
    while (i < len_s && j < len_t) {
        if (anc_s[i] < anc_t[j]) {
            i++;
        } else if (anc_s[i] > anc_t[j]) {
            j++;
        } else {
            const int64_t sum = dist_s[i++] + dist_t[j++];
            if (sum < best)
                best = sum;
        }
    }
    return best;
}

/* The label's entries whose ancestor lies in G_k: dense id = rank in the
 * sorted ids[0..n), the rule the engines' freeze applies, so the seeds
 * and their order are the pre-extracted ones.  Returns their count. */
static int64_t seeds_of(const int64_t *ids, int64_t n,
                        const int64_t *anc, const int64_t *dist, int64_t len,
                        int64_t *seed_v, double *seed_d)
{
    int64_t k = 0;
    if (n == 0)
        return 0;
    for (int64_t i = 0; i < len; i++) {
        /* Branch-free lower bound: the selects compile to conditional
         * moves, so a search costs no mispredicted branches. */
        const int64_t a = anc[i];
        const int64_t *base = ids;
        int64_t m = n;
        while (m > 1) {
            const int64_t half = m >> 1;
            base = base[half - 1] < a ? base + half : base;
            m -= half;
        }
        base += *base < a;
        const int64_t pos = base - ids;
        if (pos < n && ids[pos] == a) {
            seed_v[k] = pos;
            seed_d[k] = (double)dist[i];
            k++;
        }
    }
    return k;
}

static int reserve_seeds(isl_scratch *s, int64_t n)
{
    if (n <= s->seed_cap)
        return 0;
    for (int x = 0; x < 2; x++)
        if (grow((void **)&s->seed_v[x], s->seed_cap, n, sizeof(int64_t), 0)
            || grow((void **)&s->seed_d[x], s->seed_cap, n, sizeof(double), 0))
            return -1;
    s->seed_cap = n;
    return 0;
}

/* Rows are filled in Python while a kernel may run on another thread:
 * the filler writes the row, then isl_mark_done's release store sets the
 * flag; a kernel reads a row only after an acquire load saw its flag. */
void isl_mark_done(uint8_t *done, int64_t a)
{
    __atomic_store_n(&done[a], 1, __ATOMIC_RELEASE);
}

static inline int row_done(const uint8_t *done, int64_t a)
{
    return __atomic_load_n(&done[a], __ATOMIC_ACQUIRE);
}

/* First forward seed whose table row is not filled yet, or -1. */
static int64_t missing_row(const uint8_t *done, const int64_t *seed_v, int64_t nf)
{
    for (int64_t i = 0; i < nf; i++)
        if (!row_done(done, seed_v[i]))
            return seed_v[i];
    return -1;
}

/* min over seed pairs of (table[a,b] + d_a) + d_b, added in numpy's order
 * for table[np.ix_(A, B)] + d_A[:, None] + d_B[None, :]. */
static double reduce(const isl_scratch *s, const double *table, int64_t n,
                     int64_t nf, int64_t nr)
{
    double best = INFINITY;
    for (int64_t i = 0; i < nf; i++) {
        const double *row = table + s->seed_v[0][i] * n;
        const double da = s->seed_d[0][i];
        for (int64_t j = 0; j < nr; j++) {
            const double v = (row[s->seed_v[1][j]] + da) + s->seed_d[1][j];
            if (v < best)
                best = v;
        }
    }
    return best;
}

/* One query over the spans (off_s, len_s) of lab_s and (off_t, len_t) of
 * lab_t.  Returns -1 when out of memory, -3 for a span outside its
 * backing, else a status:
 *   0  a side has no seed: the answer is Equation 1 alone, out[0];
 *   1  searched, and the table did not beat Equation 1: the answer is out[0];
 *   2  searched, and the table beat it: the answer is *best;
 *   3  table row out[1] is not filled yet (fill it and call again).
 * out[0] is Equation 1 (INT64_MAX: no common ancestor).  "Beat" compares
 * the float64 minimum with the int64 bound exactly. */
int isl_table_query(
    isl_scratch *s, const isl_gk *gk,
    const isl_labels *lab_s, int64_t off_s, int64_t len_s,
    const isl_labels *lab_t, int64_t off_t, int64_t len_t,
    int64_t *out, double *best)
{
    const int64_t n = gk->n, *ids = gk->ids;
    const double *table = gk->table;
    const uint8_t *done = gk->done;
    const int64_t *anc_s, *dist_s, *anc_t, *dist_t;
    if (slice(lab_s, &off_s, len_s, &anc_s, &dist_s)
        || slice(lab_t, &off_t, len_t, &anc_t, &dist_t))
        return -3;
    const int64_t mu0 = eq1(anc_s, dist_s, len_s, anc_t, dist_t, len_t);
    out[0] = mu0;
    if (reserve_seeds(s, len_s > len_t ? len_s : len_t))
        return -1;
    const int64_t nf = seeds_of(ids, n, anc_s, dist_s, len_s, s->seed_v[0], s->seed_d[0]);
    if (!nf)
        return 0;
    const int64_t nr = seeds_of(ids, n, anc_t, dist_t, len_t, s->seed_v[1], s->seed_d[1]);
    if (!nr)
        return 0;
    const int64_t row = missing_row(done, s->seed_v[0], nf);
    if (row >= 0) {
        out[1] = row;
        return 3;
    }
    const double b = reduce(s, table, n, nf, nr);
    *best = b;
    /* For an integer bound, b < mu0 iff floor(b) < mu0. */
    const int beats = mu0 == INT64_MAX
        ? b < INFINITY
        : b < 0x1p63 && (int64_t)floor(b) < mu0;
    return beats ? 2 : 1;
}

/* A batch of q queries: query i reads the span (off_s[i], len_s[i]) of
 * lab_s[i] and likewise for t, as isl_table_query does.
 * out[i] = min(table answer, (double)Equation 1), or (double)Equation 1
 * when a side has no seed (inf: no common ancestor) -- the float64
 * answers of repro.core.fastlabels.batch_table_stage.  Every forward seed
 * row not filled yet is written to missing[] (room for the sum of len_s
 * entries; repeats possible) and counted in *n_missing; when that count
 * is nonzero out[] is incomplete and the caller fills the rows and calls
 * again.  Returns 0, -1 when out of memory, or -3 for a span outside its
 * backing. */
int isl_table_batch(
    isl_scratch *s, const isl_gk *gk, int64_t q,
    isl_labels **lab_s, const int64_t *off_s, const int64_t *len_s,
    isl_labels **lab_t, const int64_t *off_t, const int64_t *len_t,
    double *out, int64_t *missing, int64_t *n_missing)
{
    const int64_t n = gk->n, *ids = gk->ids;
    const double *table = gk->table;
    const uint8_t *done = gk->done;
    int64_t k = 0;
    for (int64_t i = 0; i < q; i++) {
        const int64_t *anc_s, *dist_s, *anc_t, *dist_t;
        if (slice(lab_s[i], &off_s[i], len_s[i], &anc_s, &dist_s)
            || slice(lab_t[i], &off_t[i], len_t[i], &anc_t, &dist_t))
            return -3;
        const int64_t mu0 = eq1(anc_s, dist_s, len_s[i], anc_t, dist_t, len_t[i]);
        const double bound = mu0 == INT64_MAX ? INFINITY : (double)mu0;
        out[i] = bound;
        if (reserve_seeds(s, len_s[i] > len_t[i] ? len_s[i] : len_t[i]))
            return -1;
        const int64_t nf = seeds_of(ids, n, anc_s, dist_s, len_s[i],
                                    s->seed_v[0], s->seed_d[0]);
        if (!nf)
            continue;
        const int64_t nr = seeds_of(ids, n, anc_t, dist_t, len_t[i],
                                    s->seed_v[1], s->seed_d[1]);
        if (!nr)
            continue;
        for (int64_t j = 0; j < nf; j++)
            if (!row_done(done, s->seed_v[0][j]))
                missing[k++] = s->seed_v[0][j];
        if (k)  /* this batch goes round again: skip the reductions */
            continue;
        const double b = reduce(s, table, n, nf, nr);
        if (b < bound)
            out[i] = b;
    }
    *n_missing = k;
    return 0;
}

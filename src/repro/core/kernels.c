/* The packed engines' query path, compiled through cffi by
 * repro/core/kernels.py.
 *
 * isl_query answers one query of a packed engine from two vertex ids, and
 * isl_query_batch a whole batch from two vertex arrays.  Each endpoint's
 * label is found by binary search over the engine's registered label
 * directories (a snapshot-layout table: sorted vertex ids, label bounds,
 * the anc/dist entries and the pre-extracted G_k seeds); a vertex no
 * directory holds carries the implicit one-entry label {(v, 0)}.  Then:
 *
 *   - Equation 1, a two-pointer merge of the two sorted labels (mu0);
 *   - table mode (the engine keeps the all-pairs G_k table): each side's
 *     seeds as dense ids, by binary search over the sorted G_k ids, and
 *     Theorem 4's reduction min(mu0, min (table[a,b] + d_a) + d_b), summed
 *     in float64 in numpy's order.  The table is filled lazily in Python:
 *     a missing row goes back to the caller;
 *   - CSR mode: Algorithm 1's Stage 2 from the directories' seeds, a
 *     label-seeded bidirectional Dijkstra over the CSR G_k.
 *
 * The search is a line-for-line port of
 * repro.core.query.csr_label_bidijkstra_reference: the same stopping rule,
 * the same mu updates on settle and on every scanned edge, the same
 * `candidate >= mu` prune and the same epoch-stamped buffers.  Heap
 * records are (int64 distance, int32 vertex) compared lexicographically,
 * which is the reference's `d * n + v` key order without its overflow for
 * large weights; since keys are unique up to exact duplicates, the pop
 * order (and so every work counter) is the reference's.  isl_bidijkstra
 * exposes it over caller-supplied arrays.
 *
 * No Python object is touched here: cffi releases the GIL for every call,
 * so one isl_scratch must never be shared by two threads at once.  The
 * records are read-only here; kernels.py checks every array they point to
 * when it registers them.
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
    int64_t cell[2];       /* an implicit label's one ancestor, per side */
    int64_t seed_cell[2];  /* and its one seed */
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

/* Algorithm 1's Stage 2 over the CSR arrays csr[0..2] (forward) and
 * csr[3..5] (reverse) of n vertices.  Returns 0, -1 when out of memory, or
 * -2 when a seed id is outside 0..n-1.  out[] receives {mu, meet,
 * settled_forward, settled_reverse, relaxed_edges, heap_pushes}; mu starts
 * at initial_mu (INT64_MAX stands for "no bound") and meet at -1. */
static int search(isl_scratch *s, int64_t n, const int64_t *const *csr,
                  const int64_t *const *seed_v, const int64_t *const *seed_d,
                  const int64_t *n_seed, int64_t initial_mu, int64_t *out)
{
    if (reserve(s, n))
        return -1;
    const uint64_t ep = ++s->epoch;
    const int64_t *ptr[2] = {csr[0], csr[3]};
    const int64_t *idx[2] = {csr[1], csr[4]};
    const int64_t *wts[2] = {csr[2], csr[5]};
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

/* The search over caller-supplied arrays (the CSR arrays are validated by
 * the caller); returns as search() does. */
int isl_bidijkstra(
    isl_scratch *s, int64_t n,
    const int64_t *indptr, const int64_t *indices, const int64_t *weights,
    const int64_t *indptr_r, const int64_t *indices_r, const int64_t *weights_r,
    const int64_t *seed_fv, const int64_t *seed_fd, int64_t n_seed_f,
    const int64_t *seed_rv, const int64_t *seed_rd, int64_t n_seed_r,
    int64_t initial_mu, int64_t *out)
{
    const int64_t *csr[6] = {indptr, indices, weights, indptr_r, indices_r, weights_r};
    const int64_t *seed_v[2] = {seed_fv, seed_rv};
    const int64_t *seed_d[2] = {seed_fd, seed_rd};
    const int64_t n_seed[2] = {n_seed_f, n_seed_r};
    return search(s, n, csr, seed_v, seed_d, n_seed, initial_mu, out);
}

/* ---------------------------------------------------------------------
 * Label directories and the engine record
 * ------------------------------------------------------------------- */

/* One registered directory: the n sorted vertex ids keys[] carrying a
 * label, label i being anc/dist[indptr[i] .. indptr[i+1]) and its seeds
 * seed_ids/seed_dists[seed_indptr[i] .. seed_indptr[i+1]).  An override
 * directory also has dead[]: dead[i] marks keys[i] deleted. */
typedef struct {
    int64_t n;
    const int64_t *keys;
    const int64_t *indptr;
    const int64_t *anc;
    const int64_t *dist;
    const int64_t *seed_indptr;
    const int64_t *seed_ids;
    const int64_t *seed_dists;
    const uint8_t *dead;
} isl_dir;

/* One label table: vertex v belongs to the shard whose start is the
 * rightmost one <= v (shard 0 below every start), and a shard is looked
 * up in its override directory (NULL: none) before its base one (NULL:
 * the shard is not open yet). */
typedef struct {
    int64_t n_shards;
    const int64_t *starts;
    const isl_dir **over;
    const isl_dir **base;
} isl_labels;

/* One packed engine: the label tables a source and a target read, the n
 * sorted G_k ids (dense id = rank), then the lazily filled n x n table and
 * its row flags (table mode) or, with table == NULL, the CSR arrays. */
typedef struct {
    const isl_labels *labels[2];
    int64_t n;
    const int64_t *ids;
    const double *table;
    const uint8_t *done;
    const int64_t *csr[6];
} isl_engine;

typedef struct {
    const int64_t *anc, *dist;
    int64_t len;
    const int64_t *seed_v, *seed_d;
    int64_t n_seed;
} isl_label;

static const int64_t zero_dist = 0;

/* First position in the sorted a[0..n) whose value is not below x (or
 * <= x with upper set); branch-free, so the selects compile to
 * conditional moves and a search costs no mispredicted branches. */
static inline int64_t bound(const int64_t *a, int64_t n, int64_t x, int upper)
{
    if (n == 0)
        return 0;
    const int64_t *base = a;
    while (n > 1) {
        const int64_t half = n >> 1;
        const int64_t y = base[half - 1];
        base = (upper ? y <= x : y < x) ? base + half : base;
        n -= half;
    }
    return (base - a) + (upper ? *base <= x : *base < x);
}

/* Position of x in the sorted a[0..n), or -1. */
static inline int64_t position(const int64_t *a, int64_t n, int64_t x)
{
    const int64_t i = bound(a, n, x, 0);
    return i < n && a[i] == x ? i : -1;
}

static void take(const isl_dir *d, int64_t i, isl_label *out)
{
    const int64_t lo = d->indptr[i], slo = d->seed_indptr[i];
    out->anc = d->anc + lo;
    out->dist = d->dist + lo;
    out->len = d->indptr[i + 1] - lo;
    out->seed_v = d->seed_ids + slo;
    out->seed_d = d->seed_dists + slo;
    out->n_seed = d->seed_indptr[i + 1] - slo;
}

/* The label of vertex v on one side (0: source, 1: target).  Returns 0,
 * or 4 when v's shard is not open yet: info[0] = side, info[1] = shard. */
static int find(isl_scratch *s, const isl_engine *e, int side, int64_t v,
                isl_label *out, int64_t *info)
{
    const isl_labels *lab = e->labels[side];
    int64_t shard = 0, i;
    if (lab->n_shards > 1) {
        shard = bound(lab->starts, lab->n_shards, v, 1) - 1;
        if (shard < 0)
            shard = 0;
    }
    const isl_dir *d = lab->over[shard];
    if (d != NULL && (i = position(d->keys, d->n, v)) >= 0) {
        if (d->dead == NULL || !d->dead[i]) {
            take(d, i, out);
            return 0;
        }
    } else {
        d = lab->base[shard];
        if (d == NULL) {
            info[0] = side;
            info[1] = shard;
            return 4;
        }
        if ((i = position(d->keys, d->n, v)) >= 0) {
            take(d, i, out);
            return 0;
        }
    }
    /* Implicit: {(v, 0)}, seeded at v's dense id when v lies in G_k. */
    s->cell[side] = v;
    out->anc = &s->cell[side];
    out->dist = &zero_dist;
    out->len = 1;
    i = position(e->ids, e->n, v);
    s->seed_cell[side] = i;
    out->seed_v = &s->seed_cell[side];
    out->seed_d = &zero_dist;
    out->n_seed = i >= 0;
    return 0;
}

/* Equation 1 over two labels sorted by ancestor: the least d_s + d_t over
 * common ancestors, INT64_MAX when there is none. */
static int64_t eq1(const isl_label *a, const isl_label *b)
{
    int64_t best = INT64_MAX, i = 0, j = 0;
    while (i < a->len && j < b->len) {
        if (a->anc[i] < b->anc[j]) {
            i++;
        } else if (a->anc[i] > b->anc[j]) {
            j++;
        } else {
            const int64_t sum = a->dist[i++] + b->dist[j++];
            if (sum < best)
                best = sum;
        }
    }
    return best;
}

/* The label's entries whose ancestor lies in G_k: dense id = rank in the
 * sorted ids[0..n), the rule the engines' freeze applies, so the seeds
 * and their order are the pre-extracted ones.  Returns their count. */
static int64_t seeds_of(const int64_t *ids, int64_t n, const isl_label *lab,
                        int64_t *seed_v, double *seed_d)
{
    int64_t k = 0;
    for (int64_t i = 0; i < lab->len; i++) {
        const int64_t pos = position(ids, n, lab->anc[i]);
        if (pos >= 0) {
            seed_v[k] = pos;
            seed_d[k] = (double)lab->dist[i];
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

/* x as float64 would round it, back in int64 (INT64_MAX past its range). */
static inline int64_t via_double(int64_t x)
{
    const double d = (double)x;
    return d < 0x1p63 ? (int64_t)d : INT64_MAX;
}

/* One query; out[] has room for 6.  Returns a negative error (-1 out of
 * memory, -2 a seed outside G_k), or a status:
 *   0  not searched (src == dst, or a side has no seed): the answer is
 *      out[0], Equation 1 (INT64_MAX: no common ancestor);
 *   1  searched: the answer is out[0]; in CSR mode out[1..5] are the
 *      search's meet and counters (search() above);
 *   3  a table row the query needs is not filled yet: out[1] names it, or
 *      with missing != NULL every such forward-seed row not marked yet is
 *      appended to missing[*n_missing++] (marked with s->epoch);
 *   4  a shard is not open yet: out[1] is the side, out[2] the shard.
 * rounded routes Equation 1 through float64 first, as the batch reference
 * (repro.core.fastlabels.batch_eq1) does.  "Beat" compares the float64
 * table minimum with the int64 bound exactly. */
static int one_query(isl_scratch *s, const isl_engine *e, int64_t src, int64_t dst,
                     int rounded, int64_t *out, int64_t *missing, int64_t *n_missing)
{
    out[0] = 0;
    if (src == dst)
        return 0;
    isl_label ls, lt;
    int status = find(s, e, 0, src, &ls, out + 1);
    if (!status)
        status = find(s, e, 1, dst, &lt, out + 1);
    if (status)
        return status;
    int64_t mu0 = eq1(&ls, &lt);
    if (rounded)
        mu0 = via_double(mu0);
    out[0] = mu0;
    if (e->table == NULL) {
        if (!ls.n_seed || !lt.n_seed)
            return 0;
        const int64_t *seed_v[2] = {ls.seed_v, lt.seed_v};
        const int64_t *seed_d[2] = {ls.seed_d, lt.seed_d};
        const int64_t n_seed[2] = {ls.n_seed, lt.n_seed};
        status = search(s, e->n, e->csr, seed_v, seed_d, n_seed, mu0, out);
        return status ? status : 1;
    }
    const int64_t n = e->n;
    if (reserve_seeds(s, ls.len > lt.len ? ls.len : lt.len))
        return -1;
    const int64_t nf = seeds_of(e->ids, n, &ls, s->seed_v[0], s->seed_d[0]);
    if (!nf)
        return 0;
    const int64_t nr = seeds_of(e->ids, n, &lt, s->seed_v[1], s->seed_d[1]);
    if (!nr)
        return 0;
    for (int64_t i = 0; i < nf; i++) {
        const int64_t a = s->seed_v[0][i];
        if (row_done(e->done, a))
            continue;
        if (missing == NULL) {
            out[1] = a;
            return 3;
        }
        if (s->seen[0][a] != s->epoch) {
            s->seen[0][a] = s->epoch;
            missing[(*n_missing)++] = a;
        }
    }
    if (missing != NULL && *n_missing)  /* the batch goes round again */
        return 3;
    const double b = reduce(s, e->table, n, nf, nr);
    const int beats = b < 0x1p63 && (mu0 == INT64_MAX || (int64_t)floor(b) < mu0);
    if (beats)
        out[0] = (int64_t)b;
    return 1;
}

/* One query from two vertex ids; out[] has room for 6.  See one_query. */
int isl_query(isl_scratch *s, const isl_engine *e, int64_t src, int64_t dst, int64_t *out)
{
    return one_query(s, e, src, dst, 0, out, NULL, NULL);
}

/* q queries src[i] -> dst[i]; answers to out[i] (INT64_MAX: unreachable).
 * When more than one pair has src != dst, Equation 1 is routed through
 * float64 as the batch reference does.  Returns a negative error, or
 *   0  every answer is in out[];
 *   3  table rows are missing: missing[0 .. info[0]) names each once (room
 *      for e->n); out[] is incomplete, fill the rows and call again;
 *   4  a shard is not open yet: info[0] is the side, info[1] the shard. */
int isl_query_batch(isl_scratch *s, const isl_engine *e, int64_t q,
                    const int64_t *src, const int64_t *dst,
                    int64_t *out, int64_t *missing, int64_t *info)
{
    int64_t live = 0, k = 0, cell[6];
    for (int64_t i = 0; i < q; i++)
        live += src[i] != dst[i];
    if (e->table != NULL) {
        if (reserve(s, e->n))
            return -1;
        ++s->epoch;  /* a fresh mark for the missing rows */
    }
    for (int64_t i = 0; i < q; i++) {
        const int status = one_query(s, e, src[i], dst[i], live > 1, cell, missing, &k);
        if (status < 0)
            return status;
        if (status == 4) {
            info[0] = cell[1];
            info[1] = cell[2];
            return 4;
        }
        out[i] = cell[0];
    }
    info[0] = k;
    return k ? 3 : 0;
}

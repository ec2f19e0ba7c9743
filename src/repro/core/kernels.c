/* Algorithm 1's Stage 2 (label-seeded bidirectional Dijkstra over G_k)
 * for the packed engines, compiled through cffi by repro/core/kernels.py.
 *
 * A line-for-line port of repro.core.query.csr_label_bidijkstra_reference:
 * the same stopping rule, the same mu updates on settle and on every
 * scanned edge, the same `candidate >= mu` prune and the same epoch-stamped
 * buffers.  Heap records are (int64 distance, int32 vertex) compared
 * lexicographically, which is the reference's `d * n + v` key order
 * without its overflow for large weights; since keys are unique up to
 * exact duplicates, the pop order (and so every work counter) is the
 * reference's.
 *
 * No Python object is touched here: cffi releases the GIL for the call, so
 * one isl_scratch must never be shared by two threads at once.
 */
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

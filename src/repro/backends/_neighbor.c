/* C cell-list build behind repro.md.neighbor.NeighborList.
 *
 * Compiled into the same shared object as _tersoff.c.  It writes the
 * CSR list the numpy builder writes (_binned_pairs followed by the
 * stable sort on i in NeighborList.build), entry for entry, because the
 * kernels' bitwise guarantees rest on the order of a row (DESIGN.md
 * §12): rows ascending i; within a row the 27 cell shifts in (dx,dy,dz)
 * lexicographic order; within a cell ascending atom index.  The
 * arithmetic that decides membership is the oracle's too: cell =
 * (x - lo) / binsize truncated and clamped to [0, nbins-1], d -= L *
 * rint(d / L) on periodic axes, r^2 by DOT3_EINSUM, inclusive <= rlist^2.
 *
 * The binning is one serial pass, which also copies the positions into
 * cell order as three columns; the row fill runs over the threads of
 * _pool.c.  Neither the thread count nor who fills which rows moves an
 * entry: every chunk of rows writes into its own slice of the output and
 * records its row lengths, and a prefix sum and an in-order move of the
 * slices then leave the one-thread arrays.
 *
 * Nothing here is REAL-templated: positions, box and list radius are
 * f64 in every precision mode.
 */

#include <math.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#include "_common.h"
#include "_pool.h"

#define F64 double

#define NBR_NONFINITE 1 /* info[0] names the first atom with a non-finite position */

/* rows a chunk of a threaded fill holds; one thread fills every row as one */
#define NBR_ROWS_PER_CHUNK 64

/* geometry block `geo` (13 doubles, packed by NeighborList.build):
 * box lo, box lengths, bin size per axis, half lengths (+inf on
 * non-periodic axes), list radius squared */
enum { GEO_LO = 0, GEO_LEN = 3, GEO_BIN = 6, GEO_HALF = 9, GEO_R2 = 12 };

/* Bin `t` of a neighboring cell along one axis of `nb` bins: wrapped
 * (Python modulo) on a periodic axis, -1 past the edge of an open one. */
static inline int64_t shifted_bin(const int64_t t, const int64_t nb, const int32_t periodic)
{
    if (t >= 0 && t < nb) return t;
    if (!periodic) return -1;
    return t < 0 ? nb - 1 : 0;
}

/* One build, as the threads of its row fill see it. */
typedef struct {
    int64_t n;
    const double *x;
    const double *geo;
    const int64_t *nbins;
    const int32_t *periodic;
    int32_t full;
    const int64_t *cell;
    const int64_t *cell_start;
    const int32_t *order;
    const double *xs;     /* positions in cell order, three columns */
    const double *bounds; /* per cell: least x, y, z, then greatest */
    int64_t rows;     /* per chunk */
    int64_t n_chunks;
    int64_t per;      /* output slots per chunk; the last runs to the end */
    int64_t cap;
    int64_t *offsets; /* the fill leaves row i's length in offsets[i + 1] */
    int32_t *neighbors;
    _Alignas(POOL_CACHE_LINE) _Atomic int64_t next; /* chunk claims */
} nbr_job;

/* The candidates q .. end-1 of one cell against atom i at xi: every one
 * is stored at slot `count` and the count advances by the test, so the
 * ~1 in 8 accepts leave no branch to mispredict.  `room` is
 * only checked when the cell could run past it (slots past `room` are
 * counted, not written).  j == i is tested through `self`, which is i in
 * the atom's own cell and -1 elsewhere.  Without `wrap` the cell is known
 * to lie within L/2 of xi on every axis, where the minimum image moves
 * nothing. */
static inline __attribute__((always_inline)) int64_t nbr_cell(
    const nbr_job *job, const F64 *restrict xi, int64_t q, const int64_t end,
    const int32_t self, int32_t *restrict out, const int64_t room, int64_t count,
    const int guarded, const int wrap)
{
    const double *restrict geo = job->geo;
    const double *restrict cx = job->xs, *restrict cy = cx + job->n, *restrict cz = cy + job->n;
    const int32_t *restrict order = job->order;
    const F64 r2max = geo[GEO_R2];
    int32_t spill;
    for (; q < end; q++) {
        const int32_t j = order[q];
        F64 d[3] = {cx[q] - xi[0], cy[q] - xi[1], cz[q] - xi[2]};
        int c;
        for (c = 0; c < 3 && wrap; c++)
            /* where |d| <= L/2, rint(d/L) is exactly 0 */
            if (fabs(d[c]) > geo[GEO_HALF + c])
                d[c] -= geo[GEO_LEN + c] * rint(d[c] / geo[GEO_LEN + c]);
        const F64 r2 = DOT3_EINSUM(d[0] * d[0], d[1] * d[1], d[2] * d[2]);
        *(guarded && count >= room ? &spill : out + count) = j;
        count += (r2 <= r2max) & (j != self);
    }
    return count;
}

/* Row i into `out` from slot `count` on; returns the count after it.
 * Candidates come from the cell-ordered position columns, so a cell is
 * one contiguous run of each. */
static int64_t nbr_row(const nbr_job *job, const int64_t i, int32_t *restrict out,
                       const int64_t room, int64_t count)
{
    const F64 xi[3] = {job->x[3 * i], job->x[3 * i + 1], job->x[3 * i + 2]};
    const int64_t *restrict cell_start = job->cell_start;
    const int32_t *restrict periodic = job->periodic;
    const int64_t nb0 = job->nbins[0], nb1 = job->nbins[1], nb2 = job->nbins[2];
    const int64_t ci = job->cell[i];
    const int64_t b2 = ci % nb2, b1 = (ci / nb2) % nb1, b0 = ci / (nb1 * nb2);
    const int32_t *restrict order = job->order;
    const F64 *half = job->geo + GEO_HALF;
    /* a half list keeps j > i: a suffix of each cell, which holds its
     * atoms in ascending index */
    const int32_t above = job->full ? -1 : (int32_t)i;
    int64_t s0, s1, s2;
    for (s0 = -1; s0 <= 1; s0++) {
        const int64_t t0 = shifted_bin(b0 + s0, nb0, periodic[0]);
        if (t0 < 0) continue;
        for (s1 = -1; s1 <= 1; s1++) {
            const int64_t t1 = shifted_bin(b1 + s1, nb1, periodic[1]);
            if (t1 < 0) continue;
            for (s2 = -1; s2 <= 1; s2++) {
                const int64_t t2 = shifted_bin(b2 + s2, nb2, periodic[2]);
                /* three bins or more per periodic axis: only the unshifted
                 * cell is the atom's own, so only there can j be i */
                const int32_t self = (s0 | s1 | s2) == 0 ? (int32_t)i : -1;
                const double *lim;
                int64_t q, end;
                int c, near = 1;
                if (t2 < 0) continue;
                q = (t0 * nb1 + t1) * nb2 + t2;
                /* rounding is monotone, so every d of the cell lies between
                 * the d of its least and of its greatest coordinate */
                for (lim = job->bounds + 6 * q, c = 0; c < 3; c++)
                    near &= (lim[3 + c] - xi[c] <= half[c]) & (lim[c] - xi[c] >= -half[c]);
                end = cell_start[q + 1];
                for (q = cell_start[q]; q < end && order[q] <= above; q++) {}
                if (count + (end - q) > room)
                    count = nbr_cell(job, xi, q, end, self, out, room, count, 1, 1);
                else if (near)
                    count = nbr_cell(job, xi, q, end, self, out, room, count, 0, 0);
                else
                    count = nbr_cell(job, xi, q, end, self, out, room, count, 0, 1);
            }
        }
    }
    return count;
}

/* The chunks of rows this thread claims, each into its own slice. */
static void nbr_fill(void *ctx, const int tid)
{
    nbr_job *job = ctx;
    int64_t chunk;
    (void)tid;
    while ((chunk = atomic_fetch_add_explicit(&job->next, 1, memory_order_relaxed)) <
           job->n_chunks) {
        const int64_t first = chunk * job->rows;
        const int64_t end = first + job->rows < job->n ? first + job->rows : job->n;
        const int64_t room = chunk + 1 < job->n_chunks ? job->per : job->cap - chunk * job->per;
        int32_t *out = job->neighbors + chunk * job->per;
        int64_t i, count = 0;
        for (i = first; i < end; i++) {
            const int64_t before = count;
            count = nbr_row(job, i, out, room, count);
            job->offsets[i + 1] = count - before;
        }
    }
}

/* Returns the number of list entries, or -NBR_NONFINITE, or — when a
 * chunk's slice of `cap` was short — a larger `cap` under which every
 * slice fits: the caller sizes `neighbors` from the density and calls
 * again with the returned count when it exceeds `cap`.  One thread fills
 * all rows as one chunk and its slice is the whole buffer, so there the
 * count returned is the number of entries either way.  On success
 * info[0] is the number of threads the fill was opened for. */
int64_t neighbor_build(
    const int64_t n,
    const double *restrict x,         /* (n,3) positions                       */
    const double *restrict geo,       /* (13,) see above                       */
    const int64_t *restrict nbins,    /* (3,)  bins per axis                   */
    const int32_t *restrict periodic, /* (3,)                                  */
    const int32_t full,               /* 0: keep i < j only                    */
    int64_t *restrict cell,           /* (n,)  scratch: linear cell per atom   */
    int64_t *restrict cell_start,     /* (ncells+2,) scratch                   */
    int32_t *restrict order,          /* (n,)  scratch: atoms sorted by cell   */
    double *restrict xs,              /* (3n+6*ncells,) scratch: x, y, z
                                         columns in the order of `order`, then
                                         each cell's least and greatest x, y, z */
    const int64_t cap,
    int64_t *restrict offsets,        /* (n+1,) out                            */
    int32_t *restrict neighbors,      /* (cap,) out                            */
    const int64_t threads,            /* most threads the fill may use         */
    int64_t *restrict info)
{
    const int64_t nb1 = nbins[1], nb2 = nbins[2];
    const int64_t ncells = nbins[0] * nb1 * nb2;
    nbr_job job;
    int64_t i, k, most = 0, short_slice = 0;
    int c;

    /* bin; stable counting sort by linear cell: counts land two slots up
     * so that after the fill cell_start[q] .. cell_start[q+1] is cell q */
    memset(cell_start, 0, (size_t)(ncells + 2) * sizeof(int64_t));
    for (i = 0; i < n; i++) {
        int64_t b[3];
        for (c = 0; c < 3; c++) {
            const F64 f = (x[3 * i + c] - geo[GEO_LO + c]) / geo[GEO_BIN + c];
            const int64_t last = nbins[c] - 1;
            if (!isfinite(x[3 * i + c])) {
                info[0] = i;
                return -NBR_NONFINITE;
            }
            b[c] = f > 0 ? (f < (F64)last ? (int64_t)f : last) : 0;
        }
        cell[i] = (b[0] * nb1 + b[1]) * nb2 + b[2];
        cell_start[cell[i] + 2]++;
    }
    for (i = 0; i < ncells; i++) cell_start[i + 2] += cell_start[i + 1];
    for (i = 0; i < n; i++) order[cell_start[cell[i] + 1]++] = (int32_t)i;
    for (k = 0; k < n; k++)
        for (c = 0; c < 3; c++) xs[c * n + k] = x[3 * (int64_t)order[k] + c];
    for (i = 0; i < ncells; i++) {
        double *lim = xs + 3 * n + 6 * i;
        for (c = 0; c < 3; c++) {
            lim[c] = INFINITY;
            lim[3 + c] = -INFINITY;
            for (k = cell_start[i]; k < cell_start[i + 1]; k++) {
                lim[c] = xs[c * n + k] < lim[c] ? xs[c * n + k] : lim[c];
                lim[3 + c] = xs[c * n + k] > lim[3 + c] ? xs[c * n + k] : lim[3 + c];
            }
        }
    }

    job.n = n;
    job.x = x;
    job.geo = geo;
    job.nbins = nbins;
    job.periodic = periodic;
    job.full = full;
    job.cell = cell;
    job.cell_start = cell_start;
    job.order = order;
    job.xs = xs;
    job.bounds = xs + 3 * n;
    job.rows = threads > 1 ? NBR_ROWS_PER_CHUNK : (n > 0 ? n : 1);
    job.n_chunks = (n + job.rows - 1) / job.rows;
    job.per = job.n_chunks > 1 ? cap / job.n_chunks : cap;
    job.cap = cap;
    job.offsets = offsets;
    job.neighbors = neighbors;
    atomic_init(&job.next, 0);
    info[0] = pool_run((int)(threads < job.n_chunks ? threads : job.n_chunks), nbr_fill, &job);

    offsets[0] = 0;
    for (i = 0; i < n; i++) offsets[i + 1] += offsets[i];
    for (k = 0; k < job.n_chunks; k++) {
        const int64_t first = k * job.rows, end = first + job.rows < n ? first + job.rows : n;
        const int64_t count = offsets[end] - offsets[first];
        const int64_t room = k + 1 < job.n_chunks ? job.per : cap - k * job.per;
        if (count > room) short_slice = 1;
        if (count > most) most = count;
    }
    if (short_slice) return job.n_chunks * most;
    /* the slices, in chunk order, to where their rows start: never past
     * where the next slice starts, so nothing is overwritten unread */
    for (k = 1; k < job.n_chunks; k++) {
        const int64_t first = k * job.rows, end = first + job.rows < n ? first + job.rows : n;
        const size_t len = (size_t)(offsets[end] - offsets[first]);
        memmove(neighbors + offsets[first], neighbors + k * job.per, len * sizeof(int32_t));
    }
    return offsets[n];
}

/* The inner list of a CSR list (DESIGN.md §12): the entries whose r^2 at
 * x (the walker's, bit for bit) is not above reach^2, in list order, with
 * row offsets and a transposed index — per atom a the inner entries that
 * name it, ascending: what the kernels *gather* forces through (Fan et
 * al., arXiv 1610.03343), a stable counting sort by column.  One pass, no
 * binning; a blanked (asymmetric) list works like any other.  A
 * non-finite r^2 and a column outside [0, n) are kept for the walker to
 * report, the latter out of the transposed index.  Returns the inner
 * entries, info[0] the longest inner row; -1 for offsets not from 0 or
 * past int32 entry numbers, -2 (info[0] = i) for a row i that ends
 * before it starts. */
int64_t neighbor_inner(
    const int64_t n,
    const int64_t *restrict offsets,   /* (n+1,) the list                    */
    const int32_t *restrict neighbors, /* (L,)                               */
    const double *restrict x,          /* (n,3) positions                    */
    const double *restrict geo,        /* (7,) lengths, halves, reach^2      */
    int64_t *restrict inner_off,       /* (n+1,) out: the inner list         */
    int32_t *restrict inner,           /* (L,) out                           */
    int64_t *restrict in_off,          /* (n+1,) out: its transposed index   */
    int32_t *restrict in_ent,          /* (L,) out                           */
    int64_t *restrict info)
{
    int64_t a, e, i, kept = 0, most = 0;
    int c;
    if (offsets[0] != 0 || offsets[n] > INT32_MAX) return -1;
    inner_off[0] = 0;
    for (i = 0; i < n; i++) {
        const double *xi = x + 3 * i;
        if (offsets[i + 1] < offsets[i]) return info[0] = i, -2;
        for (e = offsets[i]; e < offsets[i + 1]; e++) {
            const int64_t j = neighbors[e];
            const double *xj = x + 3 * (j >= 0 && j < n ? j : i);
            F64 d[3];
            for (c = 0; c < 3; c++) {
                d[c] = xj[c] - xi[c];
                if (fabs(d[c]) > geo[3 + c]) d[c] -= geo[c] * rint(d[c] / geo[c]);
            }
            const F64 r2 = DOT3_EINSUM(d[0] * d[0], d[1] * d[1], d[2] * d[2]);
            inner[kept] = (int32_t)j;
            kept += !(r2 > geo[6]) | !isfinite(r2); /* no branch: half the entries go */
        }
        inner_off[i + 1] = kept;
        most = kept - inner_off[i] > most ? kept - inner_off[i] : most;
    }
    info[0] = most;
    memset(in_off, 0, (size_t)(n + 1) * sizeof(int64_t));
    for (e = 0; e < kept; e++)
        if (inner[e] >= 0 && inner[e] < n) in_off[inner[e] + 1]++;
    for (a = 1; a <= n; a++) in_off[a] += in_off[a - 1];
    /* the fill moves slot a to the start of atom a + 1: shift back after */
    for (e = 0; e < kept; e++)
        if (inner[e] >= 0 && inner[e] < n) in_ent[in_off[inner[e]]++] = (int32_t)e;
    for (a = n; a > 0; a--) in_off[a] = in_off[a - 1];
    in_off[0] = 0;
    return kept;
}

/* C cell-list build behind repro.md.neighbor.NeighborList.
 *
 * It writes the CSR list the numpy builder writes (_binned_pairs followed by
 * the stable sort on i in NeighborList.build), entry for entry, because the
 * kernels' bitwise guarantees rest on the order of a row (DESIGN.md §12):
 * rows ascending i; within a row the 27 cell shifts in (dx,dy,dz)
 * lexicographic order; within a cell ascending atom index.  The arithmetic
 * that decides membership is the oracle's too: cell = (x - lo) / binsize
 * truncated and clamped to [0, nbins-1], d -= L * rint(d / L) on periodic
 * axes, r^2 by DOT3_EINSUM, inclusive <= rlist^2.
 *
 * A serial pass bins the atoms and copies their positions into cell order
 * as three columns, where a cell's z-neighbours are adjacent: a stencil's
 * 27 cells are 9 runs of candidates (18 where a periodic z axis wraps).  On
 * the threads of _pool.c each cell's runs are listed once, then the rows
 * filled: a run's candidates are tested across the build's f64 lanes
 * (_vec.h) and compacted without a branch, in order (paper Sec. V's vector
 * conditional and compress-store).  Each chunk of rows fills its own slice
 * of the output and records its row lengths; a prefix sum and an in-order
 * move of the slices leave the one-thread arrays.
 */

#include <math.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#include "_common.h"
#include "_pool.h"

#define REAL double /* positions, box and radius are f64 in every precision mode */
#define IREAL int64_t
#define UREAL uint64_t
#define REAL_BITS 64
#define TSUF f64
#define R_SQRT sqrt
#define ACC double
#define VLANES VEC_LANES_F64
#include "_vec.h"

#define NBR_NONFINITE 1 /* info[0] names the first atom with a non-finite position */

/* rows a chunk of a threaded fill holds; one thread fills every row as one */
#define NBR_ROWS_PER_CHUNK 64

/* per cell, in `order` after the atoms: its run count, then (first, end, wrap) per run */
#define NBR_CELL_INTS (1 + 3 * 18)

/* a lane's keep flag as a byte; where lane l's lies in a word they fill */
typedef uint8_t nbr_bytes __attribute__((vector_size(VLANES)));
#define NBR_LANE_BIT(l) (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__ ? 56 - 8 * (l) : 8 * (l))

/* geometry block `geo` (13 doubles, packed by NeighborList.build): box lo, lengths, bin
 * size per axis, half lengths (+inf on non-periodic axes), list radius squared */
enum { GEO_LO = 0, GEO_LEN = 3, GEO_BIN = 6, GEO_HALF = 9, GEO_R2 = 12 };

/* One build, as the threads of its run listing and row fill see it. */
typedef struct {
    int64_t n;
    const double *x;
    const double *geo;
    const int64_t *nbins;
    const int32_t *periodic;
    int32_t full;
    const int64_t *cell;
    const int64_t *cell_start;
    int32_t *order;         /* then the runs */
    const double *xs;       /* positions in cell order, three columns */
    double *plane[3];       /* per axis and bin: least and greatest coordinate */
    int64_t rows, n_chunks; /* rows per chunk, chunks */
    int64_t per;            /* output slots per chunk; the last runs to the end */
    int64_t cap;
    int64_t *offsets;       /* the fill leaves row i's length in offsets[i + 1] */
    int32_t *neighbors;
    _Alignas(POOL_CACHE_LINE) _Atomic int64_t next; /* chunk claims */
} nbr_job;

/* whether along axis c an atom of bin t may lie beyond L/2 of an atom of bin b */
static inline int32_t nbr_far(const nbr_job *job, const int c, const int64_t b, const int64_t t)
{
    const double *own = job->plane[c] + 2 * b, *lim = job->plane[c] + 2 * t;
    const REAL half = job->geo[GEO_HALF + c];
    return !(lim[1] - own[0] <= half) | !(lim[0] - own[1] >= -half);
}

/* The runs of the cells of the (b0, b1) rows this thread claims.  Per
 * shift (s0, s1) in order, the cells b2-1 .. b2+1 of row (t0, t1) are one
 * run, cut at an open edge and split where a periodic z axis wraps; empty
 * runs are left out.  A run's `wrap` sets bit c where along axis c it may
 * be far from the cell (always z where a wrap split it): rounding is
 * monotone, so each d lies between the d of the bins' bounds, and where
 * |d| <= L/2, rint(d/L) is exactly 0 and the minimum image moves nothing. */
static void nbr_runs(void *ctx, const int tid)
{
    nbr_job *job = ctx;
    const int64_t nb0 = job->nbins[0], nb1 = job->nbins[1], nb2 = job->nbins[2];
    const int32_t *periodic = job->periodic;
    int64_t r, b2, s, w;
    (void)tid;
    while ((r = atomic_fetch_add_explicit(&job->next, 1, memory_order_relaxed)) < nb0 * nb1) {
        const int64_t b0 = r / nb1, b1 = r % nb1;
        int64_t rows[9], wrap[9]; /* per row (t0, t1): its first cell or -1; x, y image bits */
        for (s = 0; s < 9; s++) {
            int64_t t0 = b0 + s / 3 - 1, t1 = b1 + s % 3 - 1;
            t0 = periodic[0] ? (t0 + nb0) % nb0 : t0;
            t1 = periodic[1] ? (t1 + nb1) % nb1 : t1;
            rows[s] = t0 < 0 || t0 >= nb0 || t1 < 0 || t1 >= nb1 ? -1 : (t0 * nb1 + t1) * nb2;
            wrap[s] = rows[s] < 0 ? 0 : nbr_far(job, 0, b0, t0) | nbr_far(job, 1, b1, t1) << 1;
        }
        for (b2 = 0; b2 < nb2; b2++) {
            /* z bins in shift order: the wrapped one before, b2-1 .. b2+1, the one after */
            const int64_t lo = b2 > 0 ? b2 - 1 : 0, hi = b2 + 1 < nb2 ? b2 + 1 : nb2 - 1;
            const int64_t z[3][2] = {{nb2 - 1, nb2 - 1}, {lo, hi}, {0, 0}};
            const int32_t far_z = nbr_far(job, 2, b2, lo) | nbr_far(job, 2, b2, b2) |
                                  nbr_far(job, 2, b2, hi);
            int32_t *run = job->order + job->n + NBR_CELL_INTS * (r * nb2 + b2), k = 0;
            for (s = 0; s < 9; s++)
                for (w = b2 == 0 && periodic[2] ? 0 : 1;
                     w < (b2 == nb2 - 1 && periodic[2] ? 3 : 2) && rows[s] >= 0; w++) {
                    const int32_t first = (int32_t)job->cell_start[rows[s] + z[w][0]];
                    const int32_t end = (int32_t)job->cell_start[rows[s] + z[w][1] + 1];
                    run[1 + 3 * k] = first;
                    run[2 + 3 * k] = end;
                    run[3 + 3 * k] = (int32_t)wrap[s] | (w == 1 ? far_z : 1) << 2;
                    k += end > first;
                }
            run[0] = k;
        }
    }
}

/* The candidates q .. end-1 of one run against atom i, VLANES at a
 * time: a lane keeps its j where r^2 <= rlist^2, j != i and j > `above`
 * (i in a half list, -1 in a full one).  Each lane stores its j at slot
 * `count` and adds its test to the count, so the survivors land in order
 * without a branch.  Lanes past `end` read on into the scratch and count
 * nothing.  Slots from `room` on are counted, not written, when `guarded`.
 * Only the axes set in `wrap` take the minimum image. */
static inline __attribute__((always_inline)) int64_t nbr_run(
    const nbr_job *job, const int64_t i, int64_t q, const int64_t end, int32_t *restrict out,
    const int64_t room, int64_t count, const int guarded, const int64_t wrap)
{
    const int32_t *restrict order = job->order;
    const VMASK self = vm_set1(i), above = vm_set1(job->full ? -1 : i);
    int32_t spill;
    for (; q < end; q += VLANES) {
        const VMASK j = vm_load_i32(order + q);
        VREAL d[3];
        uint64_t word = 0;
        int c, l;
        for (c = 0; c < 3; c++) {
            const VREAL len = v_set1(job->geo[GEO_LEN + c]), half = v_set1(job->geo[GEO_HALF + c]);
            VREAL k = d[c] = v_load(job->xs + c * job->n + q) - v_set1(job->x[3 * i + c]);
            if (wrap >> c & 1) k = d[c] / len; /* a division only where the image may move */
            for (l = 0; l < VLANES && wrap >> c & 1; l++) k[l] = rint(k[l]);
            if (wrap >> c & 1) d[c] = v_sel((d[c] > half) | (d[c] < -half), d[c] - len * k, d[c]);
        }
        const nbr_bytes keep = __builtin_convertvector(
            (DOT3_EINSUM(d[0] * d[0], d[1] * d[1], d[2] * d[2]) <= v_set1(job->geo[GEO_R2])) &
                (j > above) & (j != self) & (vm_iota() < vm_set1(end - q)), nbr_bytes);
        memcpy(&word, &keep, sizeof keep); /* one move, where lane reads would be VLANES */
        for (l = 0; l < VLANES; l++) {
            *(guarded && count >= room ? &spill : out + count) = order[q + l];
            count += (word >> NBR_LANE_BIT(l)) & 1;
        }
    }
    return count;
}

/* The chunks of rows this thread claims, each into its own slice.  With
 * three bins or more per periodic axis a stencil meets each cell once,
 * so j == i only where the atom itself is the candidate. */
static void nbr_fill(void *ctx, const int tid)
{
    nbr_job *job = ctx;
    int64_t chunk, i, k, count;
    (void)tid;
    while ((chunk = atomic_fetch_add_explicit(&job->next, 1, memory_order_relaxed)) <
           job->n_chunks) {
        const int64_t first = chunk * job->rows;
        const int64_t end = first + job->rows < job->n ? first + job->rows : job->n;
        const int64_t room = chunk + 1 < job->n_chunks ? job->per : job->cap - chunk * job->per;
        int32_t *out = job->neighbors + chunk * job->per;
        for (count = 0, i = first; i < end; i++) {
            const int32_t *run = job->order + job->n + NBR_CELL_INTS * job->cell[i];
            const int64_t before = count;
            for (k = 0; k < run[0]; k++) {
                const int64_t q = run[1 + 3 * k], e = run[2 + 3 * k], wrap = run[3 + 3 * k];
                count = count + (e - q) >= room ? nbr_run(job, i, q, e, out, room, count, 1, wrap)
                        : wrap                  ? nbr_run(job, i, q, e, out, room, count, 0, wrap)
                                                : nbr_run(job, i, q, e, out, room, count, 0, 0);
            }
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
    int32_t *restrict order,          /* (n+NBR_CELL_INTS*ncells,) scratch:
                                         atoms sorted by cell, then the runs  */
    double *restrict xs,              /* (3n+2*sum(nbins)+8,) scratch: x, y, z
                                         by `order`, then per axis and bin the
                                         least and greatest coordinate, 8 spare */
    const int64_t cap,
    int64_t *restrict offsets,        /* (n+1,) out                            */
    int32_t *restrict neighbors,      /* (cap,) out                            */
    const int64_t threads,            /* most threads the fill may use         */
    int64_t *restrict info)
{
    const int64_t nb0 = nbins[0], nb1 = nbins[1], nb2 = nbins[2], ncells = nb0 * nb1 * nb2;
    nbr_job job = {.n = n, .x = x, .geo = geo, .nbins = nbins, .periodic = periodic, .full = full,
                   .cell = cell, .cell_start = cell_start, .order = order, .xs = xs, .cap = cap,
                   .offsets = offsets, .neighbors = neighbors,
                   .plane = {xs + 3 * n, xs + 3 * n + 2 * nb0, xs + 3 * n + 2 * (nb0 + nb1)}};
    int64_t i, k, c, most = 0, short_slice = 0;

    /* bin, and bound each bin's plane; stable counting sort by linear cell:
     * counts land two slots up so that after the fill cell_start[q] ..
     * cell_start[q+1] is cell q */
    for (i = 0; i < 2 * (nb0 + nb1 + nb2); i++) xs[3 * n + i] = i % 2 ? -INFINITY : INFINITY;
    memset(cell_start, 0, (size_t)(ncells + 2) * sizeof(int64_t));
    for (i = 0; i < n; i++) {
        int64_t b[3];
        for (c = 0; c < 3; c++) {
            const REAL f = (x[3 * i + c] - geo[GEO_LO + c]) / geo[GEO_BIN + c];
            const int64_t last = nbins[c] - 1;
            if (!isfinite(x[3 * i + c])) {
                info[0] = i;
                return -NBR_NONFINITE;
            }
            b[c] = f > 0 ? (f < (REAL)last ? (int64_t)f : last) : 0;
            double *lim = job.plane[c] + 2 * b[c];
            lim[0] = x[3 * i + c] < lim[0] ? x[3 * i + c] : lim[0];
            lim[1] = x[3 * i + c] > lim[1] ? x[3 * i + c] : lim[1];
        }
        cell[i] = (b[0] * nb1 + b[1]) * nb2 + b[2];
        cell_start[cell[i] + 2]++;
    }
    for (i = 0; i < ncells; i++) cell_start[i + 2] += cell_start[i + 1];
    for (i = 0; i < n; i++) order[cell_start[cell[i] + 1]++] = (int32_t)i;
    for (k = 0; k < n; k++)
        for (c = 0; c < 3; c++) xs[c * n + k] = x[3 * (int64_t)order[k] + c];

    job.rows = threads > 1 ? NBR_ROWS_PER_CHUNK : (n > 0 ? n : 1);
    job.n_chunks = (n + job.rows - 1) / job.rows;
    job.per = job.n_chunks > 1 ? cap / job.n_chunks : cap;
    pool_run((int)(threads < nb0 * nb1 ? threads : nb0 * nb1), nbr_runs, &job);
    atomic_store(&job.next, 0);
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
            REAL d[3];
            for (c = 0; c < 3; c++) {
                d[c] = xj[c] - xi[c];
                if (fabs(d[c]) > geo[3 + c]) d[c] -= geo[c] * rint(d[c] / geo[c]);
            }
            const REAL r2 = DOT3_EINSUM(d[0] * d[0], d[1] * d[1], d[2] * d[2]);
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

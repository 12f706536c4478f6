/* The list walker of the compiled backend (see _walker.h): chunks of rows
 * on the threads of _pool.c, the scalar filter per row, the body of the
 * potential that runs once per chunk, then the gather of sweep 2 and the
 * reduction of the chunk records in chunk order.
 *
 * Forces leave in two sweeps (Fan et al., arXiv 1610.03343), so that no
 * two rows ever write one address and the I loop can be split over
 * threads without atomics.  Sweep 1, per row: F_i and the per-atom
 * energy go to atom i, written by nobody else; every neighbor a body
 * puts a force on is a slot of the row's short list, and its force goes
 * to `partial[e]` of the row entry e the slot came from, in the row's
 * own CSR range; an entry outside the short list keeps its zero.
 * Sweep 2, per atom a, after all of sweep 1: F_a += the partials of the
 * entries that name a, in ascending entry order, found through the
 * inner list's transposed index (_neighbor.c).  Rows and atoms are
 * claimed in chunks of ROWS_PER_CHUNK, each thread from its own range
 * first (walk_next); virial sums, counters and the first error are kept
 * per chunk of rows and reduced in chunk order.  Chunk size is a
 * constant and the gather order is the list's, so every output is
 * bitwise the same for any number of threads and any assignment of
 * chunks to them; one thread runs the same two sweeps alone.
 */

#include <math.h>
#include <pthread.h>
#include <stdlib.h>

#include "_walker.h"

/* Scratch doubles per short-list entry the walker keeps, for a chunk of
 * rows of the longest row each: the short lists' r and d, and their j,
 * type and row-position int32 columns. */
#define SHORT_DOUBLES (4 + 2)

static int64_t walk_lines(const int64_t doubles)
{
    return (doubles + LINE_DOUBLES - 1) / LINE_DOUBLES * LINE_DOUBLES;
}

/* the chunk's short lists: entries of ROWS_PER_CHUNK rows of max_row each */
static int64_t walk_entries(const int64_t max_row) { return walk_lines(ROWS_PER_CHUNK * max_row); }

static int64_t walk_thread_doubles(const walk_kind *kind, const int64_t max_row,
                                   const int64_t ntypes)
{
    return walk_lines(walk_entries(max_row) * SHORT_DOUBLES + kind->scratch(max_row, ntypes));
}

static int64_t walk_chunks(const int64_t n) { return (n + ROWS_PER_CHUNK - 1) / ROWS_PER_CHUNK; }

/* slack to align the base, and the chunk records */
int64_t walk_scratch_doubles(const int64_t n_atoms)
{
    return LINE_DOUBLES + walk_chunks(n_atoms) * (int64_t)(sizeof(walk_chunk) / sizeof(double));
}

/* The row scratch of the calling thread: the chunk's short lists and the
 * body's columns, written afresh by every chunk.  One buffer per thread,
 * kept at the largest size asked of it and freed when the thread exits,
 * so kernel instances called from one thread share it (a buffer per
 * instance cost `serve-mixed` 1.4 MB of peak RSS over its sessions).
 * NULL when there is no memory. */
typedef struct {
    double *p;
    int64_t doubles;
} walk_own;

static pthread_key_t walk_own_key;
static int walk_own_ok;
static pthread_once_t walk_own_once = PTHREAD_ONCE_INIT;

static void walk_own_free(void *own)
{
    free(((walk_own *)own)->p);
    free(own);
}

static void walk_own_init(void) { walk_own_ok = !pthread_key_create(&walk_own_key, walk_own_free); }

static double *walk_own_scratch(const int64_t doubles)
{
    walk_own *own;
    pthread_once(&walk_own_once, walk_own_init);
    if (!walk_own_ok) return NULL;
    own = pthread_getspecific(walk_own_key);
    if (!own) {
        if (!(own = calloc(1, sizeof *own))) return NULL;
        if (pthread_setspecific(walk_own_key, own)) {
            free(own);
            return NULL;
        }
    }
    if (own->doubles < doubles) {
        free(own->p);
        own->p = aligned_alloc(POOL_CACHE_LINE, (size_t)doubles * sizeof(double));
        own->doubles = own->p ? doubles : 0;
    }
    return own->p;
}

static int64_t walk_fail(int64_t *restrict fail, int64_t i, int64_t j, int code)
{
    fail[0] = code;
    fail[1] = i;
    fail[2] = j;
    return -code;
}

/* Scalar filter for one atom: walks `row` (the atom's CSR neighbors),
 * writes minimum-image d = x_j - x_i (one column per component), r, j,
 * type(j) and the position in the row of the entries inside the
 * short-list cutoff densely into the short list, returns its length (or
 * -code, with `fail` filled in for the first bad entry in row order).
 * Same arithmetic as pair_geometry(): the image shift is skipped where
 * |d| <= L/2, where round(d/L) is exactly 0.  The sqrt-free prefilter on
 * r^2 compacts without branches (every entry is written at the next free
 * slot, which advances only when it is kept: no pattern to predict);
 * then the exact test on r over the few it let through. */
static int64_t walk_filter_row(const double *restrict x, const int32_t *restrict types,
                               const int64_t n_atoms, const int64_t i,
                               const int32_t *restrict row, const int64_t len,
                               const double *restrict geo, const int strict,
                               double *const *restrict sd,
                               double *restrict sr, int32_t *restrict sj, int32_t *restrict st,
                               int32_t *restrict sq, int64_t *restrict fail)
{
    const double *xi = x + 3 * i;
    int64_t m = 0, k, q;
    int c;
    for (k = 0; k < len; k++) {
        const int64_t j = row[k];
        if (j < 0 || j >= n_atoms) return walk_fail(fail, i, j, WALK_BAD_INPUT);
        ACC d[3]; /* geometry: f64 in every mode, like the accumulators */
        for (c = 0; c < 3; c++) {
            d[c] = x[3 * j + c] - xi[c];
            if (fabs(d[c]) > geo[GEO_HALF + c]) d[c] -= geo[c] * rint(d[c] / geo[c]);
            sd[c][m] = d[c];
        }
        const ACC r2 = DOT3_EINSUM(d[0] * d[0], d[1] * d[1], d[2] * d[2]);
        const int near = r2 <= geo[GEO_CUTMAX2];
        /* a non-finite distance would be filtered silently, r == 0 makes
         * 1/r undefined: both fail the call, in row order */
        if ((!near & !isfinite(r2)) | (r2 == 0))
            return walk_fail(fail, i, j, r2 == 0 ? WALK_COINCIDENT : WALK_NONFINITE);
        sr[m] = r2;
        sj[m] = (int32_t)j;
        sq[m] = (int32_t)k;
        m += near;
    }
    /* the prefilter's margin lets through almost nothing the exact test
     * drops: a branch, taken, keeps each slot off the last one's sqrt */
    for (k = 0, q = 0; k < m; k++) {
        const ACC r = sqrt(sr[k]);
        if (strict ? !(r < geo[GEO_CUTMAX]) : !(r <= geo[GEO_CUTMAX])) continue;
        sr[q] = r;
        for (c = 0; c < 3; c++) sd[c][q] = sd[c][k];
        sj[q] = sj[k];
        st[q] = types[sj[k]];
        sq[q] = sq[k];
        q++;
    }
    return q;
}

/* The next chunk of rows (sweep 0) or atoms (sweep 1) for thread `tid`,
 * or -1 when every one is claimed.  Thread t owns the t-th of `teams`
 * contiguous ranges of chunks, the same in both sweeps and from call to
 * call, so the partial lines its rows write stay in its cache;
 * once its own range is claimed it takes from the next range, and the
 * next (`*from` counts the ranges it has left). */
static int64_t walk_next(walk_job *job, const int tid, const int sweep, int64_t *from)
{
    for (; *from < job->teams; ++*from) {
        const int64_t t = (tid + *from) % job->teams, end = (t + 1) * job->n_chunks / job->teams;
        _Atomic int64_t *n = sweep ? &job->claim[t].atoms : &job->claim[t].rows;
        const int64_t chunk =
            t * job->n_chunks / job->teams + atomic_fetch_add_explicit(n, 1, memory_order_relaxed);
        if (chunk < end) return chunk;
    }
    return -1;
}

static void walk_chunk_done(walk_job *job, walk_chunk *restrict out, const walk_acc *acc)
{
    int a;
    if (out->fail[0] != WALK_OK) atomic_store_explicit(&job->failed, 1, memory_order_relaxed);
    for (a = 0; a < 18; a++) out->w[a] = vacc_hsum(acc->lane[a]);
    for (a = 0; a < 9; a++) out->w[18 + a] = acc->k[a];
    for (a = 0; a < WALK_COUNTS; a++) out->count[a] = acc->count[a];
    atomic_fetch_add_explicit(&job->rows_done, 1, memory_order_release);
}

/* Sweep 1 for the chunks of rows this thread claims, then — once every
 * chunk is done — sweep 2 for the chunks of atoms it claims.  Nothing a
 * thread writes is written by another: forces[i] and peratom[i] belong
 * to the owner of row i, partial[e] to the owner of e's row, a chunk
 * record to the chunk's owner, and sweep 2 writes forces[a] for the
 * atoms it claimed. */
static void walk_work(void *ctx, const int tid)
{
    walk_job *job = ctx; /* who computes which chunk decides nothing */
    const walk_kind *kind = job->kind;
    const int64_t n_atoms = job->a.n_atoms, max_row = job->a.max_row;
    const int64_t *restrict offsets = job->a.offsets;
    const int32_t *restrict neighbors = job->a.neighbors, *restrict types = job->a.types;
    double *restrict partial = job->a.partial, *restrict forces = job->a.forces;

    /* ---- this thread's scratch: the chunk's short lists, back to back,
     * then the body's; a helper without it leaves the rows to the others
     * (the caller has its own before the job starts) ---- */
    const int64_t me = walk_entries(max_row);
    double *restrict sr = walk_own_scratch(job->thread_doubles);
    if (!sr) return;
    double *const sd[3] = {sr + me, sr + 2 * me, sr + 3 * me};
    int32_t *restrict sj = (int32_t *)(sr + 4 * me);
    int32_t *restrict st = sj + me;
    int32_t *restrict sq = st + me; /* row position of each short-list slot */
    double *body = sr + SHORT_DOUBLES * me;
    walk_acc acc;
    walk_row rows[ROWS_PER_CHUNK];
    int64_t chunk, i, q, r, from = 0;
    int c;

    while ((chunk = walk_next(job, tid, 0, &from)) >= 0) {
        walk_chunk *restrict out = job->chunk + chunk;
        const int64_t i0 = chunk * ROWS_PER_CHUNK;
        const int64_t n_rows = i0 + ROWS_PER_CHUNK < n_atoms ? ROWS_PER_CHUNK : n_atoms - i0;
        int64_t at = 0;
        memset(&acc, 0, sizeof acc);
        out->fail[0] = WALK_OK;

        for (r = 0; r < n_rows; r++) {
            walk_row *row = rows + r;
            i = i0 + r;
            const int64_t len = offsets[i + 1] - offsets[i];
            if (len < 0 || len > max_row) {
                walk_fail(out->fail, i, i, WALK_BAD_INPUT);
                break;
            }
            double *const sd_at[3] = {sd[0] + at, sd[1] + at, sd[2] + at};
            const int64_t ns =
                walk_filter_row(job->a.x, types, n_atoms, i, neighbors + offsets[i], len,
                                job->a.geo, kind->strict, sd_at, sr + at, sj + at, st + at,
                                sq + at, out->fail);
            if (ns < 0) break;
            /* the force on a slot's atom accumulates in the partial of the
             * row entry it came from; the others stay zero for sweep 2 */
            row->f = partial + 3 * offsets[i];
            memset(row->f, 0, (size_t)(3 * len) * sizeof(double));

            row->i = i;
            row->ti = types[i];
            row->ns = ns;
            row->at = at;
            row->r = sr + at;
            for (c = 0; c < 3; c++) row->d[c] = sd_at[c];
            row->j = sj + at;
            row->t = st + at;
            row->q = sq + at;
            at += ns;
        }
        if (out->fail[0] == WALK_OK) {
            kind->body(job, rows, n_rows, &acc, body);

            /* ---- the rows leave: F_i and e_i to their atom; the force on
             * their neighbors is where sweep 2 will look for it ---- */
            for (r = 0; r < n_rows; r++) {
                for (c = 0; c < 3; c++) forces[3 * (i0 + r) + c] = rows[r].f_i[c];
                job->a.peratom[i0 + r] = rows[r].e_i;
            }
        }
        walk_chunk_done(job, out, &acc);
    }

    /* ---- the barrier: every partial is written before one is read ---- */
    while (atomic_load_explicit(&job->rows_done, memory_order_acquire) < job->n_chunks)
        pool_pause();
    if (atomic_load_explicit(&job->failed, memory_order_relaxed)) return;

    /* ---- sweep 2: F_a += the partials of the entries that name a, in
     * ascending entry order — the list's order, whoever wrote them ---- */
    const int64_t *restrict in_off = job->a.in_off;
    const int32_t *restrict in_ent = job->a.in_ent;
    for (from = 0; (chunk = walk_next(job, tid, 1, &from)) >= 0;) {
        const int64_t a_end =
            (chunk + 1) * ROWS_PER_CHUNK < n_atoms ? (chunk + 1) * ROWS_PER_CHUNK : n_atoms;
        for (i = chunk * ROWS_PER_CHUNK; i < a_end; i++) {
            ACC *restrict f_a = forces + 3 * i;
            ACC f0 = f_a[0], f1 = f_a[1], f2 = f_a[2];
            for (q = in_off[i]; q < in_off[i + 1]; q++) {
                const double *restrict p = partial + 3 * (int64_t)in_ent[q];
                f0 += p[0];
                f1 += p[1];
                f2 += p[2];
            }
            f_a[0] = f0;
            f_a[1] = f1;
            f_a[2] = f2;
        }
    }
}

/* What a call reports whose stored column names an atom out of range:
 * the first error of a walk of the stored list in full (the inner list,
 * derived before the column changed, may not hold the entry), rows in
 * order and no body run, so the lowest failed chunk's. */
static int walk_stored_error(const walk_kind *kind, const walk_args *a)
{
    const int64_t n = a->n_atoms, *off = a->list_off;
    int64_t i, most = 0, fail[3] = {WALK_BAD_INPUT, 0, 0};
    for (i = 0; i < n; i++) most = off[i + 1] - off[i] > most ? off[i + 1] - off[i] : most;
    const int64_t me = walk_lines(most);
    double *sr = walk_own_scratch(walk_thread_doubles(kind, most, a->ntypes));
    if (!sr) return WALK_NOMEM;
    double *const sd[3] = {sr + me, sr + 2 * me, sr + 3 * me};
    int32_t *sj = (int32_t *)(sr + 4 * me);
    for (i = 0; i < n; i++)
        if (walk_filter_row(a->x, a->types, n, i, a->list_nb + off[i], off[i + 1] - off[i], a->geo,
                            kind->strict, sd, sr, sj, sj + me, sj + 2 * me, fail) < 0)
            break;
    a->info[0] = fail[1];
    a->info[1] = fail[2];
    return (int)fail[0];
}

int walk_run(const walk_kind *kind, const walk_args *a)
{
    const int64_t n_atoms = a->n_atoms;
    int64_t *info = a->info, i, n_pairs = 0, n_triplets = 0, n_bodies = 0, n_spins = 0;
    int c, bad = 0;

    for (i = 0; i < n_atoms; i++)
        if (a->types[i] < 0 || a->types[i] >= a->ntypes) {
            info[0] = info[1] = i;
            return WALK_BAD_INPUT;
        }
    /* the stored column, range-checked without a branch on every call */
    for (i = 0; i < a->list_off[n_atoms]; i++)
        bad |= (a->list_nb[i] < 0) | (a->list_nb[i] >= n_atoms);
    if (bad) return walk_stored_error(kind, a);

    /* every field not named here starts at zero, the claim counters too */
    walk_job job = {.kind = kind, .a = *a, .n_chunks = walk_chunks(n_atoms),
                    .thread_doubles = walk_thread_doubles(kind, a->max_row, a->ntypes)};
    job.chunk = (walk_chunk *)(((uintptr_t)a->scratch + POOL_CACHE_LINE - 1) &
                               ~(uintptr_t)(POOL_CACHE_LINE - 1));
    if (!walk_own_scratch(job.thread_doubles)) {
        info[0] = info[1] = 0;
        return WALK_NOMEM;
    }
    /* a thread per chunk at most; the caller alone runs the same two sweeps */
    job.teams = a->threads < job.n_chunks ? a->threads : job.n_chunks;
    job.teams = job.teams < 1 ? 1 : job.teams < POOL_MAX_THREADS ? job.teams : POOL_MAX_THREADS;
    info[4] = pool_run((int)job.teams, walk_work, &job);

    /* ---- reduce the chunk records in chunk order; the first error of the
     * lowest chunk is the first error of the I loop ---- */
    memset(a->stress, 0, 27 * sizeof(double));
    for (i = 0; i < job.n_chunks; i++) {
        const walk_chunk *restrict rec = job.chunk + i;
        if (rec->fail[0] != WALK_OK) {
            info[0] = rec->fail[1];
            info[1] = rec->fail[2];
            return (int)rec->fail[0];
        }
        for (c = 0; c < 27; c++) a->stress[c] += rec->w[c];
        n_pairs += rec->count[0];
        n_triplets += rec->count[1];
        n_bodies += rec->count[2];
        n_spins += rec->count[3];
    }
    info[0] = n_pairs;
    info[1] = n_triplets;
    info[2] = n_bodies;
    info[3] = n_pairs + n_triplets; /* every active lane is a pair or a triplet */
    info[5] = n_spins;
    return WALK_OK;
}

/* The event loop of `contpop.simulator.SimulationState`, over flat buffers:
 * the clock, the choice of event, the rejection sampler of birth positions
 * and of a Poisson start's points, the three rate-field kinds, the stencil
 * neighbour scan, the rate updates of an insert or a remove, the two-level
 * death selection and the audit recompute.  Beside it, `cp_pairs` counts
 * the pair histograms of `estimators.pair_correlation_estimate` over one
 * range of rows; Python calls it once per range, each range in its own
 * thread, and ctypes releases the GIL for the whole call.
 *
 * The loop draws each uniform when it needs it from the replica's numpy bit
 * generator, by the `next_double` that `BitGenerator.ctypes` exposes: the
 * double that one `rng.random()` call returns, so the stream is consumed
 * as the reference consumes it and is left where the reference leaves it.
 * No lock is held on the generator, so nothing else may draw from it while
 * a call runs.
 *
 * Every float operation is the one the pure-Python engine made (kept as
 * tests/reference_engine.py), in the same order, and `cp_pairs` makes the
 * separations numpy made, so the results are the same doubles: sums run
 * left to right, `nearbyint` rounds half to even as Python's `round` and
 * numpy's `rint` do, and `sqrt`, `exp`, `log1p` and `floor` are the libm
 * functions that `math` calls.  Build with -ffp-contract=off and without
 * fast-math, so that no multiply-add is fused and no sum is reassociated:
 *
 *     cc -O2 -fPIC -shared -ffp-contract=off -o _events.so _events.c -lm
 *
 * The leading fields of `State` are mirrored by `simulator._State`, which
 * reads them and makes numpy views of the buffers; keep the two in step.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* in the order of `CompetitionKernel.KINDS` */
enum { GAUSSIAN, EXPONENTIAL, TOP_HAT, TABULATED };
/* in the order of `RateField.KINDS` */
enum { CONSTANT, BUMP, TABLE };
/* the fields of a state */
enum { BIRTH, MORTALITY, DENSITY, FIELDS };
/* what `cp_advance` and `cp_place` return: the loop reached `until` or had
 * nothing left to do, or passed the event limit; or it failed, for want of
 * memory or on a death drawn in an empty window */
enum { DONE, LIMIT, NO_MEMORY = -1, EMPTY = -2 };

/* A rate field, with the formulas of `RateField.__call__` */
typedef struct {
    int kind;
    double scale;                /* the constant, or the bump's amplitude */
    double width2;               /* the bump's width squared */
    double origin[3];            /* the bump's centre, or the table's corner */
    double side[3];              /* the table's box */
    int64_t shape[3];
    double *values;              /* the table, row-major */
    double sup;
} Field;

typedef struct {
    /* mirrored in Python */
    int64_t n;                   /* particles, rows 0..n-1 */
    double d_tot;                /* the death total, the sum of `rate` */
    double t;                    /* the clock */
    int64_t events, births, deaths, audits;
    double max_audit_residual;
    int64_t selection_fallbacks; /* float-drift repairs of `cp_death` */
    double *pos;                 /* n x d positions */
    double *rate;                /* death rate per row */
    int64_t *cell_of;            /* cell per row */
    int64_t *slot_of;            /* index of the row in its cell's members */
    double *cell_rate;           /* rate sum per cell */
    int64_t **members;           /* the rows in each cell... */
    int64_t *count;              /* ...and their number */
    /* private */
    void *rng;                   /* the replica's bit generator state... */
    double (*next_double)(void *);   /* ...and its uniform draw */
    double *mortality;           /* m(x) per row, as it was inserted */
    int64_t cap;                 /* rows allocated */
    int64_t *member_cap;
    int64_t cells;
    int d, periodic, kind;
    double side[3], half[3], lo[3], domain_side[3], cell_side[3];
    int64_t n_cells[3];
    double r_cut, reach2, amplitude, scale;
    int64_t table_len;
    double *r_table, *a_table;
    double b_tot;                /* the integral of the birth field */
    Field field[FIELDS];
    int64_t stencil_width;       /* 3^d: cells per stencil, at most */
    int64_t *stencil;            /* cells x stencil_width, sorted, unique */
    int64_t *stencil_len;
    int64_t *nb_idx;             /* the last scan: rows... */
    double *nb_val;              /* ...and their kernel values */
    double *fresh;               /* the audit's recomputed rates */
} State;

const char *cp_compiler(void)
{
#if defined(__clang__)
    return "clang " __VERSION__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/* np.interp(r, r_table, a_table, right=0.0) for 0 <= r, as the reference:
 * j is bisect_right(r_table, r) - 1 */
static double interpolate(const State *s, double r)
{
    const double *rt = s->r_table, *at = s->a_table;
    int64_t lo = 0, hi = s->table_len, last = s->table_len - 1;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (r < rt[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    int64_t j = lo - 1;
    if (j >= last)
        return r == rt[last] ? at[last] : 0.0;
    double slope = (at[j + 1] - at[j]) / (rt[j + 1] - rt[j]);
    return slope * (r - rt[j]) + at[j];
}

/* the untruncated radial profile a(r), with the formulas of
 * `CompetitionKernel.profile` */
static double kernel(const State *s, double r)
{
    switch (s->kind) {
    case GAUSSIAN: {
        double q = r / s->scale;
        return s->amplitude * exp(-0.5 * (q * q));
    }
    case EXPONENTIAL:
        return s->amplitude * exp(-r / s->scale);
    case TOP_HAT:
        return r <= s->scale ? s->amplitude : 0.0;
    default:
        return interpolate(s, r);
    }
}

static int64_t cell_index(const State *s, const double *x)
{
    int64_t cell = 0;
    for (int a = 0; a < s->d; a++) {
        double k = floor((x[a] - s->lo[a]) / s->cell_side[a]);
        double top = (double)(s->n_cells[a] - 1);
        /* clamped to the grid; a nan coordinate takes cell 0 */
        k = !(k >= 0.0) ? 0.0 : k > top ? top : k;
        cell = cell * s->n_cells[a] + (int64_t)k;
    }
    return cell;
}

/* The value of field f at x: the constant, the bump's amplitude times
 * exp(-q / 2w^2) with q the squared distance to its centre added left to
 * right, or the table's value in the grid cell of x, clipped to its box */
static double field_at(const Field *f, int d, const double *x)
{
    switch (f->kind) {
    case CONSTANT:
        return f->scale;
    case BUMP: {
        double q = 0.0;
        for (int a = 0; a < d; a++)
            q += (x[a] - f->origin[a]) * (x[a] - f->origin[a]);
        return f->scale * exp(-0.5 * q / f->width2);
    }
    default: {
        int64_t k = 0;
        for (int a = 0; a < d; a++) {
            double i = floor((x[a] - f->origin[a]) / f->side[a]
                             * (double)f->shape[a]);
            double top = (double)(f->shape[a] - 1);
            i = i < 0.0 ? 0.0 : i > top ? top : i;
            k = k * f->shape[a] + (int64_t)i;
        }
        return f->values[k];
    }
    }
}

/* Rows and kernel values of the particles within r_cut of x, which lies in
 * `cell`, into nb_idx and nb_val; returns their number.  Stencil cells are
 * visited in ascending order, then their members in list order.  The
 * displacement is y - x per axis, folded to its minimum image only past half
 * a side (never on an absorbing window, whose halves are infinite). */
static int64_t scan(State *s, const double *x, int64_t cell, int64_t exclude)
{
    int64_t found = 0;
    if (s->r_cut <= 0.0)
        return 0;
    const int64_t *stencil = s->stencil + cell * s->stencil_width;
    /* first the rows whose squared distance passes the pre-test, with
     * their r^2, kept without a branch: the test is a coin flip for the
     * branch predictor */
    for (int64_t k = 0; k < s->stencil_len[cell]; k++) {
        int64_t c = stencil[k];
        const int64_t *rows = s->members[c];
        for (int64_t m = 0; m < s->count[c]; m++) {
            int64_t j = rows[m];
            const double *y = s->pos + j * s->d;
            double r2 = 0.0;
            for (int a = 0; a < s->d; a++) {
                double u = y[a] - x[a];
                if (u > s->half[a] || u < -s->half[a])
                    u -= s->side[a] * nearbyint(u / s->side[a]);
                r2 += u * u;
            }
            s->nb_idx[found] = j;
            s->nb_val[found] = r2;
            found += (r2 <= s->reach2) & (j != exclude);
        }
    }
    /* then those within r_cut, with their kernel values, in the same order */
    int64_t kept = 0;
    for (int64_t k = 0; k < found; k++) {
        double r = sqrt(s->nb_val[k]);
        if (r <= s->r_cut) {
            s->nb_idx[kept] = s->nb_idx[k];
            s->nb_val[kept++] = kernel(s, r);
        }
    }
    return kept;
}

static int grow(void **buffer, int64_t items, size_t size)
{
    void *p = realloc(*buffer, (size_t)items * size);
    if (p == NULL)
        return -1;
    *buffer = p;
    return 0;
}

static int reserve_rows(State *s, int64_t rows)
{
    if (rows <= s->cap)
        return 0;
    int64_t cap = 2 * s->cap > rows ? 2 * s->cap : rows;
    if (grow((void **)&s->pos, cap * s->d, sizeof(double))
        || grow((void **)&s->rate, cap, sizeof(double))
        || grow((void **)&s->mortality, cap, sizeof(double))
        || grow((void **)&s->cell_of, cap, sizeof(int64_t))
        || grow((void **)&s->slot_of, cap, sizeof(int64_t))
        || grow((void **)&s->nb_idx, cap, sizeof(int64_t))
        || grow((void **)&s->nb_val, cap, sizeof(double))
        || grow((void **)&s->fresh, cap, sizeof(double)))
        return -1;
    s->cap = cap;
    return 0;
}

void cp_free(State *s)
{
    if (s == NULL)
        return;
    for (int64_t c = 0; s->members != NULL && c < s->cells; c++)
        free(s->members[c]);
    for (int f = 0; f < FIELDS; f++)
        free(s->field[f].values);
    void *owned[] = {s->members, s->count, s->member_cap, s->cell_rate,
                     s->stencil, s->stencil_len, s->r_table, s->a_table,
                     s->pos, s->rate, s->mortality, s->cell_of, s->slot_of,
                     s->nb_idx, s->nb_val, s->fresh, s};
    for (size_t k = 0; k < sizeof owned / sizeof owned[0]; k++)
        free(owned[k]);
}

/* The stencil of each cell: the cells within one step per axis, wrapped on
 * a periodic window and dropped past the edge of an absorbing one, sorted
 * and each once (on grids of one or two cells per axis, the steps -1 and +1
 * reach the same cell). */
static void build_stencils(State *s)
{
    for (int64_t cell = 0; cell < s->cells; cell++) {
        int64_t coord[3], rest = cell, len = 0;
        int64_t *out = s->stencil + cell * s->stencil_width;
        for (int a = s->d - 1; a >= 0; a--) {
            coord[a] = rest % s->n_cells[a];
            rest /= s->n_cells[a];
        }
        for (int64_t o = 0; o < s->stencil_width; o++) {
            int64_t flat = 0, digits = o;
            int inside = 1;
            for (int a = 0; a < s->d; a++) {
                int64_t n = s->n_cells[a], k = coord[a] + digits % 3 - 1;
                digits /= 3;
                if (s->periodic)
                    k = (k + n) % n;
                else if (k < 0 || k >= n)
                    inside = 0;
                flat = flat * n + k;
            }
            int64_t at = len;
            while (at > 0 && out[at - 1] > flat)
                at--;
            if (!inside || (at > 0 && out[at - 1] == flat))
                continue;
            memmove(out + at + 1, out + at,
                    (size_t)(len - at) * sizeof(int64_t));
            out[at] = flat;
            len++;
        }
        s->stencil_len[cell] = len;
    }
}

/* A state with no particles, at time 0, whose birth field integrates to
 * b_tot over the domain; `cp_field` sets its fields, all constant 0 until
 * then.  Arrays have d entries (d <= 3), the tables table_len; kind is one of
 * GAUSSIAN, EXPONENTIAL, TOP_HAT, TABULATED.  Returns NULL when memory runs
 * out. */
State *cp_new(int d, int periodic, const double *side, const double *lo,
              const double *domain_side, const double *cell_side,
              const int64_t *n_cells, double r_cut, int kind,
              double amplitude, double scale, int64_t table_len,
              const double *r_table, const double *a_table, double b_tot)
{
    State *s = calloc(1, sizeof(State));
    if (s == NULL)
        return NULL;
    s->d = d;
    s->periodic = periodic;
    s->kind = kind;
    s->r_cut = r_cut;
    /* a pre-test on squared distance, widened so that rounding in r_cut^2
     * never rejects a pair that the exact test r <= r_cut accepts */
    s->reach2 = r_cut * r_cut * (1.0 + 1e-9);
    s->amplitude = amplitude;
    s->scale = scale;
    s->b_tot = b_tot;
    s->cells = 1;
    s->stencil_width = 1;
    for (int a = 0; a < d; a++) {
        s->side[a] = side[a];
        s->half[a] = periodic ? side[a] / 2.0 : INFINITY;
        s->lo[a] = lo[a];
        s->domain_side[a] = domain_side[a];
        s->cell_side[a] = cell_side[a];
        s->n_cells[a] = n_cells[a];
        s->cells *= n_cells[a];
        s->stencil_width *= 3;
    }
    s->table_len = table_len;
    size_t table = (size_t)table_len * sizeof(double);
    if ((table_len > 0 && ((s->r_table = malloc(table)) == NULL
                           || (s->a_table = malloc(table)) == NULL))
        || reserve_rows(s, 16)
        || (s->members = calloc((size_t)s->cells, sizeof(int64_t *))) == NULL
        || (s->count = calloc((size_t)s->cells, sizeof(int64_t))) == NULL
        || (s->member_cap = calloc((size_t)s->cells, sizeof(int64_t))) == NULL
        || (s->cell_rate = calloc((size_t)s->cells, sizeof(double))) == NULL
        || grow((void **)&s->stencil, s->cells * s->stencil_width,
                sizeof(int64_t))
        || grow((void **)&s->stencil_len, s->cells, sizeof(int64_t))) {
        cp_free(s);
        return NULL;
    }
    if (table_len > 0) {
        memcpy(s->r_table, r_table, table);
        memcpy(s->a_table, a_table, table);
    }
    build_stencils(s);
    return s;
}

/* Empty the state for a new replica, which draws its uniforms by
 * next_double(rng): no particles, empty cells with rate sums 0, the clock,
 * the death total and every counter 0.  The geometry, the stencils, the
 * kernel, the fields and the buffers stay as they are. */
void cp_reset(State *s, void *rng, double (*next_double)(void *))
{
    s->rng = rng;
    s->next_double = next_double;
    s->n = 0;
    s->d_tot = s->t = s->max_audit_residual = 0.0;
    s->events = s->births = s->deaths = s->audits = 0;
    s->selection_fallbacks = 0;
    memset(s->count, 0, (size_t)s->cells * sizeof(int64_t));
    memset(s->cell_rate, 0, (size_t)s->cells * sizeof(double));
}

/* Field `slot` of the state: BIRTH, MORTALITY, or DENSITY, the density of a
 * Poisson start.  `kind` is one of CONSTANT (scale), BUMP (scale the
 * amplitude, origin the centre, width2 the squared width) or TABLE (origin
 * and side its box, shape and values its grid, row-major); sup is the
 * field's sup over the domain.  Returns -1 when memory runs out. */
int cp_field(State *s, int slot, int kind, double scale, double width2,
             const double *origin, const double *side, const int64_t *shape,
             const double *values, double sup)
{
    Field *f = &s->field[slot];
    int64_t size = 1;
    for (int a = 0; a < s->d; a++)
        size *= shape[a];
    if (kind == TABLE && grow((void **)&f->values, size, sizeof(double)))
        return -1;
    if (kind == TABLE)
        memcpy(f->values, values, (size_t)size * sizeof(double));
    for (int a = 0; a < s->d; a++) {
        f->origin[a] = origin[a];
        f->side[a] = side[a];
        f->shape[a] = shape[a];
    }
    f->kind = kind;
    f->scale = scale;
    f->width2 = width2;
    f->sup = sup;
    return 0;
}

/* Add a particle at x, its d coordinates, with its mortality m(x); returns
 * its row, or -1 when memory runs out.  A birth in cp_advance, a point of
 * cp_place and SimulationState.insert all add their particle here. */
int64_t cp_insert(State *s, const double *x)
{
    int64_t i = s->n;
    if (reserve_rows(s, i + 1))
        return -1;
    int64_t cell = cell_index(s, x);
    if (s->count[cell] == s->member_cap[cell]) {
        int64_t cap = s->member_cap[cell] ? 2 * s->member_cap[cell] : 4;
        if (grow((void **)&s->members[cell], cap, sizeof(int64_t)))
            return -1;
        s->member_cap[cell] = cap;
    }
    int64_t found = scan(s, x, cell, -1);
    double d_tot = s->d_tot, own = 0.0;
    for (int64_t k = 0; k < found; k++) {
        int64_t j = s->nb_idx[k];
        double a = s->nb_val[k];
        s->rate[j] += a;
        s->cell_rate[s->cell_of[j]] += a;
        d_tot += a;
        own += a;
    }
    double mortality = field_at(&s->field[MORTALITY], s->d, x);
    double rate = mortality + own;
    memcpy(s->pos + i * s->d, x, (size_t)s->d * sizeof(double));
    s->rate[i] = rate;
    s->mortality[i] = mortality;
    s->cell_of[i] = cell;
    s->slot_of[i] = s->count[cell];
    s->members[cell][s->count[cell]++] = i;
    s->cell_rate[cell] += rate;
    s->d_tot = d_tot + rate;
    s->n = i + 1;
    return i;
}

/* Delete the particle in row i; the last row moves into row i.  Float
 * drift can leave a rate, a cell sum or d_tot a few ulps below zero; the
 * death selection and the event loop read such a value as zero.  Returns
 * -1, changing nothing, when there is no row i. */
int cp_remove(State *s, int64_t i)
{
    if (i < 0 || i >= s->n)
        return -1;
    int64_t cell = s->cell_of[i], found = scan(s, s->pos + i * s->d, cell, i);
    double d_tot = s->d_tot;
    for (int64_t k = 0; k < found; k++) {
        int64_t j = s->nb_idx[k];
        double a = s->nb_val[k];
        s->rate[j] -= a;
        s->cell_rate[s->cell_of[j]] -= a;
        d_tot -= a;
    }
    s->cell_rate[cell] -= s->rate[i];
    s->d_tot = d_tot - s->rate[i];
    /* unlink from the cell's members by swap-remove */
    int64_t *rows = s->members[cell], last = rows[--s->count[cell]];
    if (last != i) {
        rows[s->slot_of[i]] = last;
        s->slot_of[last] = s->slot_of[i];
    }
    /* move the last row into row i */
    int64_t last_row = --s->n;
    if (i != last_row) {
        memcpy(s->pos + i * s->d, s->pos + last_row * s->d,
               (size_t)s->d * sizeof(double));
        s->rate[i] = s->rate[last_row];
        s->mortality[i] = s->mortality[last_row];
        s->cell_of[i] = s->cell_of[last_row];
        s->slot_of[i] = s->slot_of[last_row];
        s->members[s->cell_of[i]][s->slot_of[i]] = i;
    }
    return 0;
}

/* The death event for the uniform u: a two-level search for u * d_tot over
 * the cell sums, then over the member rates, finds the dying particle, which
 * is removed; returns its row.  When float drift carries the target past
 * every sum, the last occupied cell or the cell's last member is taken and
 * counted in selection_fallbacks.  Returns -1, changing nothing, when there
 * is no particle. */
int64_t cp_death(State *s, double u)
{
    double target = u * s->d_tot;
    int64_t c;
    if (s->n == 0)
        return -1;
    for (c = 0; c < s->cells; c++) {
        if (target < s->cell_rate[c] && s->count[c] > 0)
            break;
        target -= s->cell_rate[c];
    }
    if (c == s->cells) {
        s->selection_fallbacks++;
        do
            c--;
        while (s->count[c] == 0);
    }
    const int64_t *rows = s->members[c];
    int64_t i = -1;
    for (int64_t m = 0; m < s->count[c] && i < 0; m++) {
        if (target < s->rate[rows[m]])
            i = rows[m];
        else
            target -= s->rate[rows[m]];
    }
    if (i < 0) {
        s->selection_fallbacks++;
        i = rows[s->count[c] - 1];
    }
    cp_remove(s, i);
    return i;
}

/* Recompute every rate, cell sum and d_tot from scratch, each rate as
 * m(x) plus its kernel values added left to right and d_tot as the rates
 * added in row order; records and returns the largest change. */
double cp_audit(State *s)
{
    double residual = 0.0, d_tot = 0.0;
    for (int64_t i = 0; i < s->n; i++) {
        int64_t found = scan(s, s->pos + i * s->d, s->cell_of[i], i);
        double sum = 0.0;
        for (int64_t k = 0; k < found; k++)
            sum += s->nb_val[k];
        s->fresh[i] = s->mortality[i] + sum;
    }
    for (int64_t i = 0; i < s->n; i++) {
        double change = fabs(s->fresh[i] - s->rate[i]);
        d_tot += s->fresh[i];
        if (change > residual)
            residual = change;
    }
    if (fabs(d_tot - s->d_tot) > residual)
        residual = fabs(d_tot - s->d_tot);
    if (residual > s->max_audit_residual)
        s->max_audit_residual = residual;
    s->audits++;
    memcpy(s->rate, s->fresh, (size_t)s->n * sizeof(double));
    memset(s->cell_rate, 0, (size_t)s->cells * sizeof(double));
    for (int64_t i = 0; i < s->n; i++)
        s->cell_rate[s->cell_of[i]] += s->rate[i];
    s->d_tot = d_tot;
    return residual;
}

/* A domain point x of density proportional to field f, by rejection
 * against its sup: d uniforms place a try and one more accepts it when
 * u * sup <= f(x). */
static void sample(const State *s, const Field *f, double *x)
{
    for (;;) {
        for (int a = 0; a < s->d; a++)
            x[a] = s->lo[a] + s->next_double(s->rng) * s->domain_side[a];
        if (s->next_double(s->rng) * f->sup <= field_at(f, s->d, x))
            return;
    }
}

/* Insert `count` points of the DENSITY field, each drawn by `sample`.
 * Returns DONE, or NO_MEMORY. */
int cp_place(State *s, int64_t count)
{
    double x[3];
    for (; count > 0; count--) {
        sample(s, &s->field[DENSITY], x);
        if (cp_insert(s, x) < 0)
            return NO_MEMORY;
    }
    return DONE;
}

/* Run events until the clock passes `until` or the event count passes
 * `limit`.
 *
 * An event takes a uniform for the wait -log1p(-u) / (B + D), B = b_tot and
 * D = d_tot; when the clock would pass `until` it is set to `until` and the
 * loop returns DONE, having used that uniform (the clock is memoryless, so
 * the discarded wait is redrawn exactly).  With B > 0 a second uniform u
 * makes the event a birth when u (B + D) <= B, so exact ties go to birth
 * and a D a few ulps below zero makes every event a birth; a birth places
 * its particle by `sample` on the BIRTH field.  A death takes one more
 * uniform for `cp_death`.  Every audit_period events the state is audited.
 * No event can happen when B + D <= 0, or when the window is empty and
 * B <= 0 (whatever drift leaves in D): then the clock is set to `until`
 * and the loop returns DONE, having used nothing.
 *
 * Returns LIMIT after the event that takes the count past `limit`;
 * NO_MEMORY or EMPTY on failure, with the event's uniforms drawn but
 * nothing of it committed. */
int cp_advance(State *s, double until, int64_t limit, int64_t audit_period)
{
    for (;;) {
        double total = s->b_tot + s->d_tot, x[3];
        if (total <= 0.0 || (s->n == 0 && s->b_tot <= 0.0)) {
            s->t = until;
            return DONE;
        }
        double t = s->t - log1p(-s->next_double(s->rng)) / total;
        if (t > until) {
            s->t = until;
            return DONE;
        }
        if (s->b_tot > 0.0 && s->next_double(s->rng) * total <= s->b_tot) {
            sample(s, &s->field[BIRTH], x);
            if (cp_insert(s, x) < 0)
                return NO_MEMORY;
            s->births++;
        } else {
            if (cp_death(s, s->next_double(s->rng)) < 0)
                return EMPTY;
            s->deaths++;
        }
        s->t = t;
        if (++s->events % audit_period == 0)
            cp_audit(s);
        if (s->events > limit)
            return LIMIT;
    }
}

/* The neighbour scan of a position x: the rows other than `exclude` within
 * r_cut of x and their kernel values, in scan order, into idx and val (n
 * entries each); returns their number. */
int64_t cp_neighbors(State *s, const double *x, int64_t exclude,
                     int64_t *idx, double *val)
{
    int64_t found = scan(s, x, cell_index(s, x), exclude);
    memcpy(idx, s->nb_idx, (size_t)found * sizeof(int64_t));
    memcpy(val, s->nb_val, (size_t)found * sizeof(double));
    return found;
}

/* The pair histograms of `estimators._pair_histograms`, for rows [i0, i1)
 * of the n x d table `pos`, which holds the replicas one after another:
 * row i pairs with the rows after it up to end[replica[i]], the end of its
 * replica.  A pair's separation is the float numpy makes: per axis u = y -
 * x, folded on a periodic window to u - side nearbyint(u / side) as in
 * `Window.minimum_image`, squares added in axis order, sqrt.  Its key k
 * satisfies lower[k] <= r < lower[k + 1] over the bins + 3 entries of
 * lower, [-inf, edges, nan]: the guess from the edges' mean spacing,
 * `scale`, is clamped to [-1, bins] in double before it is cast (a nan
 * guess counts as -1, and bins / span may be inf), then moved one key at a
 * time.  Adds 1 to hist[replica[i] * (bins + 2) + k] for each pair; keys 0
 * and bins + 1 hold the separations outside the edges.  Reads the tables
 * and writes only `hist`, so calls on disjoint ranges, each with its own
 * `hist`, can run at once. */
void cp_pairs(const double *pos, int d, int periodic, const double *side,
              const int64_t *replica, const int64_t *end, int64_t i0,
              int64_t i1, const double *lower, int64_t bins, double scale,
              int64_t *hist)
{
    for (int64_t i = i0; i < i1; i++) {
        const double *x = pos + i * d;
        int64_t *row = hist + replica[i] * (bins + 2);
        int64_t stop = end[replica[i]];
        for (int64_t j = i + 1; j < stop; j++) {
            const double *y = pos + j * d;
            double r2 = 0.0;
            for (int a = 0; a < d; a++) {
                double u = y[a] - x[a];
                if (periodic) {
                    /* below a side, nearbyint(u / side) is 0 within half a
                     * side and the sign of u past it, with no division: a
                     * double u > side / 2 has u / side > 1/2 + 2^-54, which
                     * rounds above 1/2 */
                    double half = side[a] / 2.0;
                    double q = fabs(u) < side[a]
                        ? (double)((u > half) - (u < -half))
                        : nearbyint(u / side[a]);
                    u -= side[a] * q;
                }
                r2 += u * u;
            }
            double r = sqrt(r2);
            /* clamps as selects, which compile without a branch: on a
             * torus about one pair in five lies past the last edge */
            double guess = (r - lower[1]) * scale;
            guess = guess > -1.0 ? guess : -1.0;
            guess = guess < (double)bins ? guess : (double)bins;
            int64_t k = (int64_t)(guess + 1.0);
            while (r < lower[k])
                k--;
            while (r >= lower[k + 1])
                k++;
            row[k]++;
        }
    }
}

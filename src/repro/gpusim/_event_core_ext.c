/* Compiled twin of repro/gpusim/_event_core.py.
 *
 * This extension transcribes the pure-Python event core
 * (`_run_exact_py`) over the same packed struct-of-arrays interface.
 * The contract is bit identity: every floating-point operation is an
 * IEEE-754 double op issued in the same order as the Python
 * implementation (the build disables FP contraction so no fused
 * multiply-adds sneak in), every integer quantity is an int64, and
 * events pop in the same strict (ready, sequence) total order as the
 * Python core's heapq of (ready, sequence, warp) tuples.
 * tests/test_event_core.py asserts the identity per run; the CI
 * `event-core` job diffs whole-study digests against the REPRO_NO_EXT
 * fallback.
 *
 * Pop order.  The scheduler heap holds one unsigned 128-bit key per
 * warp, `ready bits << 64 | sequence << 20 | warp`.  Every ready time
 * is a sum or maximum of non-negative terms starting at +0.0, so its
 * IEEE bit pattern, read as an unsigned integer, orders exactly like
 * the value; sequence numbers are unique, so the warp bits never
 * decide a comparison.  Key order is therefore the Python core's
 * (ready, sequence) order.  The key's preconditions (non-negative,
 * non-NaN, non-negative-zero times, a positive link rate, fewer than
 * 2**20 warps and 2**44 sequence numbers) are checked before the loop
 * starts, with the same errors the Python core raises.
 *
 * The Python-side dict/list structures map to flat arrays:
 *
 *  - insertion-ordered dict per cache set (key order == LRU order,
 *    oldest first)  ->  per-set line/mask/dirty arrays + a fill
 *    count, index 0 the LRU way; a touch shifts the entry to the
 *    back, an insert evicts index 0 when the set is full;
 *  - the metadata cache's per-set tag list (append on hit/miss,
 *    pop(0) past capacity)  ->  a tag array with one slack slot;
 *  - per-warp outstanding-completion lists  ->  one flat double
 *    array partitioned by each warp's trace-row span (a warp issues
 *    at most one completion per row).
 *
 * Validation and the simulation itself run with the GIL released, so
 * several packs can run at once on separate threads
 * (`_event_core.run_exact_many`).  Only the argument parsing, the
 * validation memo in the caller's geometry/state caches and the result
 * tuple touch Python objects.
 *
 * ABI is checked by _event_core.py at import; bump it when the
 * array-pack layout or the call semantics change.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EXT_ABI 4

/* arrays-tuple slots (mirrors _event_core.A_*) */
enum {
    A_CODES, A_BUSY, A_LID, A_MASK, A_L1FLAT, A_L2SET,
    A_CHAN, A_ROW, A_BANK,
    A_DEV, A_SERV_HIT, A_SERV_MISS,
    A_BUD, A_BNUM, A_HBYTES, A_HNUM,
    A_MTAG, A_MSLOT, A_MCHAN, A_MROW, A_MBANK,
    A_WB_DEV, A_WB_SERV, A_WB_BUD, A_WB_BNUM,
    A_WB_IDEAL_BYTES, A_WB_IDEAL_SERV,
    A_WARP_START, A_WARP_SM, A_WARP_MLP,
    A_COUNT
};

/* iscalars slots (mirrors _event_core.I_*) */
enum {
    I_WARP_COUNT, I_SM_COUNT, I_CHANNELS, I_BANKS,
    I_LINE_BYTES, I_ROW_BYTES, I_ENTRIES,
    I_L1_SETS, I_L1_WAYS, I_L2_SETS, I_L2_WAYS,
    I_META_SLOTS, I_META_WAYS,
    I_IDEAL, I_USE_META, I_FULL_MASK, I_META_LINE_BYTES,
    I_COUNT
};

/* fscalars slots (mirrors _event_core.F_*) */
enum {
    F_INTERVAL, F_L1_LAT, F_L2_LAT, F_DRAM_LAT,
    F_LINK_BPC, F_LINK_LAT, F_FILL_TAIL,
    F_META_SERV_HIT, F_META_SERV_MISS,
    F_ROW_HIT_OV, F_ROW_MISS_OV,
    F_COUNT
};

/* Slot names as the error messages spell them (the A_* / I_* / F_*
 * names in lower case, without the prefix). */
static const char *const A_NAMES[A_COUNT] = {
    "codes", "busy", "lid", "mask", "l1flat", "l2set",
    "chan", "row", "bank",
    "dev", "serv_hit", "serv_miss",
    "bud", "bnum", "hbytes", "hnum",
    "mtag", "mslot", "mchan", "mrow", "mbank",
    "wb_dev", "wb_serv", "wb_bud", "wb_bnum",
    "wb_ideal_bytes", "wb_ideal_serv",
    "warp_start", "warp_sm", "warp_mlp",
};

static const char *const I_NAMES[I_COUNT] = {
    "warp_count", "sm_count", "channels", "banks",
    "line_bytes", "row_bytes", "entries",
    "l1_sets", "l1_ways", "l2_sets", "l2_ways",
    "meta_slots", "meta_ways",
    "ideal", "use_meta", "full_mask", "meta_line_bytes",
};

static const char *const F_NAMES[F_COUNT] = {
    "interval", "l1_lat", "l2_lat", "dram_lat",
    "link_bpc", "link_lat", "fill_tail",
    "meta_serv_hit", "meta_serv_miss",
    "row_hit_ov", "row_miss_ov",
};

/* Limits shared with _event_core.py. */
#define MAX_WARPS (INT64_C(1) << 20)   /* warp bits of the heap key */
#define MAX_EVENTS (INT64_C(1) << 44)  /* sequence bits of the key */
#define MAX_DIM (INT64_C(1) << 24)     /* cache/DRAM/SM dimensions */
#define MAX_FULL_MASK_BITS 62
/* +inf: the largest bit pattern of a valid (non-negative) time. */
#define TIME_BITS_MAX UINT64_C(0x7FF0000000000000)

static inline int
is_float_slot(int k)
{
    return k == A_BUSY || k == A_SERV_HIT || k == A_SERV_MISS ||
           k == A_WB_SERV || k == A_WB_IDEAL_SERV;
}

/* Lookup tables are indexed by entry / dirty mask / warp; every other
 * column has exactly one value per trace row. */
static inline int
is_row_slot(int k)
{
    return k <= A_MBANK;
}

/* Columns owned by the trace/machine geometry (shared by every
 * compression state); the rest belong to the compression state. */
static inline int
is_geometry_slot(int k)
{
    return k != A_CODES && !(k >= A_DEV && k <= A_BNUM) &&
           !(k >= A_WB_DEV && k <= A_WB_IDEAL_SERV);
}

typedef struct {
    Py_buffer view;
    int has;
} Buf;

static void
release_bufs(Buf *bufs, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (bufs[i].has)
            PyBuffer_Release(&bufs[i].view);
}

/* Acquire slot k as a 1-D C-contiguous int64/float64 buffer. */
static int
get_buf(PyObject *obj, int k, Buf *b)
{
    b->has = 0;
    if (obj == Py_None)
        return 0;
    if (PyObject_GetBuffer(obj, &b->view,
                           PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError,
                     "event core: column '%s' must be a 1-D C-contiguous "
                     "%s buffer", A_NAMES[k],
                     is_float_slot(k) ? "float64" : "int64");
        return -1;
    }
    b->has = 1;
    const char *f = b->view.format != NULL ? b->view.format : "B";
    if (*f == '@' || *f == '=')
        f++;
    int ok = b->view.ndim == 1 && b->view.itemsize == 8 &&
             (is_float_slot(k) ? strcmp(f, "d") == 0
                               : strcmp(f, "l") == 0 || strcmp(f, "q") == 0);
    if (!ok) {
        PyErr_Format(PyExc_TypeError,
                     "event core: column '%s' must be a 1-D C-contiguous "
                     "%s buffer (got format '%s', itemsize %zd, ndim %d)",
                     A_NAMES[k], is_float_slot(k) ? "float64" : "int64",
                     b->view.format != NULL ? b->view.format : "B",
                     b->view.itemsize, b->view.ndim);
        return -1;
    }
    return 0;
}

static int
unpack_i64(PyObject *tup, int64_t *out, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = (int64_t)PyLong_AsLongLong(PyTuple_GET_ITEM(tup, i));
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static int
unpack_f64(PyObject *tup, double *out, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(tup, i));
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static inline uint64_t
dbl_bits(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

static inline double
bits_dbl(uint64_t u)
{
    double x;
    memcpy(&x, &u, sizeof x);
    return x;
}

/* ------------------------------------------------------------------ */
/* The scheduler heap: one packed key per warp (see the header).      */
/* heap[n] always holds KEY_MAX, so the smaller child is picked       */
/* without a bounds branch.                                           */
/* ------------------------------------------------------------------ */
typedef unsigned __int128 Key;

#define KEY_MAX (~(Key)0)

static inline Key
make_key(double ready, int64_t seq, int64_t w)
{
    return ((Key)dbl_bits(ready) << 64) | ((Key)(uint64_t)seq << 20) |
           (Key)(uint64_t)w;
}

static inline double
key_ready(Key k)
{
    return bits_dbl((uint64_t)(k >> 64));
}

static inline int64_t
key_warp(Key k)
{
    return (int64_t)((uint64_t)k & (uint64_t)(MAX_WARPS - 1));
}

static void
heap_siftdown(Key *h, Py_ssize_t n, Py_ssize_t pos)
{
    Key item = h[pos];
    Py_ssize_t child;
    while ((child = 2 * pos + 1) < n) {
        child += h[child + 1] < h[child];
        if (!(h[child] < item))
            break;
        h[pos] = h[child];
        pos = child;
    }
    h[pos] = item;
}

static Key
heap_pop(Key *h, Py_ssize_t *n)
{
    Key top = h[0];
    (*n)--;
    h[0] = h[*n];
    h[*n] = KEY_MAX;
    if (*n > 0)
        heap_siftdown(h, *n, 0);
    return top;
}

/* ------------------------------------------------------------------ */
/* LRU sets over flat arrays (index 0 = least recently used).         */
/* ------------------------------------------------------------------ */
static inline Py_ssize_t
lru_find(const int64_t *line, int32_t cnt, int64_t lid)
{
    for (int32_t j = 0; j < cnt; j++)
        if (line[j] == lid)
            return j;
    return -1;
}

static inline void
lru_touch(int64_t *line, int64_t *mask, int64_t *dirty,
          int32_t cnt, Py_ssize_t j, int64_t newmask)
{
    int64_t lid = line[j];
    int64_t d = dirty != NULL ? dirty[j] : 0;
    for (Py_ssize_t k = j; k + 1 < cnt; k++) {
        line[k] = line[k + 1];
        mask[k] = mask[k + 1];
        if (dirty != NULL)
            dirty[k] = dirty[k + 1];
    }
    line[cnt - 1] = lid;
    mask[cnt - 1] = newmask;
    if (dirty != NULL)
        dirty[cnt - 1] = d;
}

/* Insert `lid` as most-recent.  When the set is full the LRU way
 * (index 0) is evicted; its line/dirty-mask land in *victim /
 * *victim_dirty and 1 is returned. */
static inline int
lru_insert(int64_t *line, int64_t *mask, int64_t *dirty,
           int32_t *cnt, int32_t ways, int64_t lid, int64_t newmask,
           int64_t newdirty, int64_t *victim, int64_t *victim_dirty)
{
    int evicted = 0;
    int32_t n = *cnt;
    if (n >= ways) {
        *victim = line[0];
        *victim_dirty = dirty != NULL ? dirty[0] : 0;
        evicted = 1;
        for (int32_t k = 0; k + 1 < n; k++) {
            line[k] = line[k + 1];
            mask[k] = mask[k + 1];
            if (dirty != NULL)
                dirty[k] = dirty[k + 1];
        }
        n--;
    }
    line[n] = lid;
    mask[n] = newmask;
    if (dirty != NULL)
        dirty[n] = newdirty;
    *cnt = n + 1;
    return evicted;
}

/* ------------------------------------------------------------------ */
/* The validated pack: column pointers, lengths and scalars.          */
/* ------------------------------------------------------------------ */
typedef struct {
    const void *col[A_COUNT]; /* NULL where the slot is None */
    Py_ssize_t len[A_COUNT];
    int64_t isc[I_COUNT];
    double fsc[F_COUNT];
    Py_ssize_t n_rows;
} Pack;

/* A column fault found with the GIL released, raised after. */
enum { FAULT_NONE, FAULT_RANGE, FAULT_NEGATIVE, FAULT_TIME,
       FAULT_WARP_START, FAULT_REQUIRED };

typedef struct {
    int kind;
    int slot;
    uint64_t bound;
} Fault;

static int
fault(Fault *f, int kind, int slot, uint64_t bound)
{
    f->kind = kind;
    f->slot = slot;
    f->bound = bound;
    return -1;
}

/* Whether some value of the column, read as unsigned, is >= bound:
 * negative values and out-of-range indices both qualify. */
static int
any_at_or_above(const void *col, Py_ssize_t n, uint64_t bound)
{
    const uint64_t *u = (const uint64_t *)col;
    uint64_t top = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        top = u[i] > top ? u[i] : top;
    return n > 0 && top >= bound;
}

/* Exclusive index bound of slot k (0: the slot is not an index). */
static uint64_t
index_bound(const Pack *p, int k)
{
    const int64_t *isc = p->isc;
    switch (k) {
    case A_CODES:
        return 6;
    case A_LID:
        /* victim * line_bytes must not overflow an int64 */
        return (uint64_t)(INT64_MAX / isc[I_LINE_BYTES]) + 1;
    case A_MASK:
        return (uint64_t)isc[I_FULL_MASK] + 1;
    case A_L1FLAT:
        return (uint64_t)isc[I_L1_SETS];
    case A_L2SET:
        return (uint64_t)isc[I_L2_SETS];
    case A_CHAN:
    case A_MCHAN:
        return (uint64_t)isc[I_CHANNELS];
    case A_BANK:
    case A_MBANK:
        return (uint64_t)(isc[I_CHANNELS] * isc[I_BANKS]);
    case A_MSLOT:
        return (uint64_t)isc[I_META_SLOTS];
    case A_WARP_SM:
        return (uint64_t)isc[I_SM_COUNT];
    default:
        return 0;
    }
}

/* Value checks of one group of columns (geometry or state), in slot
 * order.  Returns 0 or -1 with *f set. */
static int
scan_columns(const Pack *p, int geometry, Fault *f)
{
    const int64_t warp_count = p->isc[I_WARP_COUNT];
    int has_host = 0, has_rmw = 0;
    for (int k = 0; k < A_COUNT; k++) {
        if (p->col[k] == NULL || is_geometry_slot(k) != geometry)
            continue;
        Py_ssize_t n = k == A_WARP_SM ? (Py_ssize_t)warp_count : p->len[k];
        uint64_t bound = index_bound(p, k);
        if (bound != 0) {
            if (any_at_or_above(p->col[k], n, bound))
                return fault(f, FAULT_RANGE, k, bound);
        } else if (is_float_slot(k)) {
            if (any_at_or_above(p->col[k], n, TIME_BITS_MAX + 1))
                return fault(f, FAULT_TIME, k, 0);
        } else if (k == A_BNUM || k == A_HNUM || k == A_WB_BNUM) {
            /* byte counts that become link transfer times */
            if (any_at_or_above(p->col[k], n, UINT64_C(1) << 63))
                return fault(f, FAULT_NEGATIVE, k, 0);
        } else if (k == A_WARP_START) {
            const int64_t *ws = (const int64_t *)p->col[k];
            int bad = ws[0] < 0 || ws[warp_count] > (int64_t)p->n_rows;
            for (int64_t w = 0; w < warp_count; w++)
                bad |= ws[w + 1] < ws[w];
            if (bad)
                return fault(f, FAULT_WARP_START, k, (uint64_t)p->n_rows);
        }
        if (k == A_CODES) {
            const int64_t *codes = (const int64_t *)p->col[k];
            for (Py_ssize_t i = 0; i < n; i++) {
                has_host |= codes[i] == 3 || codes[i] == 4;
                has_rmw |= codes[i] == 5;
            }
        }
    }
    /* Event kinds that read optional columns need them present. */
    if (has_host && p->col[A_HBYTES] == NULL)
        return fault(f, FAULT_REQUIRED, A_HBYTES, 0);
    if (has_host && p->col[A_HNUM] == NULL)
        return fault(f, FAULT_REQUIRED, A_HNUM, 0);
    if (has_rmw && p->col[A_WB_DEV] == NULL)
        return fault(f, FAULT_REQUIRED, A_WB_DEV, 0);
    if (has_rmw && p->col[A_WB_SERV] == NULL)
        return fault(f, FAULT_REQUIRED, A_WB_SERV, 0);
    return 0;
}

static void
raise_fault(const Fault *f)
{
    const char *name = A_NAMES[f->slot];
    switch (f->kind) {
    case FAULT_RANGE:
        PyErr_Format(PyExc_ValueError,
                     "event core: column '%s' holds a value outside "
                     "[0, %llu)", name, (unsigned long long)f->bound);
        break;
    case FAULT_NEGATIVE:
        PyErr_Format(PyExc_ValueError,
                     "event core: column '%s' holds a negative value", name);
        break;
    case FAULT_TIME:
        PyErr_Format(PyExc_ValueError,
                     "event core: column '%s' holds a negative, NaN or "
                     "-0.0 time", name);
        break;
    case FAULT_WARP_START:
        PyErr_Format(PyExc_ValueError,
                     "event core: column 'warp_start' must be "
                     "non-decreasing within [0, %llu]",
                     (unsigned long long)f->bound);
        break;
    default:
        PyErr_Format(PyExc_TypeError,
                     "event core: column '%s' is required (got None)", name);
        break;
    }
}

/* Checks that need no column scan: scalars, presence and lengths.
 * Raises and returns -1 on the first fault. */
static int
check_shape(const Pack *p)
{
    const int64_t *isc = p->isc;
    for (int k = 0; k < I_COUNT; k++) {
        int64_t lo, hi;
        if (k == I_WARP_COUNT) {
            lo = 0;
            hi = MAX_WARPS - 1;
        } else if (k == I_ENTRIES) {
            lo = 1;
            hi = INT64_MAX;
        } else if (k == I_IDEAL || k == I_USE_META ||
                   k == I_META_LINE_BYTES) {
            continue;
        } else if (k == I_FULL_MASK) {
            int64_t m = isc[k];
            if (m < 0 || m >= (INT64_C(1) << MAX_FULL_MASK_BITS) ||
                (m & (m + 1)) != 0) {
                PyErr_Format(PyExc_ValueError,
                             "event core: iscalar 'full_mask' must be "
                             "2**k - 1 with 0 <= k < %d, got %lld",
                             MAX_FULL_MASK_BITS, (long long)m);
                return -1;
            }
            continue;
        } else {
            lo = 1;
            hi = MAX_DIM;
        }
        if (isc[k] < lo || isc[k] > hi) {
            PyErr_Format(PyExc_ValueError,
                         "event core: iscalar '%s' must be in [%lld, %lld], "
                         "got %lld", I_NAMES[k], (long long)lo,
                         (long long)hi, (long long)isc[k]);
            return -1;
        }
    }
    for (int k = 0; k < F_COUNT; k++) {
        double v = p->fsc[k];
        if (k == F_LINK_BPC) {
            if (!(v > 0.0)) {
                PyErr_SetString(PyExc_ValueError,
                                "event core: fscalar 'link_bpc' must be a "
                                "positive rate");
                return -1;
            }
        } else if (dbl_bits(v) > TIME_BITS_MAX) {
            PyErr_Format(PyExc_ValueError,
                         "event core: fscalar '%s' must be a non-negative "
                         "time (not NaN or -0.0)", F_NAMES[k]);
            return -1;
        }
    }

    const int ideal = isc[I_IDEAL] != 0;
    const int use_meta = isc[I_USE_META] != 0;
    for (int k = 0; k < A_COUNT; k++) {
        int required;
        if (k <= A_SERV_MISS || k >= A_WARP_START)
            required = 1;
        else if (k == A_BUD || k == A_BNUM || (k >= A_MTAG && k <= A_MBANK) ||
                 k == A_WB_BUD || k == A_WB_BNUM)
            required = use_meta;
        else if (k == A_WB_DEV || k == A_WB_SERV)
            required = !ideal;
        else if (k == A_WB_IDEAL_BYTES || k == A_WB_IDEAL_SERV)
            required = ideal;
        else
            required = 0; /* hbytes/hnum: only when host events exist */
        if (required && p->col[k] == NULL) {
            PyErr_Format(PyExc_TypeError,
                         "event core: column '%s' is required (got None)",
                         A_NAMES[k]);
            return -1;
        }
    }

    for (int k = 0; k < A_COUNT; k++) {
        if (p->col[k] == NULL)
            continue;
        int64_t want;
        const char *relation = "at least ";
        if (is_row_slot(k)) {
            want = (int64_t)p->n_rows;
            relation = "";
            if (p->len[k] == want)
                continue;
        } else {
            if (k >= A_WB_DEV && k <= A_WB_BNUM)
                want = isc[I_ENTRIES];
            else if (k == A_WB_IDEAL_BYTES || k == A_WB_IDEAL_SERV)
                want = isc[I_FULL_MASK] + 1;
            else if (k == A_WARP_START)
                want = isc[I_WARP_COUNT] + 1;
            else
                want = isc[I_WARP_COUNT];
            if (p->len[k] >= want)
                continue;
        }
        PyErr_Format(PyExc_ValueError,
                     "event core: column '%s' has %zd rows, expected %s%lld",
                     A_NAMES[k], p->len[k], relation, (long long)want);
        return -1;
    }
    if ((int64_t)p->n_rows >= MAX_EVENTS - isc[I_WARP_COUNT]) {
        PyErr_SetString(PyExc_ValueError,
                        "event core: warp_count + rows must be below 2**44");
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Validation memo: cache["checked"] = (scalars, *slot objects).      */
/* The memo holds the columns it vouches for, so their identity (and  */
/* address) cannot be recycled while it lives.                        */
/* ------------------------------------------------------------------ */
static PyObject *
memo_scalars(const Pack *p, int geometry)
{
    PyObject *t = PyTuple_New(1 + I_COUNT - (geometry ? 3 : 0));
    if (t == NULL)
        return NULL;
    Py_ssize_t n = 0;
    PyObject *v = PyLong_FromSsize_t(p->n_rows);
    if (v == NULL)
        goto fail;
    PyTuple_SET_ITEM(t, n++, v);
    for (int k = 0; k < I_COUNT; k++) {
        if (geometry &&
            (k == I_ENTRIES || k == I_IDEAL || k == I_USE_META))
            continue;
        v = PyLong_FromLongLong((long long)p->isc[k]);
        if (v == NULL)
            goto fail;
        PyTuple_SET_ITEM(t, n++, v);
    }
    return t;
fail:
    Py_DECREF(t);
    return NULL;
}

/* 1 on a memo hit, 0 on a miss, -1 on error. */
static int
memo_hit(PyObject *cache, PyObject *arrays, int geometry,
         PyObject *scalars)
{
    if (cache == Py_None)
        return 0;
    PyObject *memo = PyDict_GetItemString(cache, "checked");
    if (memo == NULL || !PyTuple_Check(memo) ||
        PyTuple_GET_SIZE(memo) < 1)
        return 0;
    int eq = PyObject_RichCompareBool(PyTuple_GET_ITEM(memo, 0), scalars,
                                      Py_EQ);
    if (eq <= 0)
        return eq;
    Py_ssize_t m = 1;
    for (int k = 0; k < A_COUNT; k++) {
        if (geometry && !is_geometry_slot(k))
            continue;
        if (m >= PyTuple_GET_SIZE(memo) ||
            PyTuple_GET_ITEM(memo, m) != PyTuple_GET_ITEM(arrays, k))
            return 0;
        m++;
    }
    return m == PyTuple_GET_SIZE(memo);
}

static int
memo_store(PyObject *cache, PyObject *arrays, int geometry,
           PyObject *scalars)
{
    if (cache == Py_None)
        return 0;
    Py_ssize_t size = 1;
    for (int k = 0; k < A_COUNT; k++)
        size += !geometry || is_geometry_slot(k);
    PyObject *memo = PyTuple_New(size);
    if (memo == NULL)
        return -1;
    Py_INCREF(scalars);
    PyTuple_SET_ITEM(memo, 0, scalars);
    Py_ssize_t m = 1;
    for (int k = 0; k < A_COUNT; k++) {
        if (geometry && !is_geometry_slot(k))
            continue;
        PyObject *item = PyTuple_GET_ITEM(arrays, k);
        Py_INCREF(item);
        PyTuple_SET_ITEM(memo, m++, item);
    }
    int rc = PyDict_SetItemString(cache, "checked", memo);
    Py_DECREF(memo);
    return rc;
}

/* ------------------------------------------------------------------ */
/* The simulation proper: no Python objects, runs without the GIL.   */
/* Returns 0, or -1 when working memory cannot be allocated.          */
/* ------------------------------------------------------------------ */
typedef struct {
    double cycles;
    int64_t l1_hits, l1_misses, l2_hits, l2_misses, dram_bytes;
    int64_t link_read_bytes, link_write_bytes, meta_hits, meta_misses;
    int64_t buddy_fills, demand_fills;
} Counters;

static int
simulate(const Pack *p, Counters *result)
{
#define I64A(idx) ((const int64_t *)p->col[idx])
#define F64A(idx) ((const double *)p->col[idx])
    const int64_t *codes = I64A(A_CODES);
    const double *busy_col = F64A(A_BUSY);
    const int64_t *lid_a = I64A(A_LID);
    const int64_t *mask_a = I64A(A_MASK);
    const int64_t *l1flat_a = I64A(A_L1FLAT);
    const int64_t *l2set_a = I64A(A_L2SET);
    const int64_t *chan_a = I64A(A_CHAN);
    const int64_t *row_a = I64A(A_ROW);
    const int64_t *bank_a = I64A(A_BANK);
    const int64_t *dev_a = I64A(A_DEV);
    const double *servh_a = F64A(A_SERV_HIT);
    const double *servm_a = F64A(A_SERV_MISS);
    const int64_t *bud_a = I64A(A_BUD);
    const int64_t *bnum_a = I64A(A_BNUM);
    const int64_t *hbytes_a = I64A(A_HBYTES);
    const int64_t *hnum_a = I64A(A_HNUM);
    const int64_t *mtag_a = I64A(A_MTAG);
    const int64_t *mslot_a = I64A(A_MSLOT);
    const int64_t *mchan_a = I64A(A_MCHAN);
    const int64_t *mrow_a = I64A(A_MROW);
    const int64_t *mbank_a = I64A(A_MBANK);
    const int64_t *wb_dev = I64A(A_WB_DEV);
    const double *wb_serv = F64A(A_WB_SERV);
    const int64_t *wb_bud = I64A(A_WB_BUD);
    const int64_t *wb_bnum = I64A(A_WB_BNUM);
    const int64_t *wb_ideal_bytes = I64A(A_WB_IDEAL_BYTES);
    const double *wb_ideal_serv = F64A(A_WB_IDEAL_SERV);
    const int64_t *warp_start = I64A(A_WARP_START);
    const int64_t *warp_sm = I64A(A_WARP_SM);
    const int64_t *warp_mlp = I64A(A_WARP_MLP);
#undef I64A
#undef F64A

    const int64_t *isc = p->isc;
    const double *fsc = p->fsc;
    const int64_t warp_count = isc[I_WARP_COUNT];
    const int64_t sm_count = isc[I_SM_COUNT];
    const int64_t channels = isc[I_CHANNELS];
    const int64_t banks = isc[I_BANKS];
    const int64_t line_bytes = isc[I_LINE_BYTES];
    const int64_t row_bytes = isc[I_ROW_BYTES];
    const int64_t entries = isc[I_ENTRIES];
    const int64_t l1_sets_total = isc[I_L1_SETS];
    const int32_t l1_ways = (int32_t)isc[I_L1_WAYS];
    const int64_t l2_sets = isc[I_L2_SETS];
    const int32_t l2_ways = (int32_t)isc[I_L2_WAYS];
    const int64_t meta_slots = isc[I_META_SLOTS];
    const int32_t meta_ways = (int32_t)isc[I_META_WAYS];
    const int ideal = isc[I_IDEAL] != 0;
    const int use_meta = isc[I_USE_META] != 0;
    const int64_t full_mask = isc[I_FULL_MASK];
    const int64_t meta_line_bytes = isc[I_META_LINE_BYTES];

    const double interval = fsc[F_INTERVAL];
    const double l1_lat = fsc[F_L1_LAT];
    const double l2_lat = fsc[F_L2_LAT];
    const double dram_lat = fsc[F_DRAM_LAT];
    const double link_bpc = fsc[F_LINK_BPC];
    const double link_lat = fsc[F_LINK_LAT];
    const double fill_tail = fsc[F_FILL_TAIL];
    const double meta_serv_hit = fsc[F_META_SERV_HIT];
    const double meta_serv_miss = fsc[F_META_SERV_MISS];
    const double row_hit_ov = fsc[F_ROW_HIT_OV];
    const double row_miss_ov = fsc[F_ROW_MISS_OV];

    const Py_ssize_t n_rows = p->n_rows;
    int rc = -1;

    /* working state */
    int64_t *l1_line = NULL, *l1_mask = NULL;
    int32_t *l1_cnt = NULL;
    int64_t *l2_line = NULL, *l2_mask = NULL, *l2_dirty = NULL;
    int32_t *l2_cnt = NULL;
    int64_t *meta_tag = NULL;
    int32_t *meta_cnt = NULL;
    double *next_free = NULL, *sm_free = NULL, *out = NULL;
    int64_t *open_rows = NULL, *ips = NULL;
    int64_t *out_len = NULL, *out_head = NULL;
    Key *heap = NULL;

    l1_line = malloc(sizeof(int64_t) * (size_t)(l1_sets_total * l1_ways));
    l1_mask = malloc(sizeof(int64_t) * (size_t)(l1_sets_total * l1_ways));
    l1_cnt = calloc((size_t)l1_sets_total, sizeof(int32_t));
    l2_line = malloc(sizeof(int64_t) * (size_t)(l2_sets * l2_ways));
    l2_mask = malloc(sizeof(int64_t) * (size_t)(l2_sets * l2_ways));
    l2_dirty = malloc(sizeof(int64_t) * (size_t)(l2_sets * l2_ways));
    l2_cnt = calloc((size_t)l2_sets, sizeof(int32_t));
    meta_tag = malloc(sizeof(int64_t) * (size_t)(meta_slots * (meta_ways + 1)));
    meta_cnt = calloc((size_t)meta_slots, sizeof(int32_t));
    next_free = calloc((size_t)channels, sizeof(double));
    sm_free = calloc((size_t)sm_count, sizeof(double));
    out = malloc(sizeof(double) * (size_t)(n_rows > 0 ? n_rows : 1));
    open_rows = malloc(sizeof(int64_t) * (size_t)(channels * banks));
    ips = malloc(sizeof(int64_t) * (size_t)(warp_count > 0 ? warp_count : 1));
    out_len = calloc((size_t)(warp_count > 0 ? warp_count : 1),
                     sizeof(int64_t));
    out_head = calloc((size_t)(warp_count > 0 ? warp_count : 1),
                      sizeof(int64_t));
    heap = malloc(sizeof(Key) * (size_t)(warp_count + 1));
    if (!l1_line || !l1_mask || !l1_cnt || !l2_line || !l2_mask ||
        !l2_dirty || !l2_cnt || !meta_tag || !meta_cnt || !next_free ||
        !sm_free || !out || !open_rows || !ips || !out_len || !out_head ||
        !heap)
        goto cleanup;
    for (int64_t k = 0; k < channels * banks; k++)
        open_rows[k] = -1;
    for (int64_t w = 0; w < warp_count; w++) {
        ips[w] = warp_start[w];
        heap[w] = make_key(0.0, w, w);
    }
    heap[warp_count] = KEY_MAX;
    Py_ssize_t heap_len = (Py_ssize_t)warp_count;

    double link_read_free = 0.0;
    double link_write_free = 0.0;
    double finish = 0.0;
    int64_t l1_hits = 0, l1_misses = 0;
    int64_t l2_hits = 0, l2_misses = 0;
    int64_t dram_bytes = 0;
    int64_t link_read_bytes = 0, link_write_bytes = 0;
    int64_t meta_hits = 0, meta_misses = 0;
    int64_t buddy_fills = 0, demand_fills = 0;
    int64_t sequence = warp_count;
    int64_t rmw_counter = 0;

    int has_event = 0;
    Key ev = 0;
    if (heap_len > 0) {
        ev = heap_pop(heap, &heap_len);
        has_event = 1;
    }
    while (has_event) {
        double ready = key_ready(ev);
        int64_t w = key_warp(ev);
        int64_t i = ips[w];
        if (i == warp_start[w + 1]) {
            int64_t head = out_head[w];
            int64_t base = warp_start[w];
            if (out_len[w] > head) {
                double last = out[base + head];
                for (int64_t k = head + 1; k < out_len[w]; k++)
                    if (out[base + k] > last)
                        last = out[base + k];
                if (last > finish)
                    finish = last;
            }
            if (ready > finish)
                finish = ready;
            if (heap_len > 0) {
                ev = heap_pop(heap, &heap_len);
            } else {
                has_event = 0;
            }
            continue;
        }
        ips[w] = i + 1;
        int64_t sm = warp_sm[w];
        double free_t = sm_free[sm];
        double issue = ready > free_t ? ready : free_t;
        int64_t code = codes[i];
        double next_ready = 0.0;

        if (code == 0) { /* _COMPUTE */
            next_ready = issue + busy_col[i];
            sm_free[sm] = next_ready;
        } else if (code == 1) { /* _LOAD */
            sm_free[sm] = issue + interval;
            int64_t lid = lid_a[i];
            int64_t msk = mask_a[i];
            int64_t flat1 = l1flat_a[i];
            int64_t s2 = l2set_a[i];
            int64_t *d1_line = l1_line + flat1 * l1_ways;
            int64_t *d1_mask = l1_mask + flat1 * l1_ways;
            int32_t c1 = l1_cnt[flat1];
            Py_ssize_t j1 = lru_find(d1_line, c1, lid);
            int64_t e1 = j1 >= 0 ? d1_mask[j1] : 0;
            double done;
            if (j1 >= 0 && (e1 & msk) == msk) {
                l1_hits++;
                lru_touch(d1_line, d1_mask, NULL, c1, j1, e1);
                done = issue + l1_lat;
            } else {
                l1_misses++;
                int64_t *d2_line = l2_line + s2 * l2_ways;
                int64_t *d2_mask = l2_mask + s2 * l2_ways;
                int64_t *d2_dirty = l2_dirty + s2 * l2_ways;
                int32_t c2 = l2_cnt[s2];
                Py_ssize_t j2 = lru_find(d2_line, c2, lid);
                int64_t e2 = j2 >= 0 ? d2_mask[j2] : 0;
                if (j2 >= 0 && (e2 & msk) == msk) {
                    l2_hits++;
                    lru_touch(d2_line, d2_mask, d2_dirty, c2, j2, e2);
                    done = issue + l2_lat;
                } else {
                    l2_misses++;
                    double arrival = issue + l2_lat;
                    demand_fills++;
                    int64_t dev = dev_a[i];
                    int64_t fm = ideal ? msk : full_mask;
                    /* The sectored baseline requests even a
                     * zero-sector fill (degenerate traces): the
                     * oracle charges the channel overhead. */
                    if (dev != 0 || ideal) {
                        int64_t bk = bank_a[i];
                        int64_t rw = row_a[i];
                        int64_t ch = chan_a[i];
                        double serv;
                        if (open_rows[bk] == rw) {
                            serv = servh_a[i];
                        } else {
                            serv = servm_a[i];
                            open_rows[bk] = rw;
                        }
                        double cf = next_free[ch];
                        double start = cf > arrival ? cf : arrival;
                        double end = start + serv;
                        next_free[ch] = end;
                        dram_bytes += dev;
                        done = end + dram_lat;
                    } else {
                        done = arrival;
                    }
                    if (use_meta) {
                        int64_t mt = mtag_a[i];
                        int64_t ms = mslot_a[i];
                        int64_t *tags = meta_tag + ms * (meta_ways + 1);
                        int32_t mc_n = meta_cnt[ms];
                        Py_ssize_t jm = lru_find(tags, mc_n, mt);
                        double meta_ready;
                        if (jm >= 0) {
                            for (Py_ssize_t k = jm; k + 1 < mc_n; k++)
                                tags[k] = tags[k + 1];
                            tags[mc_n - 1] = mt;
                            meta_hits++;
                            meta_ready = arrival;
                        } else {
                            meta_misses++;
                            tags[mc_n] = mt;
                            mc_n++;
                            if (mc_n > meta_ways) {
                                for (int32_t k = 0; k + 1 < mc_n; k++)
                                    tags[k] = tags[k + 1];
                                mc_n--;
                            }
                            meta_cnt[ms] = mc_n;
                            int64_t mb = mbank_a[i];
                            int64_t mr = mrow_a[i];
                            int64_t mc = mchan_a[i];
                            double serv;
                            if (open_rows[mb] == mr) {
                                serv = meta_serv_hit;
                            } else {
                                serv = meta_serv_miss;
                                open_rows[mb] = mr;
                            }
                            double cf = next_free[mc];
                            double start = cf > arrival ? cf : arrival;
                            double end = start + serv;
                            next_free[mc] = end;
                            dram_bytes += meta_line_bytes;
                            meta_ready = end + dram_lat;
                            if (meta_ready > done)
                                done = meta_ready;
                        }
                        int64_t bud = bud_a[i];
                        if (bud != 0) {
                            int64_t bnum = bnum_a[i];
                            double start = link_read_free > meta_ready
                                               ? link_read_free
                                               : meta_ready;
                            double end = start + (double)bnum / link_bpc;
                            link_read_free = end;
                            link_read_bytes += bud;
                            buddy_fills++;
                            double t = end + link_lat;
                            if (t > done)
                                done = t;
                        }
                    }
                    /* Install (full line for compressed fills). */
                    if (j2 >= 0) {
                        lru_touch(d2_line, d2_mask, d2_dirty, c2, j2,
                                  e2 | fm);
                    } else {
                        int64_t victim, dirty_mask;
                        if (lru_insert(d2_line, d2_mask, d2_dirty,
                                       &l2_cnt[s2], l2_ways, lid, fm, 0,
                                       &victim, &dirty_mask) &&
                            dirty_mask != 0) {
                            /* Writeback (dirty eviction). */
                            int64_t num;
                            double serv;
                            if (ideal) {
                                num = wb_ideal_bytes[dirty_mask];
                                serv = wb_ideal_serv[dirty_mask];
                            } else {
                                int64_t ventry = victim % entries;
                                num = wb_dev[ventry];
                                serv = wb_serv[ventry];
                            }
                            if (num != 0) {
                                int64_t vch = victim % channels;
                                int64_t vrow =
                                    victim * line_bytes / row_bytes;
                                int64_t vbk = vch * banks + vrow % banks;
                                if (open_rows[vbk] == vrow) {
                                    serv = serv + row_hit_ov;
                                } else {
                                    serv = serv + row_miss_ov;
                                    open_rows[vbk] = vrow;
                                }
                                double vf = next_free[vch];
                                double vstart =
                                    vf > arrival ? vf : arrival;
                                next_free[vch] = vstart + serv;
                                dram_bytes += num;
                            }
                            if (use_meta) {
                                int64_t ventry = victim % entries;
                                int64_t vbud = wb_bud[ventry];
                                if (vbud != 0) {
                                    double vstart =
                                        link_write_free > arrival
                                            ? link_write_free
                                            : arrival;
                                    link_write_free =
                                        vstart +
                                        (double)wb_bnum[ventry] /
                                            link_bpc;
                                    link_write_bytes += vbud;
                                }
                            }
                        }
                    }
                    done = done + fill_tail;
                }
                /* L1 fill (never dirty; evictions are silent). */
                if (j1 >= 0) {
                    lru_touch(d1_line, d1_mask, NULL, c1, j1, e1 | msk);
                } else {
                    int64_t victim, vd;
                    lru_insert(d1_line, d1_mask, NULL, &l1_cnt[flat1],
                               l1_ways, lid, msk, 0, &victim, &vd);
                }
            }
            int64_t base = warp_start[w];
            out[base + out_len[w]] = done;
            out_len[w]++;
            int64_t head = out_head[w];
            if (out_len[w] - head >= warp_mlp[w]) {
                next_ready = out[base + head];
                out_head[w] = head + 1;
            } else {
                next_ready = issue + interval;
            }
        } else if (code == 2 || code == 5) { /* _STORE / _STORE_RMW */
            sm_free[sm] = issue + interval;
            int64_t lid = lid_a[i];
            int64_t msk = mask_a[i];
            int64_t s2 = l2set_a[i];
            int64_t *d2_line = l2_line + s2 * l2_ways;
            int64_t *d2_mask = l2_mask + s2 * l2_ways;
            int64_t *d2_dirty = l2_dirty + s2 * l2_ways;
            if (code == 5) {
                /* Partial store into a compressed entry: every fourth
                 * pays the read-modify-write fetch unless the line is
                 * fully resident.  This is the load-miss fill at
                 * arrival ``issue``; the completion time is discarded
                 * because stores do not stall the warp. */
                rmw_counter++;
                if (rmw_counter % 4 == 0) {
                    int32_t c2 = l2_cnt[s2];
                    Py_ssize_t j2 = lru_find(d2_line, c2, lid);
                    int64_t e2 = j2 >= 0 ? d2_mask[j2] : 0;
                    if (j2 >= 0 && (e2 & full_mask) == full_mask) {
                        l2_hits++;
                        lru_touch(d2_line, d2_mask, d2_dirty, c2, j2, e2);
                    } else {
                        l2_misses++;
                        demand_fills++;
                        int64_t dev = dev_a[i];
                        int64_t fm = ideal ? msk : full_mask;
                        if (dev != 0) {
                            int64_t bk = bank_a[i];
                            int64_t rw = row_a[i];
                            int64_t ch = chan_a[i];
                            double serv;
                            if (open_rows[bk] == rw) {
                                serv = servh_a[i];
                            } else {
                                serv = servm_a[i];
                                open_rows[bk] = rw;
                            }
                            double cf = next_free[ch];
                            double start = cf > issue ? cf : issue;
                            next_free[ch] = start + serv;
                            dram_bytes += dev;
                        }
                        if (use_meta) {
                            double meta_ready = issue;
                            int64_t mt = mtag_a[i];
                            int64_t ms = mslot_a[i];
                            int64_t *tags =
                                meta_tag + ms * (meta_ways + 1);
                            int32_t mc_n = meta_cnt[ms];
                            Py_ssize_t jm = lru_find(tags, mc_n, mt);
                            if (jm >= 0) {
                                for (Py_ssize_t k = jm; k + 1 < mc_n;
                                     k++)
                                    tags[k] = tags[k + 1];
                                tags[mc_n - 1] = mt;
                                meta_hits++;
                            } else {
                                meta_misses++;
                                tags[mc_n] = mt;
                                mc_n++;
                                if (mc_n > meta_ways) {
                                    for (int32_t k = 0; k + 1 < mc_n;
                                         k++)
                                        tags[k] = tags[k + 1];
                                    mc_n--;
                                }
                                meta_cnt[ms] = mc_n;
                                int64_t mb = mbank_a[i];
                                int64_t mr = mrow_a[i];
                                int64_t mc = mchan_a[i];
                                double serv;
                                if (open_rows[mb] == mr) {
                                    serv = meta_serv_hit;
                                } else {
                                    serv = meta_serv_miss;
                                    open_rows[mb] = mr;
                                }
                                double cf = next_free[mc];
                                double start = cf > issue ? cf : issue;
                                double end = start + serv;
                                next_free[mc] = end;
                                dram_bytes += meta_line_bytes;
                                meta_ready = end + dram_lat;
                            }
                            int64_t bud = bud_a[i];
                            if (bud != 0) {
                                int64_t bnum = bnum_a[i];
                                double start =
                                    link_read_free > meta_ready
                                        ? link_read_free
                                        : meta_ready;
                                link_read_free =
                                    start + (double)bnum / link_bpc;
                                link_read_bytes += bud;
                                buddy_fills++;
                            }
                        }
                        /* Install the whole line. */
                        if (j2 >= 0) {
                            lru_touch(d2_line, d2_mask, d2_dirty, c2,
                                      j2, e2 | fm);
                        } else {
                            int64_t victim, dirty_mask;
                            if (lru_insert(d2_line, d2_mask, d2_dirty,
                                           &l2_cnt[s2], l2_ways, lid,
                                           fm, 0, &victim,
                                           &dirty_mask) &&
                                dirty_mask != 0) {
                                /* Writeback (RMW is only taken in the
                                 * compressed modes). */
                                int64_t ventry = victim % entries;
                                int64_t num = wb_dev[ventry];
                                double serv = wb_serv[ventry];
                                if (num != 0) {
                                    int64_t vch = victim % channels;
                                    int64_t vrow =
                                        victim * line_bytes / row_bytes;
                                    int64_t vbk =
                                        vch * banks + vrow % banks;
                                    if (open_rows[vbk] == vrow) {
                                        serv = serv + row_hit_ov;
                                    } else {
                                        serv = serv + row_miss_ov;
                                        open_rows[vbk] = vrow;
                                    }
                                    double vf = next_free[vch];
                                    double vstart =
                                        vf > issue ? vf : issue;
                                    next_free[vch] = vstart + serv;
                                    dram_bytes += num;
                                }
                                if (use_meta) {
                                    int64_t vbud = wb_bud[ventry];
                                    if (vbud != 0) {
                                        double vstart =
                                            link_write_free > issue
                                                ? link_write_free
                                                : issue;
                                        link_write_free =
                                            vstart +
                                            (double)wb_bnum[ventry] /
                                                link_bpc;
                                        link_write_bytes += vbud;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            /* The store itself (fresh probe: the RMW fill above may
             * have changed the set). */
            {
                int32_t c2 = l2_cnt[s2];
                Py_ssize_t j2 = lru_find(d2_line, c2, lid);
                if (j2 >= 0) {
                    int64_t e2 = d2_mask[j2];
                    lru_touch(d2_line, d2_mask, d2_dirty, c2, j2,
                              e2 | msk);
                    d2_dirty[c2 - 1] |= msk;
                } else {
                    int64_t victim, dirty_mask;
                    if (lru_insert(d2_line, d2_mask, d2_dirty,
                                   &l2_cnt[s2], l2_ways, lid, msk, msk,
                                   &victim, &dirty_mask) &&
                        dirty_mask != 0) {
                        /* Writeback (dirty eviction). */
                        int64_t num;
                        double serv;
                        if (ideal) {
                            num = wb_ideal_bytes[dirty_mask];
                            serv = wb_ideal_serv[dirty_mask];
                        } else {
                            int64_t ventry = victim % entries;
                            num = wb_dev[ventry];
                            serv = wb_serv[ventry];
                        }
                        if (num != 0) {
                            int64_t vch = victim % channels;
                            int64_t vrow =
                                victim * line_bytes / row_bytes;
                            int64_t vbk = vch * banks + vrow % banks;
                            if (open_rows[vbk] == vrow) {
                                serv = serv + row_hit_ov;
                            } else {
                                serv = serv + row_miss_ov;
                                open_rows[vbk] = vrow;
                            }
                            double vf = next_free[vch];
                            double vstart = vf > issue ? vf : issue;
                            next_free[vch] = vstart + serv;
                            dram_bytes += num;
                        }
                        if (use_meta) {
                            int64_t ventry = victim % entries;
                            int64_t vbud = wb_bud[ventry];
                            if (vbud != 0) {
                                double vstart =
                                    link_write_free > issue
                                        ? link_write_free
                                        : issue;
                                link_write_free =
                                    vstart +
                                    (double)wb_bnum[ventry] / link_bpc;
                                link_write_bytes += vbud;
                            }
                        }
                    }
                }
            }
            next_ready = issue + interval;
        } else if (code == 3) { /* _HOST_LOAD */
            sm_free[sm] = issue + interval;
            int64_t hbytes = hbytes_a[i];
            int64_t hnum = hnum_a[i];
            double start =
                link_read_free > issue ? link_read_free : issue;
            double end = start + (double)hnum / link_bpc;
            link_read_free = end;
            link_read_bytes += hbytes;
            double done = end + link_lat;
            int64_t base = warp_start[w];
            out[base + out_len[w]] = done;
            out_len[w]++;
            int64_t head = out_head[w];
            if (out_len[w] - head >= warp_mlp[w]) {
                next_ready = out[base + head];
                out_head[w] = head + 1;
            } else {
                next_ready = issue + interval;
            }
        } else { /* _HOST_STORE: fire-and-forget remote write */
            sm_free[sm] = issue + interval;
            int64_t hbytes = hbytes_a[i];
            int64_t hnum = hnum_a[i];
            double start =
                link_write_free > issue ? link_write_free : issue;
            link_write_free = start + (double)hnum / link_bpc;
            link_write_bytes += hbytes;
            next_ready = issue + interval;
        }

        sequence++;
        Key cont = make_key(next_ready, sequence, w);
        if (heap_len > 0) {
            /* A continuation that precedes the whole heap is the
             * next event by construction — skip the sift. */
            if (cont < heap[0]) {
                ev = cont;
            } else {
                ev = heap[0];
                heap[0] = cont;
                heap_siftdown(heap, heap_len, 0);
            }
        } else {
            ev = cont;
        }
    }

    /* drain */
    {
        double cycles = finish;
        for (int64_t c = 0; c < channels; c++)
            if (next_free[c] > cycles)
                cycles = next_free[c];
        if (link_read_free > cycles)
            cycles = link_read_free;
        if (link_write_free > cycles)
            cycles = link_write_free;
        for (int64_t s = 0; s < sm_count; s++)
            if (sm_free[s] > cycles)
                cycles = sm_free[s];
        *result = (Counters){
            cycles, l1_hits, l1_misses, l2_hits, l2_misses, dram_bytes,
            link_read_bytes, link_write_bytes, meta_hits, meta_misses,
            buddy_fills, demand_fills,
        };
    }
    rc = 0;

cleanup:
    free(l1_line); free(l1_mask); free(l1_cnt);
    free(l2_line); free(l2_mask); free(l2_dirty); free(l2_cnt);
    free(meta_tag); free(meta_cnt);
    free(next_free); free(sm_free); free(out);
    free(open_rows); free(ips); free(out_len); free(out_head);
    free(heap);
    return rc;
}

/* ------------------------------------------------------------------ */
/* run_exact(arrays, iscalars, fscalars, geo_cache=None,              */
/*           state_cache=None) -> counter tuple                       */
/* ------------------------------------------------------------------ */
static PyObject *
run_exact(PyObject *self, PyObject *args)
{
    PyObject *arrays, *iscalars_o, *fscalars_o;
    PyObject *geo_cache = Py_None, *state_cache = Py_None;
    if (!PyArg_ParseTuple(args, "O!O!O!|OO", &PyTuple_Type, &arrays,
                          &PyTuple_Type, &iscalars_o, &PyTuple_Type,
                          &fscalars_o, &geo_cache, &state_cache))
        return NULL;
    if (PyTuple_GET_SIZE(arrays) != A_COUNT ||
        PyTuple_GET_SIZE(iscalars_o) != I_COUNT ||
        PyTuple_GET_SIZE(fscalars_o) != F_COUNT) {
        PyErr_Format(PyExc_ValueError,
                     "event core: expected %d arrays, %d iscalars and %d "
                     "fscalars", A_COUNT, I_COUNT, F_COUNT);
        return NULL;
    }
    if ((geo_cache != Py_None && !PyDict_Check(geo_cache)) ||
        (state_cache != Py_None && !PyDict_Check(state_cache))) {
        PyErr_SetString(PyExc_TypeError,
                        "event core: geo_cache and state_cache must be "
                        "dicts or None");
        return NULL;
    }

    Pack pack;
    if (unpack_i64(iscalars_o, pack.isc, I_COUNT) < 0 ||
        unpack_f64(fscalars_o, pack.fsc, F_COUNT) < 0)
        return NULL;

    Buf bufs[A_COUNT];
    for (int k = 0; k < A_COUNT; k++)
        bufs[k].has = 0;
    PyObject *result = NULL;
    PyObject *geo_key = NULL, *state_key = NULL;

    for (int k = 0; k < A_COUNT; k++) {
        if (get_buf(PyTuple_GET_ITEM(arrays, k), k, &bufs[k]) < 0)
            goto cleanup;
        pack.col[k] = bufs[k].has ? bufs[k].view.buf : NULL;
        pack.len[k] = bufs[k].has ? bufs[k].view.len / 8 : 0;
    }
    pack.n_rows = pack.len[A_CODES];
    if (check_shape(&pack) < 0)
        goto cleanup;

    geo_key = memo_scalars(&pack, 1);
    state_key = memo_scalars(&pack, 0);
    if (geo_key == NULL || state_key == NULL)
        goto cleanup;
    int geo_known = memo_hit(geo_cache, arrays, 1, geo_key);
    int state_known = geo_known < 0 ? -1
                                    : memo_hit(state_cache, arrays, 0,
                                               state_key);
    if (state_known < 0)
        goto cleanup;

    Fault f = {FAULT_NONE, 0, 0};
    Counters c = {0};
    int geo_ok = 0, rc;
    PyThreadState *save = PyEval_SaveThread();
    rc = geo_known ? 0 : scan_columns(&pack, 1, &f);
    geo_ok = rc == 0;
    if (rc == 0 && !state_known)
        rc = scan_columns(&pack, 0, &f);
    if (rc == 0 && simulate(&pack, &c) < 0)
        rc = -2;
    PyEval_RestoreThread(save);

    if (geo_ok && !geo_known &&
        memo_store(geo_cache, arrays, 1, geo_key) < 0)
        goto cleanup;
    if (rc == -1) {
        raise_fault(&f);
        goto cleanup;
    }
    if (rc == -2) {
        PyErr_NoMemory();
        goto cleanup;
    }
    if (!state_known && memo_store(state_cache, arrays, 0, state_key) < 0)
        goto cleanup;
    result = Py_BuildValue(
        "(dLLLLLLLLLLL)", c.cycles,
        (long long)c.l1_hits, (long long)c.l1_misses,
        (long long)c.l2_hits, (long long)c.l2_misses,
        (long long)c.dram_bytes,
        (long long)c.link_read_bytes, (long long)c.link_write_bytes,
        (long long)c.meta_hits, (long long)c.meta_misses,
        (long long)c.buddy_fills, (long long)c.demand_fills);

cleanup:
    Py_XDECREF(geo_key);
    Py_XDECREF(state_key);
    release_bufs(bufs, A_COUNT);
    return result;
}

static PyMethodDef event_core_methods[] = {
    {"run_exact", run_exact, METH_VARARGS,
     "run_exact(arrays, iscalars, fscalars, geo_cache=None, "
     "state_cache=None) -> counter tuple\n\n"
     "Validates the pack (memoised in the optional caches), then runs "
     "the simulation with the GIL released."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef event_core_module = {
    PyModuleDef_HEAD_INIT,
    "repro.gpusim._event_core_ext",
    "Compiled exact-order event core (see _event_core.py).",
    -1,
    event_core_methods,
};

PyMODINIT_FUNC
PyInit__event_core_ext(void)
{
    PyObject *m = PyModule_Create(&event_core_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "ABI", EXT_ABI) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

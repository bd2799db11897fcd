/* Compiled zone kernel, the twin of _zonecore_py.py.
 *
 * Bounds are encoded as (value << 1) | weak, so that the integer order is
 * the difference-bound order (strict is tighter than weak at the same
 * value).  Infinity is the sentinel 1 << 40; values stay small enough that
 * the sum of two encoded bounds never reaches it.  A stack of matrices
 * arrives as a writable C-contiguous int64 buffer and is changed in place,
 * one matrix after another, by the one function constrain_many(ms, pos,
 * enc, ok).  It takes each matrix's row of atoms in column order (flat
 * entry pos[t][a] bounded by the encoded enc[t][a]) and re-closes the
 * matrix through each entry whose atom is finite and not looser than it,
 * in one O(n^2) pass (Bengtsson and Yi, 2004).  On a canonical non-empty
 * matrix the result is canonical, and a row of atoms that tighten nothing
 * leaves every byte.  Re-closing through each diagonal entry in turn at
 * (0, <=) is Floyd-Warshall, so the same function closes any matrix in
 * full.  It sets ok[t] (uint8) to 1 when matrix t is non-empty, which it
 * reads off the diagonal.  Bad shapes, formats or atom positions raise
 * ValueError before anything is written.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define INF ((int64_t)1 << 40)
#define ZERO_WEAK 1

#if PY_LITTLE_ENDIAN
#define NATIVE_ORDER '<'
#else
#define NATIVE_ORDER '>'
#endif

/* Tighten one n x n matrix by k atoms in order: atom a bounds flat entry
   pos[a] by enc[a] and, unless it is looser than the entry or infinite,
   m[r][s] = min(m[r][s], m[r][i] + enc[a] + m[j][s]) re-closes the matrix
   through it, leaving row j and column i as they were unless the cycle
   through the entry is negative.  0 when the zone is empty: on such a
   cycle, or on a diagonal entry below (0, <=) at the end. */
static int constrain_one(int64_t *m, Py_ssize_t n, const int64_t *pos,
                         const int64_t *enc, Py_ssize_t k)
{
    for (Py_ssize_t a = 0; a < k; a++) {
        int64_t c = enc[a];
        if (c > m[pos[a]] || c >= INF)
            continue;
        Py_ssize_t i = pos[a] / n, j = pos[a] % n;
        int64_t back = m[j * n + i];
        if (back < INF && back + c - ((back | c) & 1) < ZERO_WEAK)
            return 0;
        const int64_t *row = m + j * n;
        for (Py_ssize_t r = 0; r < n; r++) {
            int64_t x = m[r * n + i];
            if (x >= INF)
                continue;
            x = x + c - ((x | c) & 1);
            int64_t *out = m + r * n;
            for (Py_ssize_t s = 0; s < n; s++) {
                int64_t y = row[s];
                if (y >= INF)
                    continue;
                int64_t sum = x + y - ((x | y) & 1);
                if (sum < out[s])
                    out[s] = sum;
            }
        }
    }
    for (Py_ssize_t i = 0; i < n; i++)
        if (m[i * n + i] < ZERO_WEAK)
            return 0;
    return 1;
}

/* Take a C-contiguous buffer of `ndim` dimensions and items of `itemsize`
   bytes, writable when `writable` is set; int64 items must also carry an
   integer format, and a 3-d stack must hold square matrices.  Raises
   ValueError otherwise. */
static int get_buffer(PyObject *obj, Py_buffer *view, int ndim,
                      Py_ssize_t itemsize, int writable)
{
    if (PyObject_GetBuffer(obj, view,
                           writable ? PyBUF_RECORDS : PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, writable ? "expected a writable array"
                                                   : "expected an array");
        return -1;
    }
    const char *f = view->format;
    if (*f == '@' || *f == '=' || *f == NATIVE_ORDER)
        f++;
    int int_format = (f[0] == 'l' || f[0] == 'q') && f[1] == '\0';
    if (view->ndim != ndim || view->itemsize != itemsize
        || (itemsize == 8 && !int_format) || !PyBuffer_IsContiguous(view, 'C')
        || (ndim == 3 && view->shape[2] != view->shape[1])) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, ndim == 1
                     ? "expected a C-contiguous 1-d uint8 array"
                     : ndim == 2 ? "expected a C-contiguous 2-d int64 array"
                     : "expected a C-contiguous int64 array of 3 dimensions"
                       " whose last two are equal");
        return -1;
    }
    return 0;
}

/* Take the stack `ms` and its flags `ok`; raises ValueError when either is
   not a buffer get_buffer takes or ok does not hold one entry per
   matrix. */
static int get_stack(PyObject *ms_obj, PyObject *ok_obj, Py_buffer *ms,
                     Py_buffer *ok)
{
    if (get_buffer(ms_obj, ms, 3, 8, 1) < 0)
        return -1;
    if (get_buffer(ok_obj, ok, 1, 1, 1) < 0) {
        PyBuffer_Release(ms);
        return -1;
    }
    if (ok->shape[0] != ms->shape[0]) {
        PyErr_Format(PyExc_ValueError, "ok has %zd entries for %zd matrices",
                     ok->shape[0], ms->shape[0]);
        PyBuffer_Release(ok);
        PyBuffer_Release(ms);
        return -1;
    }
    return 0;
}

static PyObject *zone_constrain_many(PyObject *self, PyObject *args)
{
    PyObject *ms_obj, *pos_obj, *enc_obj, *ok_obj;
    Py_buffer ms, pos, enc, ok;
    if (!PyArg_ParseTuple(args, "OOOO:constrain_many", &ms_obj, &pos_obj,
                          &enc_obj, &ok_obj)
        || get_stack(ms_obj, ok_obj, &ms, &ok) < 0)
        return NULL;
    if (get_buffer(pos_obj, &pos, 2, 8, 0) < 0)
        goto release_stack;
    if (get_buffer(enc_obj, &enc, 2, 8, 0) < 0)
        goto release_pos;
    Py_ssize_t count = ms.shape[0], n = ms.shape[1], k = pos.shape[1];
    const int64_t *p = (const int64_t *)pos.buf;
    if (pos.shape[0] != count || enc.shape[0] != count || enc.shape[1] != k) {
        PyErr_Format(PyExc_ValueError, "pos (%zd, %zd) and enc (%zd, %zd) "
                     "do not fit %zd matrices", pos.shape[0], k, enc.shape[0],
                     enc.shape[1], count);
        goto release_all;
    }
    for (Py_ssize_t a = 0; a < count * k; a++)
        if (p[a] < 0 || p[a] >= n * n) {
            PyErr_Format(PyExc_ValueError, "atom position %lld lies outside "
                         "[0, %zd)", (long long)p[a], n * n);
            goto release_all;
        }
    for (Py_ssize_t t = 0; t < count; t++)
        ((unsigned char *)ok.buf)[t] = (unsigned char)constrain_one(
            (int64_t *)ms.buf + t * n * n, n, p + t * k,
            (const int64_t *)enc.buf + t * k, k);
    PyBuffer_Release(&enc);
    PyBuffer_Release(&pos);
    PyBuffer_Release(&ok);
    PyBuffer_Release(&ms);
    Py_RETURN_NONE;
release_all:
    PyBuffer_Release(&enc);
release_pos:
    PyBuffer_Release(&pos);
release_stack:
    PyBuffer_Release(&ok);
    PyBuffer_Release(&ms);
    return NULL;
}

static PyMethodDef methods[] = {
    {"constrain_many", zone_constrain_many, METH_VARARGS,
     "constrain_many(ms, pos, enc, ok): tighten each matrix t of a\n"
     "(count, n, n) int64 stack, in place, by the atoms of row t of the\n"
     "(count, k) int64 arrays pos (flat entry) and enc (encoded bound),\n"
     "re-closing it through each entry whose atom is finite and not\n"
     "looser; ok[t] (uint8) is set to 1 when matrix t is non-empty."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_zonecore", "Compiled zone kernel.", -1, methods,
};

PyMODINIT_FUNC PyInit__zonecore(void)
{
    PyObject *mod = PyModule_Create(&module);
    PyObject *inf = PyLong_FromLongLong(INF);
    if (mod == NULL || inf == NULL || PyModule_AddObjectRef(mod, "INF", inf) < 0)
        Py_CLEAR(mod);
    Py_XDECREF(inf);
    return mod;
}

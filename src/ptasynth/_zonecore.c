/* Compiled zone-closure kernel, the twin of _zonecore_py.py.
 *
 * Bounds are encoded as (value << 1) | weak, so that the integer order is
 * the difference-bound order (strict is tighter than weak at the same
 * value).  Infinity is the sentinel 1 << 40; values stay small enough that
 * the sum of two encoded bounds never reaches it.  A stack of matrices
 * arrives as a writable C-contiguous int64 buffer and is closed in place by
 * full Floyd-Warshall, one matrix after another.
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

/* Floyd-Warshall closure of one n x n matrix through every clock; 0 when
   the zone is empty (some diagonal entry drops below (0, <=)). */
static int close_one(int64_t *m, Py_ssize_t n)
{
    for (Py_ssize_t k = 0; k < n; k++) {
        const int64_t *row = m + k * n;
        for (Py_ssize_t i = 0; i < n; i++) {
            int64_t a = m[i * n + k];
            if (a >= INF)
                continue;
            int64_t *out = m + i * n;
            for (Py_ssize_t j = 0; j < n; j++) {
                int64_t b = row[j];
                if (b >= INF)
                    continue;
                int64_t s = a + b - ((a | b) & 1);
                if (s < out[j])
                    out[j] = s;
            }
        }
    }
    for (Py_ssize_t i = 0; i < n; i++)
        if (m[i * n + i] < ZERO_WEAK)
            return 0;
    return 1;
}

/* Take a writable C-contiguous buffer of `ndim` dimensions and items of
   `itemsize` bytes; int64 items must also carry an integer format.  Raises
   ValueError otherwise. */
static int get_buffer(PyObject *obj, Py_buffer *view, int ndim, Py_ssize_t itemsize)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS) < 0) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "expected a writable array");
        return -1;
    }
    const char *f = view->format;
    if (*f == '@' || *f == '=' || *f == NATIVE_ORDER)
        f++;
    int int_format = (f[0] == 'l' || f[0] == 'q') && f[1] == '\0';
    if (view->ndim != ndim || view->itemsize != itemsize
        || (itemsize == 8 && !int_format) || !PyBuffer_IsContiguous(view, 'C')
        || (ndim >= 2 && view->shape[ndim - 1] != view->shape[ndim - 2])) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, ndim == 1
                     ? "expected a C-contiguous 1-d uint8 array"
                     : "expected a C-contiguous int64 array of %d dimensions"
                       " whose last two are equal", ndim);
        return -1;
    }
    return 0;
}

static PyObject *zone_close_many(PyObject *self, PyObject *args)
{
    PyObject *ms_obj, *ok_obj;
    Py_buffer ms, ok;
    if (!PyArg_ParseTuple(args, "OO:close_many", &ms_obj, &ok_obj)
        || get_buffer(ms_obj, &ms, 3, 8) < 0)
        return NULL;
    if (get_buffer(ok_obj, &ok, 1, 1) < 0) {
        PyBuffer_Release(&ms);
        return NULL;
    }
    Py_ssize_t count = ms.shape[0], n = ms.shape[1];
    PyObject *result = Py_None;
    if (ok.shape[0] != count) {
        PyErr_Format(PyExc_ValueError, "ok has %zd entries for %zd matrices",
                     ok.shape[0], count);
        result = NULL;
    } else {
        for (Py_ssize_t t = 0; t < count; t++)
            ((unsigned char *)ok.buf)[t] =
                (unsigned char)close_one((int64_t *)ms.buf + t * n * n, n);
    }
    PyBuffer_Release(&ok);
    PyBuffer_Release(&ms);
    Py_XINCREF(result);
    return result;
}

static PyMethodDef methods[] = {
    {"close_many", zone_close_many, METH_VARARGS,
     "close_many(ms, ok): close a (count, n, n) int64 stack in place;\n"
     "ok[t] (uint8) is set to 1 when matrix t is non-empty."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_zonecore", "Compiled zone-closure kernel.", -1, methods,
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

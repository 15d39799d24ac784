/* Compiled unit-capacity max-flow kernel; same contract as pure.flow_many.
 *
 * Vertex v splits into entry node v and exit node v+n joined by a unit arc,
 * an undirected edge {a,b} becomes arcs a_exit->b_entry and b_exit->a_entry,
 * and pair (s,t) is solved as max flow from s's exit node to t's entry node
 * by breadth-first augmentation.  Arcs are added in pairs, so arc i^1 is the
 * reverse of arc i, every even arc starts with capacity 1 and every odd one
 * with 0.
 *
 * Every Python object is read, and every index checked, before the solve,
 * which runs on plain int arrays with the GIL released.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>

/* Read one (a, b) item into out[0], out[1].  Raises ValueError unless both
 * endpoints lie in [0, n) and differ; `what` names the item in the message. */
static int
read_endpoints(PyObject *item, int n, int *out, const char *what)
{
    PyObject *seq = PySequence_Fast(item, "flow_many: items must be pairs");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != 2) {
        PyErr_Format(PyExc_ValueError, "%s %R must have two endpoints",
                     what, item);
        Py_DECREF(seq);
        return -1;
    }
    PyObject *a = PySequence_Fast_GET_ITEM(seq, 0);
    PyObject *b = PySequence_Fast_GET_ITEM(seq, 1);
    for (int k = 0; k < 2; k++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(k ? b : a, &overflow);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (overflow || v < 0 || v >= n) {
            PyErr_Format(PyExc_ValueError,
                         "%s (%S, %S) out of range for %d vertices",
                         what, a, b, n);
            Py_DECREF(seq);
            return -1;
        }
        out[k] = (int)v;
    }
    if (out[0] == out[1]) {
        PyErr_Format(PyExc_ValueError, "%s (%S, %S) has equal endpoints",
                     what, a, b);
        Py_DECREF(seq);
        return -1;
    }
    Py_DECREF(seq);
    return 0;
}

/* Max flow for every pair; touches no Python object. */
static void
solve(int n, int n_arcs, int n_pairs, const int *arc_to, int *arc_cap,
      int *adj_start, int *adj_arc, int *fill, int *parent, int *queue,
      const int *pair_buf, int *res_buf)
{
    int nn = 2 * n;

    /* adjacency in CSR form; the tail of arc a is the head of arc a^1 */
    for (int i = 0; i <= nn; i++)
        adj_start[i] = 0;
    for (int a = 0; a < n_arcs; a++)
        adj_start[arc_to[a ^ 1] + 1]++;
    for (int i = 0; i < nn; i++) {
        adj_start[i + 1] += adj_start[i];
        fill[i] = adj_start[i];
    }
    for (int a = 0; a < n_arcs; a++)
        adj_arc[fill[arc_to[a ^ 1]]++] = a;

    for (int p = 0; p < n_pairs; p++) {
        int src = pair_buf[2 * p] + n;
        int sink = pair_buf[2 * p + 1];
        int value = 0;
        for (int a = 0; a < n_arcs; a++)
            arc_cap[a] = !(a & 1);
        for (;;) {
            for (int i = 0; i < nn; i++)
                parent[i] = -1;
            parent[src] = -2;
            queue[0] = src;
            int qh = 0, qt = 1, found = 0;
            while (qh < qt) {
                int u = queue[qh++];
                if (u == sink) {
                    found = 1;
                    break;
                }
                for (int k = adj_start[u]; k < adj_start[u + 1]; k++) {
                    int a = adj_arc[k];
                    int w = arc_to[a];
                    if (arc_cap[a] > 0 && parent[w] == -1) {
                        parent[w] = a;
                        queue[qt++] = w;
                    }
                }
            }
            if (!found)
                break;
            /* unit capacities: augment by exactly one along the parent chain */
            for (int u = sink; u != src; ) {
                int a = parent[u];
                arc_cap[a]--;
                arc_cap[a ^ 1]++;
                u = arc_to[a ^ 1];
            }
            value++;
        }
        res_buf[p] = value;
    }
}

PyDoc_STRVAR(flow_many_doc,
"flow_many(n, edges, pairs) -> list[int]\n\n"
"Maximum number of internally vertex-disjoint paths for each (s, t) pair\n"
"of the undirected graph on vertices 0..n-1 with the given edges.  Raises\n"
"ValueError for n < 0, an endpoint outside [0, n), a self-loop edge or a\n"
"pair with s == t.");

static PyObject *
flow_many(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "edges", "pairs", NULL};
    int n;
    PyObject *edges_arg, *pairs_arg;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOO:flow_many", kwlist,
                                     &n, &edges_arg, &pairs_arg))
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "vertex count must be non-negative");
        return NULL;
    }

    PyObject *edges = NULL, *pairs = NULL, *result = NULL;
    int *block = NULL;
    edges = PySequence_Fast(edges_arg, "flow_many: edges must be iterable");
    if (edges == NULL)
        goto done;
    pairs = PySequence_Fast(pairs_arg, "flow_many: pairs must be iterable");
    if (pairs == NULL)
        goto done;

    Py_ssize_t m = PySequence_Fast_GET_SIZE(edges);
    Py_ssize_t n_pairs = PySequence_Fast_GET_SIZE(pairs);
    /* keeps every arc id, node id and pair index within int */
    if (n > INT_MAX / 4 || m > INT_MAX / 8 || n_pairs > INT_MAX / 2) {
        PyErr_SetString(PyExc_OverflowError,
                        "flow_many: graph too large for the compiled kernel");
        goto done;
    }
    Py_ssize_t n_arcs = 2 * (Py_ssize_t)n + 4 * m;  /* 2 per vertex, 4 per edge */
    Py_ssize_t nn = 2 * (Py_ssize_t)n;
    /* arc_to, arc_cap, adj_arc | adj_start (nn+1), fill, parent, queue |
       pair_buf (2 per pair), res_buf */
    size_t total = 3 * (size_t)n_arcs + 4 * (size_t)nn + 1
                   + 3 * (size_t)n_pairs;
    block = PyMem_RawMalloc(total * sizeof(int));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *arc_to = block;
    int *arc_cap = arc_to + n_arcs;
    int *adj_arc = arc_cap + n_arcs;
    int *adj_start = adj_arc + n_arcs;
    int *fill = adj_start + nn + 1;
    int *parent = fill + nn;
    int *queue = parent + nn;
    int *pair_buf = queue + nn;
    int *res_buf = pair_buf + 2 * n_pairs;

    int arc_id = 0;
    for (int v = 0; v < n; v++) {
        arc_to[arc_id++] = v + n;
        arc_to[arc_id++] = v;
    }
    PyObject **items = PySequence_Fast_ITEMS(edges);
    for (Py_ssize_t i = 0; i < m; i++) {
        int e[2];
        if (read_endpoints(items[i], n, e, "edge") < 0)
            goto done;
        arc_to[arc_id++] = e[1];
        arc_to[arc_id++] = e[0] + n;
        arc_to[arc_id++] = e[0];
        arc_to[arc_id++] = e[1] + n;
    }
    items = PySequence_Fast_ITEMS(pairs);
    for (Py_ssize_t i = 0; i < n_pairs; i++) {
        if (read_endpoints(items[i], n, pair_buf + 2 * i, "pair") < 0)
            goto done;
    }

    Py_BEGIN_ALLOW_THREADS
    solve(n, (int)n_arcs, (int)n_pairs, arc_to, arc_cap, adj_start, adj_arc,
          fill, parent, queue, pair_buf, res_buf);
    Py_END_ALLOW_THREADS

    result = PyList_New(n_pairs);
    if (result == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n_pairs; i++) {
        PyObject *k = PyLong_FromLong(res_buf[i]);
        if (k == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, i, k);
    }

done:
    PyMem_RawFree(block);
    Py_XDECREF(edges);
    Py_XDECREF(pairs);
    return result;
}

static PyObject *
kernel_name(PyObject *self, PyObject *unused)
{
    return PyUnicode_FromString("compiled");
}

static PyMethodDef methods[] = {
    {"flow_many", (PyCFunction)(void (*)(void))flow_many,
     METH_VARARGS | METH_KEYWORDS, flow_many_doc},
    {"kernel_name", kernel_name, METH_NOARGS,
     "Name of this kernel: \"compiled\"."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "conndim._kernels._speedups",
    .m_doc = "Compiled unit-capacity max-flow kernel; same contract as "
             "pure.flow_many.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}

"""Kernel selection, parity, input checks and the build: the compiled flow
kernel must agree with the pure-Python one on identical inputs, both must
reject bad indices, setup.py must build the extension wherever a C compiler
exists, and the environment override must win."""

import importlib.machinery
import importlib.util
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conndim import active_kernel, build_reduction, parse_dimacs
from conndim._kernels import flow_many, pure

try:
    from conndim._kernels import _speedups
except ImportError:
    _speedups = None

KERNELS = [pure] + ([_speedups] if _speedups is not None else [])
ROOT = Path(__file__).resolve().parent.parent


def random_workload(seed, n, p):
    rng = random.Random(seed)
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return n, edges, pairs


def all_pairs(n, edges):
    return n, edges, [(u, v) for u in range(n) for v in range(u + 1, n)]


def reduction_workload():
    f = parse_dimacs("p cnf 3 2\n1 2 -3 0\n-1 2 -3 0\n")
    g, _ = build_reduction(f)
    return all_pairs(g.n, g.sorted_edges)


class TestSelection:
    def test_active_kernel_reports_reality(self):
        assert active_kernel() in ("compiled", "pure")
        if _speedups is not None and not os.environ.get("CONNDIM_PURE"):
            assert active_kernel() == "compiled"

    def test_environment_override_forces_pure(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import conndim; print(conndim.active_kernel())"],
            env={**os.environ, "CONNDIM_PURE": "1"},
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "pure"

    def test_kernel_names(self):
        assert pure.kernel_name() == "pure"
        if _speedups is not None:
            assert _speedups.kernel_name() == "compiled"


class TestPureKernel:
    def test_empty_pair_list(self):
        assert pure.flow_many(3, ((0, 1),), []) == []

    def test_single_edge(self):
        assert pure.flow_many(2, ((0, 1),), [(0, 1)]) == [1]

    def test_disconnected_pair(self):
        assert pure.flow_many(4, ((0, 1), (2, 3)), [(0, 2), (0, 1)]) == [0, 1]

    def test_results_follow_pair_order(self):
        edges = ((0, 1), (0, 2), (1, 2), (2, 3))
        assert pure.flow_many(4, edges, [(0, 3), (0, 1), (1, 2)]) == [1, 2, 2]


@pytest.mark.skipif(_speedups is None, reason="compiled kernel not built")
class TestParity:
    @pytest.mark.parametrize("n,edges,pairs", [
        *(pytest.param(*random_workload(*args), id="random-%d-%d-%g" % args)
          for args in [(1, 8, 0.2), (2, 8, 0.5), (3, 8, 0.9), (4, 14, 0.3),
                       (5, 14, 0.6), (6, 20, 0.25), (7, 20, 0.5)]),
        pytest.param(*all_pairs(1, ()), id="n1-no-edges"),
        pytest.param(5, ((0, 1), (1, 2)), [], id="no-pairs"),
        pytest.param(*all_pairs(7, ((0, 1), (1, 2), (0, 2), (3, 4))),
                     id="disconnected"),
        pytest.param(*reduction_workload(), id="3sat-reduction"),
        pytest.param(*random_workload(9, 40, 0.08), id="sparse-n40"),
    ])
    def test_flow_many_agrees(self, n, edges, pairs):
        assert _speedups.flow_many(n, edges, pairs) == \
            pure.flow_many(n, edges, pairs)

    def test_dispatch_matches_selected_kernel(self):
        n, edges, pairs = random_workload(8, 10, 0.4)
        expected = (_speedups if active_kernel() == "compiled"
                    else pure).flow_many(n, edges, pairs)
        assert flow_many(n, edges, pairs) == expected


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kernel_name())
class TestInputValidation:
    @pytest.mark.parametrize("n,edges,pairs", [
        pytest.param(-1, (), [], id="negative-n"),
        pytest.param(3, ((0, 1), (1, 2)), [(0, 5)], id="pair-past-n"),
        pytest.param(3, ((0, 1),), [(-1, 2)], id="negative-pair"),
        pytest.param(3, ((0, 4),), [(0, 1)], id="edge-past-n"),
        pytest.param(3, ((0, -1),), [(0, 1)], id="negative-edge"),
        pytest.param(3, ((0, 2 ** 70),), [(0, 1)], id="huge-edge"),
        pytest.param(0, (), [(0, 1)], id="empty-graph"),
        pytest.param(3, ((1, 1),), [(0, 1)], id="self-loop"),
        pytest.param(3, ((0, 1),), [(0, 1), (2, 2)], id="pair-s-equals-t"),
    ])
    def test_rejects_bad_input(self, kernel, n, edges, pairs):
        with pytest.raises(ValueError):
            kernel.flow_many(n, edges, pairs)


class TestBuild:
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_setup_builds_compiled_kernel(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "CONNDIM_NO_EXT"}
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext",
             "--build-lib", str(tmp_path / "lib"),
             "--build-temp", str(tmp_path / "tmp")],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        built = list((tmp_path / "lib" / "conndim" / "_kernels")
                     .glob("_speedups*"))
        # optional_build_ext turns a compile error into a warning: show it
        assert len(built) == 1, "extension was not built:\n" + proc.stderr
        # the build lib holds the extension alone, not the package: load by path
        name = "conndim._kernels._speedups"
        loader = importlib.machinery.ExtensionFileLoader(name, str(built[0]))
        spec = importlib.util.spec_from_loader(name, loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        assert module.kernel_name() == "compiled"
        n, edges, pairs = random_workload(10, 16, 0.3)
        assert module.flow_many(n, edges, pairs) == \
            pure.flow_many(n, edges, pairs)

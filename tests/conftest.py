import copy
import functools

import numpy as np
import pytest

import relnet.generators
import relnet.graphs

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance():
    """Record a pass/fail line for one acceptance criterion, then assert it."""

    def check(number: int, name: str, passed: bool, detail: str = ""):
        verdict = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {number} {name}: {verdict}"
        if detail:
            line += f" ({detail})"
        _acceptance_lines.append(line)
        print(line)
        assert passed, line

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


class FakeBlas:
    """Stands in for OpenBLAS's thread-count functions (`threads` is the
    count), and records the count each watched function runs with."""

    def __init__(self, monkeypatch, threads: int):
        self.monkeypatch = monkeypatch
        self.threads = threads
        self.seen: list[tuple[str, int]] = []

    def function(self, name: str):
        return {"get_num_threads": lambda: self.threads, "set_num_threads": self.set}[name]

    def set(self, threads: int) -> None:
        self.threads = threads

    def watch(self, module, name: str) -> None:
        """Record (name, thread count) whenever `module.name` is called."""
        inner = getattr(module, name)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            self.seen.append((name, self.threads))
            return inner(*args, **kwargs)

        self.monkeypatch.setattr(module, name, wrapper)

    def watch_products(self) -> None:
        """Record ("product", thread count) at each matrix product of graph
        work. `graphs.bfs` (as the graph and generator modules call it) and
        `graphs.clustering_coefficient` get their adjacency as a view whose
        matmul records the count; their thread rule runs as it would."""
        blas = self

        class Spied(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    blas.seen.append(("product", blas.threads))
                inputs = [x.view(np.ndarray) if isinstance(x, Spied) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        bfs, clustering = relnet.graphs.bfs, relnet.graphs.clustering_coefficient

        def spied_bfs(adjacency):
            return bfs(adjacency.view(Spied))

        def spied_clustering(g):
            spied = copy.copy(g)
            spied.__dict__["adjacency"] = g.adjacency.view(Spied)
            return clustering(spied)

        for module in (relnet.graphs, relnet.generators):
            self.monkeypatch.setattr(module, "bfs", spied_bfs)
        self.monkeypatch.setattr(relnet.graphs, "clustering_coefficient", spied_clustering)

    def products_on_one_thread(self) -> bool:
        """Whether graph products were seen (`watch_products`), each at one thread."""
        products = [threads for name, threads in self.seen if name == "product"]
        return bool(products) and set(products) == {1}


@pytest.fixture
def fake_blas(monkeypatch):
    """A FakeBlas at 3 threads, in place of the loaded OpenBLAS."""
    blas = FakeBlas(monkeypatch, threads=3)
    monkeypatch.setattr(relnet.graphs, "_openblas_function", blas.function)
    return blas

import functools

import pytest

import relnet.sweep

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


@pytest.fixture
def fake_blas(monkeypatch):
    """A FakeBlas at 3 threads, in place of the loaded OpenBLAS."""
    blas = FakeBlas(monkeypatch, threads=3)
    monkeypatch.setattr(relnet.sweep, "_openblas_function", blas.function)
    return blas

import contextlib
import multiprocessing
import os
import resource
import tracemalloc

# One BLAS thread, as in the benchmark: numpy then starts no thread pool,
# so ``parallel.map_items`` may fork helpers onto the other CPUs, and the
# suite runs that path. Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from multisent import parallel  # noqa: E402
from multisent.synth import SynthConfig, generate  # noqa: E402

_acceptance_results = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: toolkit acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.get_closest_marker("acceptance"):
        _acceptance_results.append((item.name, report.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _acceptance_results:
        terminalreporter.write_line(f"[{'PASS' if passed else 'FAIL'}] {name}")


def traced_peak(fn):
    """``(fn(), peak)``: ``peak`` is the most memory ``fn`` held at once
    above what was held when it started, in bytes, as ``tracemalloc``
    counts it (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def capped_address_space():
    """Runs its body with the address space capped at 1 GiB above the
    process's current size, so that an allocation far beyond that fails
    fast with MemoryError instead of growing until the host runs out."""
    limits = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    cap = size + 2**30
    if limits[1] != resource.RLIM_INFINITY:
        cap = min(cap, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)


@pytest.fixture(scope="session")
def full_synth(tmp_path_factory):
    """A 250+250 separable synthetic corpus shared by the heavier tests."""
    out = tmp_path_factory.mktemp("synth_full")
    cfg = SynthConfig(docs_per_class=250, sentiment_density=0.35,
                      purity=1.0, rule_fraction=0.0, seed=20260808)
    return cfg, generate(cfg, out)


@pytest.fixture(scope="session")
def small_synth(tmp_path_factory):
    """A small corpus for fast end-to-end wiring tests."""
    out = tmp_path_factory.mktemp("synth_small")
    cfg = SynthConfig(docs_per_class=12, tokens_per_doc=(30, 60),
                      sentiment_density=0.4, seed=99)
    return cfg, generate(cfg, out)


@pytest.fixture
def on_cpus(monkeypatch):
    """``with on_cpus(n) as forks:`` runs its body as on ``n`` usable CPUs.
    On exit ``forks`` holds the number of forks made in every process, and
    no helper may outlive the body, whether it returns or raises."""
    @contextlib.contextmanager
    def run(cpus):
        fork, (counted, count) = os.fork, os.pipe()

        def counted_fork():
            os.write(count, b"f")
            return fork()

        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", counted_fork)
        forks, parent, (escaped, escape) = [], os.getpid(), os.pipe()
        try:
            yield forks
        finally:
            if os.getpid() != parent:   # a helper came back out of the body
                os.write(escape, b"!")
                os._exit(1)
            monkeypatch.setattr(os, "fork", fork)
            os.close(escape)
            os.close(count)
            for fd in (escaped, counted):
                os.set_blocking(fd, False)
            with open(escaped, "rb") as pipe:
                assert not pipe.read()
            with pytest.raises(ChildProcessError):   # nothing left to reap
                os.waitpid(-1, os.WNOHANG)
            assert multiprocessing.active_children() == []
            with open(counted, "rb") as pipe:
                forks.append(len(pipe.read() or b""))

    return run

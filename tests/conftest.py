import os

# One BLAS thread, as in the benchmark: numpy then starts no thread pool,
# so ANN training may fork its restarts onto the other CPUs, and the
# suite runs that path. Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

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

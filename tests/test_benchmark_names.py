"""The names perfbench/ reaches conify by.

perfbench/tracer.py wraps conify functions and methods by name, and
perfbench/workloads.py calls `Polynomial.derivative` and `invariants --cap`.
A deletion from conify that breaks them fails here, on a fresh import of
every conify module made by perfbench/run.py's own `import_conify`, as a
benchmark run makes it.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _is_conify(name: str) -> bool:
    return name == "conify" or name.startswith("conify.")


@pytest.fixture
def bench_run():
    """perfbench/run.py as a module; sys.path and the conify modules the
    other tests imported are restored afterwards."""
    path, modules = list(sys.path), {k: v for k, v in sys.modules.items() if _is_conify(k)}
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.path[:] = path
        for name in [k for k in sys.modules if _is_conify(k)]:
            del sys.modules[name]
        sys.modules.update(modules)


def test_tracer_installs_and_uninstalls_on_a_fresh_import(bench_run):
    cf = bench_run.import_conify()
    modules = [m for m in vars(cf).values() if getattr(m, "__name__", "").startswith("conify")]
    before = [dict(vars(m)) for m in modules]
    scalar_before = dict(vars(cf.exactnum.ExactScalar))
    tracer = bench_run.Tracer(cf)
    tracer.install()
    try:
        assert cf.groebner.reduced_basis is not before[modules.index(cf.groebner)]["reduced_basis"]
        ring = ("x", "y")
        f = cf.polyring.parse_polynomial("x^2*y - 3*y + 1", ring)
        assert str(f.derivative(0)) == "2*x*y"
        assert str(f.derivative(1)) == "x^2 - 3"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cf.cli.main(["invariants", "--weights", "1,2", "--tweight", "1", "--cap", "4"])
        assert code == 0, err.getvalue()
        assert json.loads(out.getvalue()) == {"generators": [[1, 0, 1], [0, 1, 2]], "schema": "conify/1"}
        assert "cli.invariants" in tracer.span_totals()
    finally:
        tracer.uninstall()
    for m, saved in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in saved.items()), m.__name__
    assert all(vars(cf.exactnum.ExactScalar)[k] is v for k, v in scalar_before.items())

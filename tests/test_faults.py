"""Fault injection: which check of `dwelldos verify` catches a relative
fault of 1e-6 in one named intermediate of a backend.

Each case monkeypatches one intermediate, solves a grid through the verify
command's own check (cli.cmd_verify) and asserts which part of it fails:
the identity residual above the tolerance, or a failed skip.  A fault
that both routes read alike cancels in the identity and passes, and one
that only an ungated route reads passes too; such a case is a strict
xfail that names the ROADMAP item that would catch it.
"""

from functools import cached_property

import numpy as np
import pytest

from dwelldos import lattice, solver1d
from dwelldos.cli import RunConfig, cmd_verify
from dwelldos.model import EnergyGrid, random_lattice, random_stack

_FAULT = 1e-6


def _verify(backend, system, grid) -> dict:
    """The summary of `verify` at the default tolerance (1e-8), with its
    exit code as `code`."""
    code, summary = cmd_verify(RunConfig(backend, system, grid))
    return {**summary, "code": code}


# ------------------------------------------------------------------- 1D stack

_STACK = random_stack(3, n_layers=40)
_STACK_GRID = EnergyGrid(0.3, 16.0, 300)


def _scaled(array, index, factor):
    array[index] *= factor
    return array


def _patch_cached(monkeypatch, cls, name, fault) -> None:
    """The cached_property `name` of batch class `cls` as fault(value)
    returns it."""
    compute = cls.__dict__[name].func
    patched = cached_property(lambda batch: fault(compute(batch)))
    # a cached_property set on a class after it is built is not named by it
    patched.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, patched)


def _patch_coefficients(monkeypatch, fault) -> None:
    """ScatterBatch's interior coefficients as fault(coeff_a, coeff_b)
    returns them, each a copy (2, E, n) over [left, right] incidence."""
    _patch_cached(monkeypatch, solver1d.ScatterBatch, "_coefficients",
                  lambda coefficients: fault(*(c.copy() for c in coefficients)))


def _patch_result(monkeypatch, module, name, fault) -> None:
    """module.name as fault(result) returns its result."""
    call = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: fault(call(*args)))


def test_unfaulted_stack_verifies(monkeypatch):
    _patch_coefficients(monkeypatch, lambda a, b: (a, b))
    summary = _verify("stack", _STACK, _STACK_GRID)
    assert summary["code"] == 0 and summary["skipped"] == 0
    assert summary["max_residual_rel"] < 1e-13


@pytest.mark.parametrize("fault", [
    pytest.param(lambda a, b: (_scaled(a, 1, 1 + _FAULT), _scaled(b, 1, 1 + _FAULT)),
                 id="right-incidence"),  # 9.4e-7
    pytest.param(lambda a, b: (_scaled(a, 0, np.exp(1j * _FAULT)),
                               _scaled(b, 0, np.exp(1j * _FAULT))),
                 id="left-incidence-phase"),  # 2.6e-5
    pytest.param(lambda a, b: (_scaled(a, (..., 7), 1 + _FAULT), b), id="layer-7-a"),  # 1.5e-7
    pytest.param(lambda a, b: (a * (1 + _FAULT), b * (1 + _FAULT)), id="every-coefficient",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "both routes read the same interior coefficients, so a common "
                     "factor cancels in the identity (3.9e-14) until the Green route "
                     "shares nothing with the direct one (ROADMAP item 2)"))),
])
def test_coefficient_fault_fails_the_identity(monkeypatch, fault):
    _patch_coefficients(monkeypatch, fault)
    summary = _verify("stack", _STACK, _STACK_GRID)
    assert summary["skipped"] == 0  # caught by the residual, not by a skip
    assert summary["max_residual_rel"] > 1e-8
    assert summary["code"] == 1 and summary["pass"] is False


def _level_fault(level):
    """_up_sweep's levels with the join factors D of one level x (1 + 1e-6):
    only the down-sweep to the interior coefficients reads them."""
    def fault(levels):
        s, dd = levels[level]
        levels[level] = s, dd * (1 + _FAULT)
        return levels
    return fault


def _root_fault(levels):
    """_up_sweep's levels with the root two-port [r, t, r', t'] x (1 + 1e-6)."""
    levels[-1] = levels[-1][0] * (1 + _FAULT), None
    return levels


@pytest.mark.parametrize("name, fault", [
    # the layer phases e^{ikd} that only the Green route reads
    pytest.param("_elements", lambda out: (out[0], out[1] * np.exp(1j * _FAULT), *out[2:]),
                 id="kept-phases"),  # 1.1e-4
    pytest.param("_up_sweep", _level_fault(0), id="tree-level-0"),  # 4.5e-6
    pytest.param("_up_sweep", _level_fault(2), id="tree-level-2"),  # 8.4e-6
    pytest.param("_up_sweep", _level_fault(4), id="tree-level-4"),  # 1.6e-5
    # the Wronskian reads the root's t'
    pytest.param("_up_sweep", _root_fault, id="root-amplitudes"),  # 1.0e-6
])
def test_solver_fault_fails_the_identity(monkeypatch, name, fault):
    _patch_result(monkeypatch, solver1d, name, fault)
    summary = _verify("stack", _STACK, _STACK_GRID)
    assert summary["skipped"] == 0  # caught by the residual, not by a skip
    assert summary["max_residual_rel"] > 1e-8
    assert summary["code"] == 1 and summary["pass"] is False


# -------------------------------------------------------------------- lattice

_STRIP = random_lattice(1, 10, 80)
_STRIP_GRID = EnergyGrid(-3.5, 3.5, 30)


def test_unfaulted_strip_verifies():
    summary = _verify("lattice", _STRIP, _STRIP_GRID)
    assert summary["code"] == 0 and summary["skipped"] == 0


def test_left_connected_block_fault_fails_the_state_residual(monkeypatch):
    # the 41st inverse is the block g[40] of the first chunk's forward sweep
    inverse, calls = lattice._inv, []

    def faulty(blocks):
        calls.append(len(blocks))
        out = inverse(blocks)
        return out * (1 + _FAULT) if len(calls) == 41 else out

    monkeypatch.setattr(lattice, "_inv", faulty)
    summary = _verify("lattice", _STRIP, _STRIP_GRID)
    assert len(calls) > 41
    # the energies of that chunk are failed skips; the others still verify
    assert set(summary["skip_reasons"]) == {"NumericalFailureError"}
    assert summary["skipped"] == calls[40] < len(_STRIP_GRID.points)
    assert summary["max_residual_rel"] < 1e-13
    assert summary["code"] == 1 and summary["pass"] is False


def test_green_diagonal_fault_fails_the_identity(monkeypatch):
    # column 40 of the strip, all 10 of its sites: a single site's fault
    # (2.9e-9 at site 400) stays below the tolerance
    init = lattice._LatticeWorkspace.__init__

    def faulty(batch, *args, **kwargs):
        init(batch, *args, **kwargs)
        batch.green_diagonal[:, 400:410] *= 1 + _FAULT

    monkeypatch.setattr(lattice._LatticeWorkspace, "__init__", faulty)
    summary = _verify("lattice", _STRIP, _STRIP_GRID)
    assert summary["skipped"] == 0
    assert summary["max_residual_rel"] > 1e-8  # 2.2e-8
    assert summary["code"] == 1 and summary["pass"] is False


# ------------------------------------------------------------ both backends


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "only the V-derivative reads S, and verify gates no tau_vderiv until the "
    "V-derivative gate of ROADMAP item 13 lands"))
@pytest.mark.parametrize("backend", [
    pytest.param("stack", id="stack"),  # verifies at 4.1e-14
    pytest.param("lattice", id="lattice"),  # verifies at 4.1e-15
])
def test_smatrix_fault_fails_verify(monkeypatch, backend):
    batch = solver1d.ScatterBatch if backend == "stack" else lattice._LatticeWorkspace
    _patch_cached(monkeypatch, batch, "smatrices", lambda s: s * (1 + _FAULT))
    system, grid = (_STACK, _STACK_GRID) if backend == "stack" else (_STRIP, _STRIP_GRID)
    code, summary = cmd_verify(RunConfig(backend, system, grid, ("direct", "green", "vderiv")))
    assert code == 1 and summary["pass"] is False

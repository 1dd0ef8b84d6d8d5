"""Fault injection: which check of `dwelldos verify` catches a relative
fault of 1e-6 in one named intermediate of a backend.

Each case monkeypatches one intermediate, solves a grid through the verify
command's own check (cli.cmd_verify) and asserts which part of it fails:
the identity residual above the tolerance, or a failed skip.  A fault
that both routes read alike cancels in the identity and passes; such a
case is a strict xfail that names the ROADMAP item that would catch it.
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


def _patch_coefficients(monkeypatch, fault) -> None:
    """ScatterBatch's interior coefficients as fault(coeff_a, coeff_b)
    returns them, each a copy (2, E, n) over [left, right] incidence."""
    solve = solver1d.ScatterBatch.__dict__["_coefficients"].func
    patched = cached_property(lambda batch: fault(*(c.copy() for c in solve(batch))))
    # a cached_property set on a class after it is built is not named by it
    patched.__set_name__(solver1d.ScatterBatch, "_coefficients")
    monkeypatch.setattr(solver1d.ScatterBatch, "_coefficients", patched)


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

"""Batched campaign cells: many independent cores through one loop call.

A campaign matrix is hundreds of *independent* small simulations, and
the per-step cost of a small cell is dominated not by arithmetic but
by numpy ufunc dispatch on tiny per-cell arrays — above all the shaper
fleet's ``horizons`` and ``advance`` calls.
:func:`~repro.simulator.core.run_cores`, the one loop that steps event
cores, amortizes that dispatch when it is handed two or more cores:
their fleets become one concatenated super-fleet, advanced once per
lockstep round (see :mod:`repro.simulator.core`).

This module is the campaign side of that: :func:`run_cells` prepares
cells, groups them by fleet class (the super-fleet needs one class),
hands each group to ``run_cores`` and finishes the cells in input
order.  The single-process executor
(:class:`~repro.runtime.executors.BatchExecutor`, the default of
``CampaignRunner``, ``Campaign(workers=1)`` and ``run_manifest`` at one
worker) sends runs of independent scenario and serving cells here
through their cell functions' batched forms.  ``run_cores`` is
re-exported so that the batched path has one name to call (and to
trace).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.simulator.core import run_cores

__all__ = ["run_cores", "run_cells"]


def run_cells(
    configs: Sequence, upstreams: Sequence | None, prepare: Callable, finish: Callable
) -> list:
    """Prepare campaign cells, run them batched, finish them; in order.

    ``prepare(config, upstream=...)`` builds a cell with a ``fabric``
    and a ``state``, its unrun :class:`~repro.simulator.core.EventCore`;
    ``finish(prepared, outcome)`` makes the cell's result.  Cells are
    grouped by fleet class, as the super-fleet requires, and each group
    is one :func:`run_cores` call; the cells are independent, so each
    result is bit-identical to the cell's serial run.
    """
    if upstreams is None:
        upstreams = [None] * len(configs)
    if len(upstreams) != len(configs):
        raise ValueError("one upstream entry (or None) per config required")
    prepared = [
        prepare(config, upstream=upstream)
        for config, upstream in zip(configs, upstreams)
    ]
    groups: dict[type, list[int]] = {}
    for index, prep in enumerate(prepared):
        groups.setdefault(type(prep.fabric.fleet), []).append(index)
    results: list = [None] * len(prepared)
    for indices in groups.values():
        outcomes = run_cores([prepared[i].state for i in indices])
        for i, outcome in zip(indices, outcomes):
            results[i] = finish(prepared[i], outcome)
    return results

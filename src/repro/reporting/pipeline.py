"""Rendering the staged experiment plan (``--stages`` / ``--explain``)."""

from __future__ import annotations

from repro.reporting.tables import render_table


def stage_plan_table(experiment) -> str:
    """ASCII table of an experiment's stage sequence.

    One row per stage, in execution order: the artifacts it consumes
    and the artifacts it produces.
    """
    rows = []
    for index, row in enumerate(experiment.describe_stages(), start=1):
        rows.append(
            (
                str(index),
                row["name"],
                ", ".join(row["requires"]) or "-",
                ", ".join(row["provides"]) or "-",
            )
        )
    options = experiment.options
    machine = options.machine if experiment.machine is None else "<custom>"
    title = (
        f"Experiment plan (machine={machine!r}, "
        f"buses={options.n_buses}, "
        f"simulate={'on' if options.simulate else 'off'})"
    )
    return render_table(
        ["#", "stage", "requires", "provides"], rows, title=title
    )

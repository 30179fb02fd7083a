"""Scenario packs: declare a machine in TOML, sweep it, export yours.

Walks the whole declarative loop:

1. write a scenario pack (a TOML machine description) to disk,
2. load + validate it and run the full paper pipeline on it through
   ``--machine-file``-equivalent library calls,
3. compare against the paper machine on the same corpus,
4. export a programmatic machine back to TOML and show the round trip
   is exact.

Run: ``python examples/scenario_pack.py``
"""

import tempfile
from pathlib import Path

from repro import (
    ClusterConfig,
    Experiment,
    InstructionTable,
    InterconnectConfig,
    MachineDescription,
    OpClass,
    load_pack,
    machine_to_toml,
)
from repro.machine.isa import ClassEntry
from repro.workloads import build_corpus, spec_profile

#: A complete machine, declared as data: two asymmetric clusters — one
#: wide compute cluster, one narrow helper cluster — and a slow bus.
PACK = """\
[scenario]
name = "asymmetric-duo"
description = "One wide compute cluster plus a narrow helper cluster"

[[machine.clusters]]
int = 2
fp = 2
mem = 1
registers = 24

[[machine.clusters]]
int = 1
fp = 1
mem = 1
registers = 12

[machine.interconnect]
buses = 1
latency = 2

[machine.isa.overrides.fdiv]
latency = 12
energy = 1.8
"""


def main() -> None:
    corpus = build_corpus(spec_profile("lucas"), scale=0.02)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "asymmetric-duo.toml"
        path.write_text(PACK)

        # Load + validate.
        pack = load_pack(path)
        print(f"loaded {pack.name!r}: {pack.describe()}")

        # The file machine drives the full pipeline exactly like the
        # paper machine (CLI: --machine-file asymmetric-duo.toml).
        evaluation = (
            Experiment.paper()
            .with_machine_file(path)
            .run(corpus)
        )
        print(
            f"asymmetric-duo: ED^2 {evaluation.ed2_ratio:.3f}, "
            f"energy {evaluation.energy_ratio:.3f}, "
            f"time {evaluation.time_ratio:.3f}"
        )

    # The paper machine on the same corpus, for comparison.
    bundled = Experiment.paper().run(corpus)
    print(
        f"paper machine:  ED^2 {bundled.ed2_ratio:.3f}, "
        f"energy {bundled.energy_ratio:.3f}, time {bundled.time_ratio:.3f}"
    )

    # Any programmatic machine exports as a shareable pack.
    machine = MachineDescription(
        clusters=(ClusterConfig(n_int=2, n_fp=2, n_mem=2, n_regs=32),) * 2,
        interconnect=InterconnectConfig(n_buses=2),
        isa=InstructionTable.paper_defaults().with_entry(
            OpClass.FMUL, ClassEntry(4, 1.4)
        ),
    )
    text = machine_to_toml(machine, "tigersharc", "an exported retarget")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tigersharc.toml"
        path.write_text(text)
        assert load_pack(path).machine == machine, "round trip must be exact"
    print("exported 'tigersharc' round-trips bit-identically:")
    print(text)


if __name__ == "__main__":
    main()

"""Retargeting: a custom 2-cluster DSP-like machine with a custom ISA.

The library is not hard-wired to the paper's 4-cluster evaluation
machine.  This example builds a TigerSHARC-flavoured two-cluster VLIW
(wider clusters, more registers, a slower multiplier), schedules an FIR
filter tap loop on it, and meters the result with an energy model
calibrated on that same machine.

It then drives the *entire* paper pipeline — profile, calibrate,
optimum-homogeneous baseline, heterogeneous selection, scheduling,
metering — on it through the :class:`repro.Experiment` builder, exactly
the path the paper machine takes, and exports it as a scenario pack:
the form a campaign can sweep (``--machine-file``).

Run: ``python examples/custom_machine.py``
"""

from fractions import Fraction

from repro import (
    ClusterConfig,
    DDGBuilder,
    DomainSetting,
    EnergyBreakdown,
    EnergyModel,
    HeterogeneousModuloScheduler,
    HomogeneousModuloScheduler,
    InstructionTable,
    InterconnectConfig,
    Loop,
    MachineDescription,
    OpClass,
    OperatingPoint,
    PowerMeter,
    TechnologyModel,
    calibrate,
)
from repro.machine.isa import ClassEntry
from repro.pipeline.profiling import profile_corpus
from repro.workloads.corpus import Corpus


def build_machine() -> MachineDescription:
    """Two 2-wide clusters, 32 registers each, a 2-cycle multiplier bus."""
    isa = InstructionTable.paper_defaults().with_entry(
        OpClass.FMUL, ClassEntry(4, 1.4)  # a faster, leaner multiplier
    )
    return MachineDescription(
        clusters=(
            ClusterConfig(n_int=2, n_fp=2, n_mem=2, n_regs=32),
            ClusterConfig(n_int=2, n_fp=2, n_mem=2, n_regs=32),
        ),
        interconnect=InterconnectConfig(n_buses=2, latency=1),
        isa=isa,
    )


def build_fir_tap() -> Loop:
    """A 4-tap FIR inner loop: loads, multiplies, an adder tree, a store."""
    b = DDGBuilder("fir4")
    taps = []
    for tap in range(4):
        sample = b.op(f"x{tap}", OpClass.LOAD)
        coeff = b.op(f"c{tap}", OpClass.LOAD)
        product = b.op(f"p{tap}", OpClass.FMUL)
        b.flow(sample, product).flow(coeff, product)
        taps.append(product)
    s01 = b.op("s01", OpClass.FADD)
    s23 = b.op("s23", OpClass.FADD)
    total = b.op("sum", OpClass.FADD)
    b.flow(taps[0], s01).flow(taps[1], s01)
    b.flow(taps[2], s23).flow(taps[3], s23)
    b.flow(s01, total).flow(s23, total)
    out = b.op("out", OpClass.STORE)
    b.flow(total, out)
    index = b.op("i", OpClass.IADD)
    b.flow(index, index, distance=1)
    return Loop(b.build(), trip_count=512)


def main() -> None:
    machine = build_machine()
    technology = TechnologyModel()
    loop = build_fir_tap()

    homogeneous = HomogeneousModuloScheduler(machine, technology)
    reference = homogeneous.schedule(loop)
    print("reference schedule:", reference)
    print(f"  II = {reference.cluster_assignment(0).ii} "
          "(8 loads on 4 ports -> resMII 2)")

    # Calibrate the energy model on this machine's own profile.
    profile, _ = profile_corpus(Corpus("fir", [loop]), homogeneous)
    units = calibrate(
        profile,
        technology.reference_setting,
        EnergyBreakdown.paper_baseline(),
        machine.n_clusters,
    )
    meter = PowerMeter(EnergyModel(units, technology))

    # A heterogeneous point: cluster 0 fast, cluster 1 at 4/3 the period.
    point = OperatingPoint(
        clusters=(
            DomainSetting(Fraction(1), 1.05, technology.solve_vth(1.0, 1.05)),
            DomainSetting(Fraction(4, 3), 0.8, technology.solve_vth(0.75, 0.8)),
        ),
        icn=DomainSetting(Fraction(1), 1.0, technology.solve_vth(1.0, 1.0)),
        cache=DomainSetting(Fraction(1), 1.2, technology.solve_vth(1.0, 1.2)),
    )
    schedule = HeterogeneousModuloScheduler(machine).schedule(loop, point)
    print("heterogeneous schedule:", schedule)
    for index in range(2):
        ops = [
            op.name
            for op, placed in schedule.placements.items()
            if placed.cluster == index
        ]
        assignment = schedule.cluster_assignment(index)
        print(f"  cluster {index} (II {assignment.ii}): {sorted(ops)}")

    measured_ref = meter.measure_loop(
        reference, homogeneous.reference_point(), loop.trip_count
    )
    measured_het = meter.measure_loop(schedule, point, loop.trip_count)
    print(
        f"reference:     E = {measured_ref.energy.total:.4f}, "
        f"T = {measured_ref.exec_time_ns:.0f} ns, ED^2 = {measured_ref.ed2:.4e}"
    )
    print(
        f"heterogeneous: E = {measured_het.energy.total:.4f}, "
        f"T = {measured_het.exec_time_ns:.0f} ns, ED^2 = {measured_het.ed2:.4e} "
        f"({measured_het.ed2 / measured_ref.ed2:.3f}x)"
    )

    # --- the same machine through the experiment API -----------------
    # A live description runs the full evaluation flow in this process.
    import tempfile
    from pathlib import Path

    from repro import Experiment, machine_to_toml

    evaluation = (
        Experiment.paper()
        .with_machine(build_machine())
        .run(Corpus("fir", [build_fir_tap()]))
    )
    print(
        "full pipeline on 'tigersharc': "
        f"ED^2 ratio vs optimum homogeneous = {evaluation.ed2_ratio:.3f}, "
        f"energy {evaluation.energy_ratio:.3f}, time {evaluation.time_ratio:.3f}"
    )

    # Exported as a scenario pack, the machine travels by content: a
    # campaign job carries the file (options.machine_file), so any
    # worker process can run it.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tigersharc.toml"
        path.write_text(machine_to_toml(build_machine(), "tigersharc"))
        from_file = (
            Experiment.paper()
            .with_machine_file(path)
            .run(Corpus("fir", [build_fir_tap()]))
        )
    assert from_file.to_dict() == evaluation.to_dict(), "pack must be exact"
    print(
        "exported as a pack, identical results; sweep it with\n"
        "  python -m repro campaign --machine-file tigersharc.toml "
        "--machine-file paper"
    )

if __name__ == "__main__":
    main()

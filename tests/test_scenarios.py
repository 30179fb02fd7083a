"""Declarative scenario packs: loading, validation, round trips, campaigns."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.errors import ScenarioError, WorkloadError
from repro.machine import MachineDescription, paper_machine
from repro.machine.cluster import ClusterConfig
from repro.machine.interconnect import InterconnectConfig
from repro.machine.isa import ClassEntry, InstructionTable
from repro.pipeline import Experiment, ExperimentOptions
from repro.pipeline.cache import clear_loop_cache
from repro.pipeline.serialization import canonical_json
from repro.scenarios import (
    ScenarioPack,
    bundled_pack_paths,
    bundled_packs,
    find_pack,
    load_machine_file,
    load_pack,
    loads,
    machine_to_toml,
    pack_to_toml,
    toml_dumps,
    workload_from_dict,
)
from repro.workloads import build_corpus, spec_profile
from repro.ir.opcodes import OpClass


MINIMAL = """
[scenario]
name = "mini"

[[machine.clusters]]
count = 2
"""


# ----------------------------------------------------------------------
# bundled packs
# ----------------------------------------------------------------------
class TestBundledPacks:
    def test_expected_packs_ship(self):
        assert set(bundled_pack_paths()) == {
            "paper-1bus",
            "paper-2bus",
            "wide-issue",
            "low-power",
            "embedded",
            "stress",
        }

    @pytest.mark.parametrize("name", sorted(bundled_pack_paths()))
    def test_round_trip_bit_identical(self, name):
        """load -> export -> load reproduces every pack exactly."""
        pack = find_pack(name)
        round_tripped = loads(pack_to_toml(pack), source="round-trip")
        assert round_tripped == pack
        assert round_tripped.machine == pack.machine
        assert round_tripped.workloads == pack.workloads
        assert round_tripped.fingerprint == pack.fingerprint

    def test_paper_packs_equal_programmatic_machine(self):
        assert find_pack("paper-1bus").machine == paper_machine(n_buses=1)
        assert find_pack("paper-2bus").machine == paper_machine(n_buses=2)

    def test_descriptions_and_fingerprints_are_distinct(self):
        packs = bundled_packs()
        assert len({p.fingerprint for p in packs}) == len(packs)
        assert all(p.description for p in packs)

    def test_low_power_pack_carries_palette_and_isa_overrides(self):
        pack = find_pack("low-power")
        assert pack.palette is not None
        assert pack.palette.per_domain_size == 4
        assert pack.machine.isa.latency(OpClass.FMUL) == 8
        assert pack.machine.isa.energy(OpClass.FDIV) == 1.6

    def test_stress_pack_is_workload_only(self):
        pack = find_pack("stress")
        assert pack.machine is None
        assert {w.name for w in pack.workloads} == {"stress.deep", "stress.wide"}


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_minimal_pack_defaults_to_paper_cluster_shape(self):
        pack = loads(MINIMAL)
        assert pack.machine == MachineDescription(
            clusters=(ClusterConfig(), ClusterConfig())
        )

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ('[machine]\n', "at least one cluster"),
            ('[machine]\nclusters = []\n', "at least one cluster"),
            (
                '[[machine.clusters]]\nvec = 4\n',
                r"unknown key\(s\) 'vec'",
            ),
            (
                '[[machine.clusters]]\nint = -1\n',
                "n_int must be >= 0",
            ),
            (
                '[[machine.clusters]]\nint = 0\nfp = 0\nmem = 0\n',
                "at least one function unit",
            ),
            (
                '[[machine.clusters]]\ncount = 0\n',
                "count must be >= 1",
            ),
            (
                '[[machine.clusters]]\n\n[machine.interconnect]\nbuses = -1\n',
                "n_buses must be >= 0",
            ),
            (
                '[[machine.clusters]]\n\n[machine.isa.overrides.fmul]\n'
                'latency = -2\n',
                "latency must be >= 0",
            ),
            (
                '[[machine.clusters]]\n\n[machine.isa.overrides.fmul]\n'
                'energy = true\n',
                "energy must be a number",
            ),
            (
                '[[machine.clusters]]\n\n[machine.isa.overrides.fmul]\n'
                'energy = -0.5\n',
                "energy must be >= 0",
            ),
            (
                '[[machine.clusters]]\n\n[machine.isa.overrides.vadd]\n'
                'latency = 2\n',
                "unknown instruction class",
            ),
            (
                '[[machine.clusters]]\n\n[machine.isa]\nbase = "mips"\n',
                "unknown isa base",
            ),
            (
                '[[machine.clusters]]\n\n[machine.memory]\nalways_hit = false\n',
                "always-hit",
            ),
            (
                '[[machine.clusters]]\n\n[machine.palette]\n'
                'per_domain_size = 0\n',
                "palette size must be >= 1",
            ),
        ],
    )
    def test_malformed_machine_sections(self, mutation, message):
        text = '[scenario]\nname = "bad"\n' + mutation
        with pytest.raises(ScenarioError, match=message):
            loads(text)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"resource_share": 0.9}, "shares sum"),
            ({"trip_counts": [1.0, 5.0]}, "bad trip-count range"),
            ({"trip_counts": [50.0]}, r"\[low, high\] pair"),
            ({"recurrence_width": "broad"}, "unknown recurrence_width"),
            ({"seed": None}, "missing required key 'seed'"),
            ({"name": ""}, "non-empty string"),
            ({"surprise": 1}, "unknown key"),
        ],
    )
    def test_malformed_workloads(self, overrides, message):
        data = {
            "name": "w",
            "seed": 7,
            "recurrence_share": 1.0,
            "trip_counts": [10.0, 50.0],
        }
        data.update(overrides)
        data = {k: v for k, v in data.items() if v is not None}
        with pytest.raises(ScenarioError, match=message):
            workload_from_dict(data)

    def test_error_names_the_offending_field(self):
        text = MINIMAL + '\n[machine.interconnect]\nlatency = 0\n'
        with pytest.raises(ScenarioError, match="machine.interconnect"):
            loads(text)

    def test_pack_without_machine_or_workloads(self):
        with pytest.raises(ScenarioError, match="neither a machine nor"):
            loads('[scenario]\nname = "empty"\n')

    def test_missing_scenario_name(self):
        with pytest.raises(ScenarioError, match="scenario"):
            loads('[machine]\n[[machine.clusters]]\n')

    def test_parse_error_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="parse error"):
            loads("not [valid toml")

    def test_json_packs_load_too(self):
        pack = loads(
            json.dumps(
                {
                    "scenario": {"name": "j"},
                    "machine": {"clusters": [{"count": 1, "int": 2}]},
                }
            )
        )
        assert pack.machine.cluster(0).n_int == 2

    def test_load_machine_file_rejects_workload_only_packs(self, tmp_path):
        path = tmp_path / "w.toml"
        path.write_text(pack_to_toml(find_pack("stress")))
        with pytest.raises(ScenarioError, match="no \\[machine\\] table"):
            load_machine_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_pack(tmp_path / "absent.toml")
        with pytest.raises(ScenarioError, match="unknown scenario"):
            find_pack("no-such-pack")


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
class TestExport:
    def test_programmatic_machine_round_trips(self, tmp_path):
        machine = MachineDescription(
            clusters=(
                ClusterConfig(n_int=2, n_fp=2, n_mem=2, n_regs=32),
                ClusterConfig(n_int=1, n_fp=0, n_mem=1, n_regs=8),
            ),
            interconnect=InterconnectConfig(n_buses=2, latency=1),
            isa=InstructionTable.paper_defaults().with_entry(
                OpClass.FMUL, ClassEntry(4, 1.4)
            ),
        )
        text = machine_to_toml(machine, "my-dsp", description="a retarget")
        path = tmp_path / "my-dsp.toml"
        path.write_text(text)
        pack = load_pack(path)
        assert pack.name == "my-dsp"
        assert pack.machine == machine

    def test_uniform_energy_isa_round_trips_via_base(self):
        machine = paper_machine(uniform_energy=True)
        text = machine_to_toml(machine, "uniform")
        assert 'base = "uniform"' in text
        assert loads(text).machine == machine

    def test_toml_writer_output_parses_with_tomllib(self):
        import tomllib

        data = {
            "scalars": {"a": 1, "b": 1.5, "c": True, "d": "x\"y"},
            "arr": [1, 2, 3],
            "tables": [{"k": 1}, {"k": 2}],
        }
        assert tomllib.loads(toml_dumps(data)) == data


# ----------------------------------------------------------------------
# pack inputs carried by content
# ----------------------------------------------------------------------
def _stress(name="stress.deep"):
    return {spec.name: spec for spec in find_pack("stress").workloads}[name]


class TestPackInputs:
    def test_machine_file_resolves_the_pack_machine(self):
        pack = find_pack("wide-issue")
        experiment = Experiment.paper().with_machine_file(pack.source)
        assert experiment.resolve_machine() == pack.machine

    def test_pack_workloads_build_corpora(self):
        spec = _stress()
        assert spec.recurrence_share == 1.0
        corpus = build_corpus(spec, scale=0.02)
        assert len(corpus) >= 4

    def test_pack_workload_cannot_shadow_builtin(self):
        spec = replace(spec_profile("swim"), name="171.swim")
        with pytest.raises(ScenarioError, match="shadows a built-in"):
            ScenarioPack(name="shadow", workloads=(spec,))

    def test_job_workload_cannot_shadow_builtin_short_form(self):
        # Resolvers try "swim" -> "171.swim" first, so a workload named
        # "swim" would be silently unreachable.
        from repro.campaign.job import ExperimentJob

        spec = replace(spec_profile("swim"), name="swim")
        with pytest.raises(WorkloadError, match="shadows a built-in"):
            ExperimentJob(benchmark="swim", scale=0.02, workload=spec)

    def test_job_workload_must_carry_the_benchmark_name(self):
        from repro.campaign.job import ExperimentJob

        with pytest.raises(WorkloadError, match="does not match"):
            ExperimentJob(benchmark="stress.other", scale=0.02, workload=_stress())
        with pytest.raises(WorkloadError, match="unknown benchmark"):
            ExperimentJob(benchmark="stress.deep", scale=0.02)


# ----------------------------------------------------------------------
# machine files through the experiment/campaign machinery
# ----------------------------------------------------------------------
class TestMachineFiles:
    def test_experiment_with_machine_file(self):
        path = bundled_pack_paths()["paper-1bus"]
        experiment = Experiment.paper().with_machine_file(path)
        assert experiment.resolve_machine() == paper_machine(n_buses=1)

    def test_machine_file_replaces_the_paper_machine(self):
        options = ExperimentOptions(
            machine_file=str(bundled_pack_paths()["wide-issue"]),
        )
        machine = Experiment.paper(options).resolve_machine()
        assert machine.n_clusters == 8

    def test_options_serialization_embeds_content_fingerprint(self):
        path = bundled_pack_paths()["embedded"]
        options = ExperimentOptions(machine_file=str(path))
        data = options.to_dict()
        assert data["machine_file"]["scenario"] == "embedded"
        assert data["machine_file"]["fingerprint"] == find_pack("embedded").fingerprint
        rebuilt = ExperimentOptions.from_dict(data)
        assert rebuilt.machine_file == str(path)
        # Absent when unset: pre-scenario payloads stay byte-identical.
        assert "machine_file" not in ExperimentOptions().to_dict()

    def test_job_keys_follow_pack_content_not_formatting(self, tmp_path):
        from repro.campaign.job import ExperimentJob

        path = tmp_path / "m.toml"
        path.write_text(pack_to_toml(find_pack("embedded")))
        job = ExperimentJob(
            benchmark="171.swim",
            scale=0.02,
            options=ExperimentOptions(machine_file=str(path)),
        )
        key = job.key()

        # Reformatting (comments/whitespace) leaves the key unchanged...
        path.write_text("# cosmetic comment\n" + path.read_text() + "\n")
        assert job.key() == key

        # ...as does moving the file: the path is transport, not identity.
        moved = tmp_path / "subdir" / "renamed.toml"
        moved.parent.mkdir()
        moved.write_text(path.read_text())
        moved_job = ExperimentJob(
            benchmark="171.swim",
            scale=0.02,
            options=ExperimentOptions(machine_file=str(moved)),
        )
        assert moved_job.key() == key

        # ...while a semantic edit (more registers) changes it.
        path.write_text(
            path.read_text().replace("registers = 12", "registers = 16")
        )
        assert job.key() != key

    def test_config_label_uses_scenario_name_not_basename(self, tmp_path):
        """Two packs sharing a basename must not aggregate as one config."""
        from repro.campaign.job import ExperimentJob

        labels = set()
        for variant, buses in (("alpha", 1), ("beta", 2)):
            directory = tmp_path / variant
            directory.mkdir()
            path = directory / "machine.toml"
            path.write_text(
                machine_to_toml(paper_machine(n_buses=buses), f"m-{variant}")
            )
            job = ExperimentJob(
                benchmark="171.swim",
                scale=0.02,
                options=ExperimentOptions(machine_file=str(path)),
            )
            labels.add(job.config_label())
        assert len(labels) == 2
        assert any("machine-file=m-alpha" in label for label in labels)

    def test_fingerprint_follows_file_edits(self, tmp_path):
        """The memoized loader re-reads a file whose content changed."""
        from repro.scenarios import machine_file_fingerprint

        path = tmp_path / "ghost.toml"
        path.write_text(machine_to_toml(paper_machine(), "ghost-machine"))
        name, fingerprint = machine_file_fingerprint(path)
        assert name == "ghost-machine"
        assert machine_file_fingerprint(path) == (name, fingerprint)
        path.write_text(machine_to_toml(paper_machine(n_buses=2), "ghost-2"))
        assert machine_file_fingerprint(path)[0] == "ghost-2"
        assert load_machine_file(path).machine == paper_machine(n_buses=2)

    def test_live_machine_overrides_machine_file(self):
        path = bundled_pack_paths()["wide-issue"]
        experiment = (
            Experiment.paper().with_machine_file(path).with_machine(paper_machine())
        )
        assert experiment.resolve_machine() == paper_machine()

    def test_carried_workload_jobs_are_content_addressed(self):
        """Editing a workload definition must change job keys."""
        from repro.campaign.job import ExperimentJob

        base = replace(
            spec_profile("187.facerec"), name="scratch.addressed", seed=1
        )
        job = ExperimentJob(
            benchmark="scratch.addressed", scale=0.02, workload=base
        )
        key = job.key()
        assert "workload" in job.to_dict()

        edited = replace(job, workload=replace(base, seed=2))
        assert edited.key() != key

        # from_dict restores the embedded definition (the worker path).
        restored = ExperimentJob.from_dict(edited.to_dict())
        assert restored.workload.seed == 2
        assert restored == edited
        assert restored.key() == edited.key()

    def test_campaign_children_need_no_registration(self, tmp_path):
        """Pack workload x {paper, pack machine} under forkserver children.

        Nothing is registered in this process and no pack is handed to
        the runner: every job carries its workload spec and machine
        file.  Two children compute what one in-process slot computes,
        byte for byte.
        """
        spec = CampaignSpec(
            benchmarks=(_stress(),),
            scale=0.01,
            machine_files=(None, str(bundled_pack_paths()["wide-issue"])),
        )
        jobs = spec.expand()
        assert len(jobs) == 2
        children = run_campaign(
            jobs, store=ResultStore(tmp_path / "two"), n_jobs=2, recompute=True
        )
        assert not children.failed, [r.error for r in children.failed]
        inline = run_campaign(jobs, store=ResultStore(tmp_path / "one"), n_jobs=1)
        assert not inline.failed
        for forked, local in zip(children.results, inline.results):
            assert forked.key == local.key
            assert canonical_json(forked.evaluation.to_dict()) == canonical_json(
                local.evaluation.to_dict()
            )

    def test_campaign_machine_axis_sweeps_paper_and_files(self):
        files = [
            str(bundled_pack_paths()[name])
            for name in ("paper-2bus", "wide-issue")
        ]
        spec = CampaignSpec(
            benchmarks=("171.swim",),
            machine_files=(None, *files),
        )
        jobs = spec.expand()
        assert spec.n_configurations == 3
        assert [j.options.machine_file for j in jobs] == [None] + files
        labels = [j.config_label() for j in jobs]
        assert "machine-file=wide-issue" in labels[2]
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_campaign_requires_some_machine_axis(self):
        with pytest.raises(WorkloadError, match="machine_files is empty"):
            CampaignSpec(benchmarks=("171.swim",), machine_files=())

    def test_campaign_spec_rejects_unknown_grids(self):
        data = CampaignSpec(benchmarks=("171.swim",)).to_dict()
        data["machines_grid"] = ["warp9"]
        with pytest.raises(WorkloadError, match="unknown campaign grid"):
            CampaignSpec.from_dict(data)

    def test_campaign_spec_carries_pack_workloads(self):
        spec = CampaignSpec(benchmarks=("171.swim", _stress()), scale=0.02)
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        jobs = rebuilt.expand()
        assert [job.benchmark for job in jobs] == ["171.swim", "stress.deep"]
        assert [job.workload for job in jobs] == [None, _stress()]


class TestCampaignOverScenarioFiles:
    def test_resume_reschedules_no_loops(self, tmp_path):
        """A ≥3-pack campaign resumes with zero re-scheduled loops.

        Second run, same spec: every job answers from the whole-job
        cache.  Third run with the job entries deleted and the in-memory
        loop memo cleared: per-loop profiles and schedules reload from
        the disk layer — zero loop *misses*, i.e. nothing is re-scheduled.
        """
        files = tuple(
            str(bundled_pack_paths()[name])
            for name in ("paper-1bus", "paper-2bus", "embedded")
        )
        spec = CampaignSpec(
            benchmarks=("171.swim",),
            scale=0.02,
            machine_files=files,
        )
        jobs = spec.expand()
        assert len(jobs) == 3
        store = ResultStore(tmp_path / "cache")

        clear_loop_cache()
        first = run_campaign(jobs, store=store)
        assert not first.failed and first.n_cached == 0

        second = run_campaign(jobs, store=store)
        assert not second.failed and second.n_cached == len(jobs)

        # Invalidate whole-job entries; keep the loop artifacts.
        for job in jobs:
            assert store.delete(job.key())
        clear_loop_cache()
        third = run_campaign(jobs, store=store)
        assert not third.failed and third.n_cached == 0
        for result in third.results:
            assert result.loop_cache is not None
            assert result.loop_cache["misses"] == 0
            assert result.loop_cache["disk_hits"] > 0
        assert [r.evaluation.ed2_ratio for r in third.results] == [
            r.evaluation.ed2_ratio for r in first.results
        ]


# ----------------------------------------------------------------------
# the CLI verb
# ----------------------------------------------------------------------
class TestScenariosCLI:
    def test_validate_all_bundled(self, capsys):
        assert main(["scenarios", "--validate"]) == 0
        output = capsys.readouterr().out
        assert output.count("ok ") == len(bundled_pack_paths())

    def test_validate_failure_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[scenario]\nname = "bad"\n[machine]\nclusters = []\n')
        assert main(["scenarios", "--validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_list_describe_export(self, capsys):
        assert main(["scenarios"]) == 0
        assert "wide-issue" in capsys.readouterr().out

        assert main(["scenarios", "--describe", "low-power"]) == 0
        assert "instruction table" in capsys.readouterr().out

        import tomllib

        assert main(["scenarios", "--export", "embedded"]) == 0
        exported = tomllib.loads(capsys.readouterr().out)
        assert exported["scenario"]["name"] == "embedded"

    def test_export_refuses_multiple_packs(self, capsys):
        # Concatenated [scenario] tables would not parse as one document.
        assert main(["scenarios", "--export"]) == 2
        assert "exactly one pack" in capsys.readouterr().err

    def test_evaluate_with_machine_file_and_pack_workloads(self, capsys):
        assert main(
            [
                "evaluate",
                "stress.deep",
                "--workloads",
                "stress",
                "--machine-file",
                "embedded",
                "--scale",
                "0.02",
                "--output",
                "json",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["benchmark"] == "stress.deep"
        assert len(data["baseline_selection"]["point"]["clusters"]) == 2


# ----------------------------------------------------------------------
# the loop-cache invalidation matrix
# ----------------------------------------------------------------------
MATRIX_BASE = """
[scenario]
name = "matrix-base"

[[machine.clusters]]
count = 2
int = 1
fp = 1
mem = 1
registers = 16

[machine.interconnect]
buses = 1
latency = 1

[machine.memory]
always_hit = true

[machine.isa]
base = "paper"
"""

#: knob -> (toml mutation, facets whose per-loop artifacts it must
#: invalidate).  "Exactly" is the contract: a knob that should leave the
#: loop cache warm must change *neither* facet fingerprint.
MATRIX = {
    "fu_mix": ("int = 1\n", "int = 2\n", {"cluster_shape"}),
    "latency_entry": (
        'base = "paper"\n',
        'base = "paper"\n\n[machine.isa.overrides.fmul]\nlatency = 5\n',
        {"isa"},
    ),
    "isa_energy_override": (
        'base = "paper"\n',
        'base = "paper"\n\n[machine.isa.overrides.fmul]\nenergy = 2.0\n',
        {"isa"},
    ),
    "cluster_count": ("count = 2\n", "count = 4\n", {"cluster_shape"}),
    "cluster_width": ("mem = 1\n", "mem = 2\n", {"cluster_shape"}),
    "register_file": ("registers = 16\n", "registers = 32\n", {"cluster_shape"}),
    "bus_count": ("buses = 1\n", "buses = 2\n", {"cluster_shape"}),
    "bus_latency": ("latency = 1\n", "latency = 2\n", {"cluster_shape"}),
    "frequency_palette": (
        "[machine.memory]\n",
        "[machine.palette]\nper_domain_size = 4\n\n[machine.memory]\n",
        set(),
    ),
    "scenario_name": ('name = "matrix-base"\n', 'name = "renamed"\n', set()),
}


class TestLoopCacheInvalidationMatrix:
    """Which pack edits throw away warm per-loop artifacts — exactly.

    Per-loop cache keys are built from the two machine facet
    fingerprints (ISA table, cluster shape), so an edit invalidates a
    loop artifact iff it moves a facet fingerprint.  The matrix pins
    both directions: schedule-relevant knobs must invalidate, and
    advisory ones (pack palette, naming) must not.
    """

    @pytest.mark.parametrize("knob", sorted(MATRIX))
    def test_knob_invalidates_exactly_the_expected_facets(self, knob):
        old, new, expected = MATRIX[knob]
        assert old in MATRIX_BASE, f"matrix template drifted for {knob}"
        mutated_text = MATRIX_BASE.replace(old, new, 1)
        assert mutated_text != MATRIX_BASE
        base = loads(MATRIX_BASE)
        mutated = loads(mutated_text)
        base_facets = base.facet_fingerprints()
        mutated_facets = mutated.facet_fingerprints()
        assert set(base_facets) == {"isa", "cluster_shape"}
        churned = {
            facet
            for facet in base_facets
            if base_facets[facet] != mutated_facets[facet]
        }
        assert churned == expected, (
            f"{knob}: expected exactly {sorted(expected)} to change, "
            f"got {sorted(churned)}"
        )

    def test_full_pack_fingerprint_still_sees_every_edit(self):
        # The *job-level* fingerprint must move for every knob (even the
        # advisory ones) — coarse invalidation stays conservative while
        # the loop layer stays fine-grained.
        base = loads(MATRIX_BASE)
        for knob, (old, new, _) in MATRIX.items():
            mutated = loads(MATRIX_BASE.replace(old, new, 1))
            assert mutated.fingerprint != base.fingerprint, knob

    def _run(self, pack_text, tmp_path, name):
        from repro.pipeline.cache import LOOP_CACHE

        path = tmp_path / f"{name}.toml"
        path.write_text(pack_text)
        corpus = build_corpus(spec_profile("swim"), scale=0.02)
        options = ExperimentOptions(machine_file=str(path))
        before = LOOP_CACHE.stats()
        Experiment.paper(options).run(corpus)
        after = LOOP_CACHE.stats()
        return {
            counter: after[counter] - before[counter]
            for counter in ("hits", "misses")
        }

    def test_palette_edit_keeps_every_loop_artifact_warm(self, tmp_path):
        clear_loop_cache(reset_stats=True)
        cold = self._run(MATRIX_BASE, tmp_path, "base")
        assert cold["misses"] > 0 and cold["hits"] == 0
        old, new, _ = MATRIX["frequency_palette"]
        warm = self._run(
            MATRIX_BASE.replace(old, new, 1), tmp_path, "palette"
        )
        # The advisory palette invalidates nothing: every per-loop
        # artifact is served warm, zero loops are re-scheduled.
        assert warm["misses"] == 0
        assert warm["hits"] == cold["misses"]

    def test_register_file_edit_invalidates_every_loop_artifact(self, tmp_path):
        clear_loop_cache(reset_stats=True)
        cold = self._run(MATRIX_BASE, tmp_path, "base")
        old, new, _ = MATRIX["register_file"]
        churned = self._run(
            MATRIX_BASE.replace(old, new, 1), tmp_path, "registers"
        )
        # A schedule-relevant knob invalidates everything: the warm run
        # recomputes exactly as many artifacts as the cold one did.
        assert churned["hits"] == 0
        assert churned["misses"] == cold["misses"]

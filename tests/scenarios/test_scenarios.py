"""Scenario registry round-trip tests.

Every registered scenario must build, simulate a short trace on both
simulation backends, and produce a JSON report that validates against the
``repro.scenario-report/v2`` schema.  These tests iterate the registry
itself, so newly registered scenarios are covered automatically.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ScenarioError
from repro.experiments import scenario_runner
from repro.experiments.scenario_runner import (
    REPORT_SCHEMA,
    REPORT_TABLE,
    run_scenario,
    validate_report,
)
from repro.experiments.schema import List, Obj, Opt
from repro.scenarios import (
    BuiltScenario,
    Scenario,
    ScenarioParameter,
    available_scenarios,
    get_scenario,
    register_scenario,
    scenario_catalog,
)
from repro.scenarios.base import _REGISTRY
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import BACKEND_REFERENCE, BACKEND_VECTORIZED
from repro.workloads.jobs import JobTrace

from tests.cluster.test_executor_parity import assert_farm_results_identical

#: Overrides that shrink any scenario to a couple of seconds of wall clock.
TINY = {"duration_minutes": 5}

#: Parameters a builder may normalise to the whole number it actually used
#: (rounded minutes and counts, a crowd window or trace length clipped to
#: the run); every other parameter is reported exactly as resolved.
NORMALISED = frozenset(
    {
        "duration_minutes",
        "servers",
        "xeon_servers",
        "atom_servers",
        "min_awake",
        "phase_minutes",
        "crowd_start_minute",
        "crowd_minutes",
    }
)


class TestRegistry:
    def test_at_least_six_scenarios_registered(self):
        assert len(available_scenarios()) >= 6

    def test_names_are_kebab_case_and_sorted(self):
        names = available_scenarios()
        assert names == sorted(names)
        for name in names:
            assert name == name.lower()
            assert " " not in name

    def test_unknown_scenario_lists_alternatives(self):
        with pytest.raises(ScenarioError, match="diurnal"):
            get_scenario("definitely-not-registered")

    def test_unknown_override_rejected(self):
        with pytest.raises(ScenarioError, match="no parameter"):
            get_scenario("diurnal").build(not_a_parameter=3)

    def test_trace_backend_knob_is_gone(self):
        # No longer a build() keyword, so it is an unknown override.
        assert "trace_backend" not in Scenario.RESERVED_NAMES
        with pytest.raises(ScenarioError, match="no parameter.*trace_backend"):
            get_scenario("diurnal").build(trace_backend="mmap")

    def test_run_scenario_trace_backend_is_gone(self):
        with pytest.raises(TypeError, match="trace_backend"):
            run_scenario("diurnal", trace_backend="mmap")

    def test_reserved_override_names_get_a_helpful_error(self):
        # `--set seed=3` must point at --seed, not crash with a TypeError.
        with pytest.raises(ExperimentError, match="--seed / --backend"):
            run_scenario("diurnal", overrides={"seed": 3})
        with pytest.raises(ExperimentError, match="--seed / --backend"):
            run_scenario("diurnal", overrides={"backend": "reference"})

    def test_reserved_parameter_names_rejected_at_registration(self):
        with pytest.raises(ScenarioError, match="reserved"):
            Scenario(
                name="bad",
                description="declares a reserved parameter",
                builder=lambda **_: None,
                parameters=(ScenarioParameter("seed", 0, "collides"),),
            )

    def test_fractional_server_count_rejected(self):
        with pytest.raises(ScenarioError, match="whole number"):
            get_scenario("diurnal").build(servers=2.9, **TINY)
        with pytest.raises(ScenarioError, match="whole number"):
            get_scenario("heterogeneous-farm").build(atom_servers=1.5, **TINY)

    def test_mistyped_override_value_rejected(self):
        # "--set duration_minutes=abc" must fail with a clear ScenarioError,
        # not a TypeError from inside the builder.
        with pytest.raises(ScenarioError, match="expects a number"):
            get_scenario("diurnal").build(duration_minutes="abc")
        with pytest.raises(ScenarioError, match="expects a string"):
            get_scenario("trace-replay").build(trace=3, **TINY)

    def test_heavy_tail_parameter_ranges_rejected(self):
        with pytest.raises(ScenarioError, match="pareto_alpha"):
            get_scenario("heavy-tail").build(pareto_alpha=2.0, **TINY)
        with pytest.raises(ScenarioError, match="mean_service_ms"):
            get_scenario("heavy-tail").build(mean_service_ms=0.0, **TINY)

    def test_invalid_worker_count_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="max_workers"):
            run_scenario("trace-replay", max_workers=0, overrides=TINY)

    def test_report_works_for_unregistered_scenario(self):
        """Reporting must not require the registry — only the built object."""
        from repro.experiments.scenario_runner import report_from_result

        registered = get_scenario("trace-replay").build(seed=0, **TINY)
        unregistered = Scenario(
            name="not-in-the-registry",
            description="hand-constructed scenario",
            builder=lambda **kwargs: None,  # never called
        )
        built = BuiltScenario(
            name="not-in-the-registry",
            spec=registered.spec,
            jobs=registered.jobs,
            farm=registered.farm,
            description=unregistered.description,
        )
        report = report_from_result(built, built.run())
        validate_report(report)
        assert report["scenario"] == "not-in-the-registry"
        assert report["description"] == "hand-constructed scenario"

    def test_duplicate_registration_rejected(self):
        existing = get_scenario("diurnal")
        with pytest.raises(ScenarioError, match="already registered"):
            register_scenario(existing)

    def test_registering_and_removing_a_custom_scenario(self):
        def build(args):
            diurnal = get_scenario("diurnal").build(
                seed=args.seed, backend=args.backend, search=args.search, **TINY
            )
            return diurnal.spec, diurnal.jobs, diurnal.farm, {"knob": round(args.knob)}

        custom = Scenario(
            name="custom-test-only",
            description="registry round-trip fixture",
            builder=build,
            parameters=(ScenarioParameter("knob", 1, "rounded to a whole number"),),
        )
        register_scenario(custom)
        try:
            assert "custom-test-only" in available_scenarios()
            built = get_scenario("custom-test-only").build(seed=4, knob=2.6)
            assert isinstance(built, BuiltScenario)
            assert built.name == "custom-test-only"
            assert built.description == "registry round-trip fixture"
            assert built.parameters == {"knob": 3}
            assert built.seed == 4
        finally:
            del _REGISTRY["custom-test-only"]

    def test_builder_may_only_normalise_declared_parameters(self):
        def build(args):
            diurnal = get_scenario("diurnal").build(**TINY)
            return diurnal.spec, diurnal.jobs, diurnal.farm, {"typo": 1}

        custom = Scenario(name="normalises-a-typo", description="x", builder=build)
        with pytest.raises(ScenarioError, match="undeclared parameter"):
            custom.build()

    def test_rules_run_in_resolve_before_any_build(self):
        def build(args):  # pragma: no cover - the rules stop every call
            raise AssertionError("a rule should have failed first")

        def positive(name, value):
            return None if value > 0 else f"{name} must be positive, got {value}"

        def ordered(values):
            if values["low"] <= values["high"]:
                return None
            return f"low above high: {values['low']} > {values['high']}"

        custom = Scenario(
            name="rule-checked",
            description="x",
            builder=build,
            parameters=(
                ScenarioParameter("low", 1.0, "x", positive),
                ScenarioParameter("high", 2.0, "x", positive),
            ),
            checks=(ordered,),
        )
        assert custom.resolve({})[0] == {"low": 1.0, "high": 2.0}
        with pytest.raises(ScenarioError, match="low must be positive, got -1"):
            custom.resolve({"low": -1.0})
        # A parameter's own rule fails before the rule across parameters.
        with pytest.raises(ScenarioError, match="high must be positive"):
            custom.build(high=-1.0)
        with pytest.raises(ScenarioError, match="low above high: 3.0 > 2.0"):
            custom.build(low=3.0)

    @pytest.mark.parametrize("name", available_scenarios())
    def test_declared_defaults_meet_their_rules(self, name):
        values, _ = get_scenario(name).resolve({})
        assert values == get_scenario(name).parameter_defaults()

    @pytest.mark.parametrize(
        ("name", "overrides", "message"),
        [
            ("diurnal", {"duration_minutes": -5}, "duration_minutes must be at least 1, got -5"),
            ("diurnal", {"workload": "dnx"}, "unknown Table 5 workload 'dnx'"),
            ("diurnal", {"trough_utilization": 0.9}, "need 0 < trough_utilization"),
            ("flash-crowd", {"crowd_minutes": 0}, "crowd_minutes must be at least 1"),
            ("correlated-arrivals", {"persistence": 1.0}, "persistence must lie in [0, 1), got 1.0"),
            ("trace-replay", {"trace": "trace.txt"}, "unknown trace 'trace.txt'"),
            ("farm-scale", {"xeon_servers": 0, "atom_servers": 0}, "need at least one server"),
            ("mega-farm", {"atom_frequency_ceiling": 1.2}, "atom_frequency_ceiling must lie in (0, 1]"),
            ("mega-farm", {"epoch_minutes": 0.0}, "epoch_minutes must be positive"),
            ("autoscale-diurnal", {"min_awake": 5}, "min_awake must be a whole number in [1, 4]"),
            ("autoscale-surge", {"policy": "reactiv"}, "policy must be one of"),
            ("autoscale-surge", {"setup_latency_s": -1.0}, "setup_latency_s must be at least 0"),
            ("noisy-neighbor", {"dispatcher": "fifo"}, "dispatcher must be one of"),
            ("tenant-surge", {"servers": 1}, "servers must be at least 2, got 1"),
            ("tenant-surge", {"surge_weight": 0.0}, "surge_weight must be positive"),
            ("priority-inversion", {"phase_minutes": 0.4}, "phase_minutes must be at least 1"),
        ],
    )
    def test_bad_values_fail_in_resolve(self, name, overrides, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            get_scenario(name).resolve(overrides)

    def test_builder_arguments_are_read_only(self):
        def build(args):
            args.seed = 1

        custom = Scenario(name="writes-its-args", description="x", builder=build)
        with pytest.raises(AttributeError, match="read-only"):
            custom.build()

    def test_catalog_matches_registry(self):
        catalog = scenario_catalog()
        assert sorted(catalog) == available_scenarios()
        for name, entry in catalog.items():
            assert entry["description"]
            declared = get_scenario(name).parameter_defaults()
            assert set(entry["parameters"]) == set(declared)
            for parameter, details in entry["parameters"].items():
                assert details["default"] == declared[parameter]
                assert details["description"]


class TestEveryScenario:
    """Parametrised over the registry: new scenarios join automatically."""

    @pytest.fixture(params=sorted(available_scenarios()))
    def name(self, request):
        return request.param

    def test_saved_trace_reruns_identically(self, name, tmp_path):
        built = get_scenario(name).build(seed=11, **TINY)
        path = tmp_path / "jobs.npy"
        built.jobs.to_file(path)
        loaded = JobTrace.from_file(path)
        assert np.array_equal(loaded.arrival_times, built.jobs.arrival_times)
        assert np.array_equal(loaded.service_demands, built.jobs.service_demands)
        # A per-tenant scenario's labels travel in the file.
        if built.jobs.tenant_ids is None:
            assert loaded.tenant_ids is None
        else:
            assert np.array_equal(loaded.tenant_ids, built.jobs.tenant_ids)
        rerun = get_scenario(name).build(seed=11, **TINY).farm.run(loaded)
        assert_farm_results_identical(built.run(), rerun)

    def test_builds_and_is_deterministic(self, name):
        first = get_scenario(name).build(seed=11, **TINY)
        second = get_scenario(name).build(seed=11, **TINY)
        assert first.jobs == second.jobs
        assert first.num_jobs > 0
        assert first.parameters["duration_minutes"] == TINY["duration_minutes"]

    def test_build_fills_parameters_and_build_arguments(self, name):
        scenario_obj = get_scenario(name)
        overrides = {"duration_minutes": 5.4}
        built = scenario_obj.build(
            seed=7, backend=BACKEND_REFERENCE, search="full", **overrides
        )
        resolved = {**scenario_obj.parameter_defaults(), **overrides}
        assert list(built.parameters) == list(resolved)
        for key, value in built.parameters.items():
            if key in NORMALISED:
                assert type(value) is int, key
            else:
                assert value == resolved[key], key
        assert built.parameters["duration_minutes"] == 5
        assert (built.seed, built.backend, built.search) == (
            7,
            BACKEND_REFERENCE,
            "full",
        )
        assert built.description == scenario_obj.description

    def test_seed_changes_the_stream(self, name):
        first = get_scenario(name).build(seed=1, **TINY)
        second = get_scenario(name).build(seed=2, **TINY)
        assert first.jobs != second.jobs

    def test_short_trace_simulates_on_both_backends(self, name):
        """The built stream is valid input for both simulation backends."""
        from repro.power.states import C3_S0I

        built = get_scenario(name).build(seed=3, **TINY)
        jobs = built.jobs.head(200)
        policy_model = built.farm.servers[0].power_model
        sleep = policy_model.immediate_sleep_sequence(C3_S0I)
        results = {
            backend: simulate_trace(
                jobs=jobs,
                frequency=0.8,
                sleep=sleep,
                power_model=policy_model,
                backend=backend,
            )
            for backend in (BACKEND_VECTORIZED, BACKEND_REFERENCE)
        }
        np.testing.assert_allclose(
            results[BACKEND_VECTORIZED].response_times,
            results[BACKEND_REFERENCE].response_times,
            rtol=1e-9,
        )
        assert results[BACKEND_VECTORIZED].total_energy == pytest.approx(
            results[BACKEND_REFERENCE].total_energy, rel=1e-9
        )

    def test_end_to_end_report_is_schema_valid_and_json_safe(self, name):
        report = run_scenario(name, seed=5, overrides=TINY)
        validate_report(report)  # run_scenario validates too; double-checking
        assert report["schema"] == REPORT_SCHEMA
        assert report["scenario"] == name
        # A report must survive a JSON round-trip unchanged (no NaN leaks).
        assert json.loads(json.dumps(report)) == report

    def test_job_conservation_in_report(self, name):
        report = run_scenario(name, seed=5, overrides=TINY)
        assert (
            sum(entry["num_jobs"] for entry in report["per_server"])
            == report["workload"]["num_jobs"]
        )


class TestBackendSelection:
    def test_reference_backend_runs_end_to_end(self):
        report = run_scenario(
            "diurnal", seed=7, backend=BACKEND_REFERENCE, overrides=TINY
        )
        assert report["backend"] == BACKEND_REFERENCE

    def test_backends_agree_on_selected_states(self):
        """The per-epoch policy search must not depend on the backend."""
        reports = {
            backend: run_scenario(
                "diurnal", seed=7, backend=backend, overrides=TINY
            )
            for backend in (BACKEND_VECTORIZED, BACKEND_REFERENCE)
        }
        assert (
            reports[BACKEND_VECTORIZED]["state_selection_fractions"]
            == reports[BACKEND_REFERENCE]["state_selection_fractions"]
        )
        assert reports[BACKEND_VECTORIZED]["energy"]["total_joules"] == pytest.approx(
            reports[BACKEND_REFERENCE]["energy"]["total_joules"], rel=1e-6
        )

    def test_unknown_backend_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            get_scenario("diurnal").build(backend="quantum")


class TestHeterogeneousScenario:
    def test_at_least_one_scenario_is_heterogeneous(self):
        heterogeneous = [
            name
            for name in available_scenarios()
            if get_scenario(name).build(seed=0, **TINY).farm.is_heterogeneous
        ]
        assert heterogeneous, "the library must ship a heterogeneous scenario"

    def test_heterogeneous_farm_report_lists_both_platforms(self):
        report = run_scenario("heterogeneous-farm", seed=0, overrides=TINY)
        assert report["farm"]["heterogeneous"] is True
        assert len(report["farm"]["platforms"]) >= 2
        assert set(report["farm"]["platforms"]) == {"xeon", "atom"}


class TestValidator:
    @pytest.fixture()
    def report(self):
        return run_scenario("trace-replay", seed=0, overrides=TINY)

    def test_missing_key_rejected(self, report):
        broken = dict(report)
        del broken["energy"]
        with pytest.raises(ExperimentError, match="exactly the keys"):
            validate_report(broken)

    def test_wrong_schema_tag_rejected(self, report):
        broken = dict(report)
        broken["schema"] = "repro.scenario-report/v0"
        with pytest.raises(ExperimentError, match="schema"):
            validate_report(broken)

    def test_nan_metric_rejected(self, report):
        broken = json.loads(json.dumps(report))
        broken["energy"]["total_joules"] = float("nan")
        with pytest.raises(ExperimentError, match="finite"):
            validate_report(broken)

    def test_fractions_must_sum_to_one(self, report):
        broken = json.loads(json.dumps(report))
        first = next(iter(broken["state_selection_fractions"]))
        broken["state_selection_fractions"][first] *= 0.5
        with pytest.raises(ExperimentError, match="sum to 1"):
            validate_report(broken)

    def test_job_conservation_enforced(self, report):
        broken = json.loads(json.dumps(report))
        broken["per_server"][0]["num_jobs"] += 1
        with pytest.raises(ExperimentError, match="job conservation"):
            validate_report(broken)

    def test_heterogeneous_flag_must_match_platforms(self, report):
        broken = json.loads(json.dumps(report))
        broken["farm"]["heterogeneous"] = True  # single-platform farm
        with pytest.raises(ExperimentError, match="heterogeneous"):
            validate_report(broken)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r["per_server"][0].update(server=5), r"per_server\[0\]\.server"),
            (lambda r: r["per_server"][0].update(server="ghost"), "in server order"),
            (lambda r: r["farm"].update(platforms=[7]), "farm.platforms"),
            (lambda r: r["farm"].update(platforms=["xeon", "xeon"]), "servers. distinct platforms"),
            (lambda r: r["workload"].update(duration_s=-1), "workload.duration_s"),
            (lambda r: r["workload"].update(name=""), "non-empty string"),
            (lambda r: r["farm"].update(dispatcher=""), "non-empty string"),
            (lambda r: r["workload"].update(num_jobs=True), "workload.num_jobs must be an integer"),
        ],
    )
    def test_schema_gaps_are_closed(self, report, mutate, message):
        broken = json.loads(json.dumps(report))
        mutate(broken)
        with pytest.raises(ExperimentError, match=message):
            validate_report(broken)

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (
                lambda r: r["per_server"].append({**r["per_server"][0], "num_jobs": "x"}),
                "per_server[1].num_jobs",
            ),
            (
                lambda r: r["farm"]["servers"].append({"name": "extra", "platform": 3}),
                "farm.servers[1].platform",
            ),
        ],
    )
    def test_message_names_the_indexed_path(self, report, mutate, path):
        broken = json.loads(json.dumps(report))
        mutate(broken)
        with pytest.raises(ExperimentError) as caught:
            validate_report(broken)
        assert f"{path} must be" in str(caught.value)

    def test_docstring_schema_lists_every_table_key(self):
        block = scenario_runner.__doc__.split("Report schema", 1)[1]
        block = block.split("NaN is not valid JSON", 1)[0]

        def table_keys(node):
            if isinstance(node, Opt):
                yield from table_keys(node.node)
            elif isinstance(node, List):
                yield from table_keys(node.item)
            elif isinstance(node, Obj):
                for key, child in (node.fields or {}).items():
                    yield key
                    yield from table_keys(child)
                if node.values is not None:
                    yield from table_keys(node.values)

        keys = set(table_keys(REPORT_TABLE))
        assert "interference_violation" in keys  # the walk reaches nested rows
        missing = sorted(key for key in keys if f'"{key}"' not in block)
        assert missing == []


class TestCli:
    def test_list_scenarios_prints_every_name(self, capsys):
        from repro.experiments.runner import main

        assert main(["list-scenarios"]) == 0
        output = capsys.readouterr().out
        for name in available_scenarios():
            assert name in output

    def test_run_scenario_prints_valid_json(self, capsys):
        from repro.experiments.runner import main

        assert (
            main(
                [
                    "run-scenario",
                    "trace-replay",
                    "--seed",
                    "3",
                    "--set",
                    "duration_minutes=5",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["seed"] == 3
        assert report["parameters"]["duration_minutes"] == 5

    def test_run_scenario_writes_output_file(self, capsys, tmp_path):
        from repro.experiments.runner import main

        target = tmp_path / "report.json"
        assert (
            main(
                [
                    "run-scenario",
                    "trace-replay",
                    "--set",
                    "duration_minutes=5",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        capsys.readouterr()
        validate_report(json.loads(target.read_text()))

    def test_run_scenario_with_string_override(self, capsys):
        from repro.experiments.runner import main

        assert (
            main(
                [
                    "run-scenario",
                    "trace-replay",
                    "--set",
                    "trace=email-store",
                    "--set",
                    "duration_minutes=5",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["trace"] == "email-store"

    def test_experiment_cli_still_lists_experiments(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        assert "figure1" in capsys.readouterr().out

    def test_list_scenarios_rejects_extra_arguments(self, capsys):
        from repro.experiments.runner import main

        assert main(["list-scenarios", "--help"]) == 2
        assert "takes no arguments" in capsys.readouterr().err

    def test_main_help_mentions_scenario_subcommands(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["--help"])
        output = capsys.readouterr().out
        assert "run-scenario" in output
        assert "list-scenarios" in output


def _one_error_line(capsys) -> str:
    """The single ``error:`` line a failed CLI run wrote, and nothing else."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    return lines[0]


class TestCliErrors:
    """User mistakes end in one ``error:`` line and a nonzero exit."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["diurnal", "--set", "bogus=1"], "no parameter(s) ['bogus']"),
            (["diurnal", "--set", "peak_utilization=1.5"], "peak_utilization"),
            (["flash-crowd", "--set", "duration_minutes=0.5"], "duration_minutes"),
            (["trace-replay", "--set", "scale=0"], "scale must be positive, got 0"),
            (["trace-replay", "--set", "scale=-1"], "scale must be positive, got -1"),
            (["farm-scale", "--set", "chunk_jobs=32768"], "no parameter(s) ['chunk_jobs']"),
        ],
        ids=[
            "unknown-parameter",
            "peak-utilization-range",
            "fractional-duration",
            "zero-trace-scale",
            "negative-trace-scale",
            "removed-chunk-size",
        ],
    )
    def test_bad_override_prints_one_error_line(self, capsys, argv, message):
        from repro.experiments.runner import main

        assert main(["run-scenario", *argv]) == 2
        assert message in _one_error_line(capsys)

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (None, "No such file or directory"),
            ("time_s,utilization\n0,0.1\n60,abc\n", "line 3: expected two numeric"),
            ("time_s,utilization\n0,0.1\n60\n", "line 3: expected two numeric"),
        ],
        ids=["missing-file", "non-numeric-cell", "short-row"],
    )
    def test_bad_trace_file_prints_one_error_line(
        self, capsys, tmp_path, content, message
    ):
        from repro.experiments.runner import main

        path = tmp_path / "trace.csv"
        if content is not None:
            path.write_text(content)
        argv = ["run-scenario", "trace-replay", "--set", f"trace={path}"]
        assert main(argv) == 2
        line = _one_error_line(capsys)
        assert str(path) in line
        assert message in line

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["--executor", "thread"], "invalid choice: 'thread'"),
            (["--trace-backend", "mmap"], "unrecognized arguments"),
        ],
        ids=["thread-executor", "trace-backend"],
    )
    def test_removed_executor_and_backend_are_rejected(self, capsys, argv, message):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run-scenario", "diurnal", *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_experiment_prints_one_error_line(self, capsys):
        from repro.experiments.runner import main

        assert main(["no_such_figure"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "no_such_figure" in lines[0]

    def test_negative_seed_prints_one_error_line(self, capsys):
        from repro.experiments.runner import main

        assert main(["run-scenario", "diurnal", "--seed", "-1"]) == 2
        assert _one_error_line(capsys) == "error: seed must be non-negative, got -1"

    def test_build_rejects_negative_seed(self):
        with pytest.raises(ScenarioError, match="seed must be non-negative"):
            get_scenario("diurnal").build(seed=-1, **TINY)

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--seeds", "-1"], "seeds must be non-negative, got -1"),
            (["--workers", "0"], "max_workers must be at least 1, got 0"),
            (["--num-jobs", "0"], "num_jobs must be at least 1, got 0"),
            (["--frequency-step", "0"], "frequency_step must be positive and finite"),
        ],
        ids=["negative-seed", "zero-workers", "zero-jobs", "zero-frequency-step"],
    )
    def test_bad_campaign_flag_leaves_no_store(self, capsys, tmp_path, flags, message):
        from repro.experiments.runner import main

        output_dir = tmp_path / "store"
        argv = ["run-campaign", "figure1", "--output-dir", str(output_dir), *flags]
        assert main(argv) == 2
        assert message in _one_error_line(capsys)
        assert not output_dir.exists()

    def test_unknown_campaign_exits_like_run_scenario(self, capsys, tmp_path):
        from repro.experiments.runner import main

        argv = ["run-campaign", "no-such-campaign", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "no-such-campaign" in lines[0]

    @pytest.mark.parametrize(
        ("typo", "message"),
        [
            ({"target": "diurnl"}, "unknown scenario 'diurnl'"),
            (
                {"grid": {"peak_utilisation": [0.5]}},
                "has no parameter(s) ['peak_utilisation']",
            ),
        ],
        ids=["target", "parameter"],
    )
    def test_typo_in_a_spec_file_leaves_no_store(self, capsys, tmp_path, typo, message):
        from repro.experiments.runner import main

        spec = {
            "schema": "repro.campaign-spec/v1",
            "name": "typo",
            "kind": "scenario",
            "target": "diurnal",
            "grid": {"peak_utilization": [0.5]},
            "fixed": {"duration_minutes": 2},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec, **typo}))
        output_dir = tmp_path / "store"
        argv = ["run-campaign", str(spec_path), "--output-dir", str(output_dir)]
        assert main(argv) == 2
        assert message in _one_error_line(capsys)
        assert not output_dir.exists()
        # The corrected spec runs into the same directory.
        spec_path.write_text(json.dumps(spec))
        assert main(argv) == 0
        assert (output_dir / "results.csv").exists()

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_scenario_output_is_refused_before_the_run(
        self, capsys, tmp_path, target
    ):
        from repro.experiments.runner import main

        output = tmp_path / "missing" / "o.json" if target == "missing-dir" else tmp_path
        argv = ["run-scenario", "diurnal", "--set", "duration_minutes=2"]
        assert main([*argv, "--output", str(output)]) == 2
        # One error line and no report on stdout: the scenario never ran.
        assert _one_error_line(capsys).startswith(f"error: cannot write {output}")

    def test_campaign_output_dir_under_a_file_is_one_error_line(self, capsys, tmp_path):
        from repro.experiments.runner import main

        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["run-campaign", "table5", "--output-dir", str(blocker / "sub")]
        assert main(argv) == 2
        assert "cannot create store" in _one_error_line(capsys)

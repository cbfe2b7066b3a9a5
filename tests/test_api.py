"""The ``repro.api`` façade: fluent sessions, registries, streaming runs."""

import warnings

import pytest

from repro.api import Session, registry
from repro.api.registry import (
    KernelEntry,
    RegistryError,
    add_kernel,
    register_kernel,
    register_machine,
)
from repro.api.session import SessionConfigError
from repro.core import MachineModel, ModelOptions
from repro.core.results import ModelResult
from repro.engine.batch import BatchResult, JobError
from repro.engine.jobs import JobSpec
from repro.scop import ScopBuilder

#: Tiny budget: heavy kernels degrade instantly to the fast exact fallback.
FAST_BUDGET = 200


def tiny_copy(sizes):
    """A minimal kernel builder usable as a registry entry."""
    n = sizes.get("N", 4)
    b = ScopBuilder("tiny-copy", context={"N": n}, element_size=64)
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    with b.loop("i", 0, n):
        b.stmt(reads=[A[b.v("i")]], writes=[B[b.v("i")]])
    return b.build()


@pytest.fixture
def scratch_registry():
    """Let a test register kernels/machines and restore the tables after."""
    kernels = dict(registry._KERNELS)
    machines = dict(registry._MACHINES)
    yield registry
    registry._KERNELS.clear()
    registry._KERNELS.update(kernels)
    registry._MACHINES.clear()
    registry._MACHINES.update(machines)


class TestRegistry:
    def test_builtin_kernels_and_machines_present(self):
        assert "gemm" in registry.kernel_names()
        assert "jacobi-2d" in registry.kernel_names()
        for name in ("default", "paper-xeon", "l1-only", "polycache"):
            assert name in registry.machine_names()

    def test_machine_presets_resolve(self):
        xeon = registry.resolve_machine("paper-xeon")
        assert [level.name for level in xeon.levels] == ["L1", "L2", "L3"]
        l1 = registry.resolve_machine("l1-only")
        assert len(l1.levels) == 1 and l1.levels[0].size == 32 * 1024

    def test_resolve_machine_passthrough_and_type_error(self):
        model = MachineModel()
        assert registry.resolve_machine(model) is model
        with pytest.raises(TypeError):
            registry.resolve_machine(123)

    def test_unknown_names_raise_with_available_list(self):
        with pytest.raises(RegistryError, match="unknown kernel 'nope'.*gemm"):
            registry.get_kernel("nope")
        with pytest.raises(RegistryError, match="unknown machine 'nope'.*paper-xeon"):
            registry.get_machine("nope")

    def test_register_kernel_decorator_and_build(self, scratch_registry):
        @register_kernel("tiny-copy", datasets={"mini": {"N": 4}, "small": {"N": 8}})
        def builder(sizes):
            return tiny_copy(sizes)

        entry = registry.get_kernel("tiny-copy")
        assert entry.datasets == ("mini", "small")
        assert entry.build("small").context["N"] == 8
        assert entry.build("mini", overrides={"N": 6}).context["N"] == 6
        with pytest.raises(RegistryError, match="no dataset 'huge'"):
            entry.build("huge")

    def test_duplicate_registration_rejected_unless_replaced(self, scratch_registry):
        register_kernel("tiny-copy", tiny_copy)
        with pytest.raises(RegistryError, match="already registered"):
            register_kernel("tiny-copy", tiny_copy)
        register_kernel("tiny-copy", tiny_copy, replace=True)  # explicit override ok
        with pytest.raises(RegistryError, match="already registered"):
            register_machine("default", MachineModel)

    def test_register_kernel_requires_a_dataset(self, scratch_registry):
        with pytest.raises(RegistryError, match="at least one dataset"):
            register_kernel("tiny-copy", tiny_copy, datasets={})


class _FakeDist:
    name = "fake-plugins"


class _FakeEntryPoint:
    """Just enough of importlib.metadata.EntryPoint for discovery."""

    dist = _FakeDist()

    def __init__(self, name, obj):
        self.name = name
        self._obj = obj

    def load(self):
        if isinstance(self._obj, Exception):
            raise self._obj
        return self._obj


class TestEntryPointDiscovery:
    def _discover(self, monkeypatch, kernel_eps=(), machine_eps=()):
        groups = {
            registry.KERNEL_GROUP: list(kernel_eps),
            registry.MACHINE_GROUP: list(machine_eps),
        }
        monkeypatch.setattr(registry, "_iter_entry_points", lambda group: groups.get(group, []))
        return registry.discover_plugins(force=True)

    def test_fake_distribution_contributes_kernel_and_machine(
        self, scratch_registry, monkeypatch
    ):
        tiny_copy.datasets = {"mini": {"N": 4}}
        try:
            loaded = self._discover(
                monkeypatch,
                kernel_eps=[_FakeEntryPoint("plugin-copy", tiny_copy)],
                machine_eps=[_FakeEntryPoint("plugin-machine", MachineModel)],
            )
        finally:
            del tiny_copy.datasets
        assert loaded == ["kernel:plugin-copy", "machine:plugin-machine"]
        entry = registry.get_kernel("plugin-copy")
        assert entry.source == "plugin:fake-plugins"
        assert entry.datasets == ("mini",)
        assert registry.get_machine("plugin-machine").build() == MachineModel()
        # ...and the plugin kernel is a first-class citizen of the façade.
        result = Session().machine("l1-tiny").analyze("plugin-copy")
        assert result.kernel == "tiny-copy" and result.accesses > 0

    def test_broken_plugin_warns_and_is_skipped(self, scratch_registry, monkeypatch):
        with pytest.warns(RuntimeWarning, match="skipping kernel plugin 'broken'"):
            loaded = self._discover(
                monkeypatch,
                kernel_eps=[
                    _FakeEntryPoint("broken", ImportError("boom")),
                    _FakeEntryPoint("plugin-copy", tiny_copy),
                ],
            )
        assert loaded == ["kernel:plugin-copy"]

    def test_plugin_colliding_with_builtin_warns_and_keeps_builtin(
        self, scratch_registry, monkeypatch
    ):
        builtin = registry.get_kernel("gemm")
        with pytest.warns(RuntimeWarning, match="skipping kernel plugin 'gemm'"):
            self._discover(monkeypatch, kernel_eps=[_FakeEntryPoint("gemm", tiny_copy)])
        assert registry.get_kernel("gemm") is builtin


class TestSessionBuilder:
    def test_fluent_chaining_returns_the_session(self):
        session = Session()
        assert session.machine("l1-only").budget(100).workers(2).no_store() is session
        assert session.worker_count == 2

    def test_machine_accepts_name_model_and_sizes(self):
        assert len(Session().machine("paper-xeon").machine_model.levels) == 3
        model = MachineModel()
        assert Session().machine(model).machine_model is model
        levels = Session().machine((1024, 8192)).machine_model.levels
        assert [level.size for level in levels] == [1024, 8192]

    def test_invalid_configuration_raises_at_the_call_site(self):
        with pytest.raises(RegistryError, match="unknown machine"):
            Session().machine("bogus")
        with pytest.raises(SessionConfigError, match="ordered from smallest"):
            Session().machine((8192, 1024))
        with pytest.raises(SessionConfigError, match="must be positive"):
            Session().machine((0,))
        with pytest.raises(SessionConfigError, match="budget"):
            Session().budget(-1)
        with pytest.raises(SessionConfigError, match="worker count"):
            Session().workers(0)
        with pytest.raises(SessionConfigError, match="unknown model options"):
            Session().options(bogus=True)
        with pytest.raises(
            SessionConfigError,
            match="unknown model options: equalization; "
            "available: partial_enumeration, fallback, cross_check",
        ):
            Session().options(equalization=False)
        with pytest.raises(RegistryError, match="unknown kernel"):
            Session().kernels("gemm", "not-a-kernel")

    def test_budget_zero_means_unlimited(self):
        session = Session().budget(0)
        assert session.model_options().symbolic_work_budget is None

    def test_store_none_disables_while_bare_store_uses_default(self, tmp_path):
        # store(path or None) must keep the old run_batch(store_path=None)
        # meaning: an explicit None disables, only store() picks the default.
        # A directory is resolved to the database file it holds.
        assert Session().store(None).store_path is None
        assert Session().store(str(tmp_path)).store_path == str(tmp_path / "store.sqlite")
        assert Session().store().store_path  # default path resolved

    def test_job_error_is_importable_from_the_facade(self):
        import repro.api
        import repro.engine

        assert repro.api.JobError is JobError
        assert repro.engine.JobError is JobError

    def test_request_validation(self):
        with pytest.raises(SessionConfigError, match="nothing to analyse"):
            Session().kernels().run()
        with pytest.raises(SessionConfigError, match="no dataset 'huge'"):
            Session().kernels("gemm").datasets("huge").specs()
        with pytest.raises(SessionConfigError, match="at least one dataset"):
            Session().kernels("gemm").datasets()
        with pytest.raises(SessionConfigError, match="Scop instances"):
            Session().scops("gemm")

    def test_specs_expand_row_major(self):
        specs = (
            Session()
            .budget(FAST_BUDGET)
            .kernels("gemm", "atax")
            .datasets("mini", "small")
            .levels(1024, (1024, 8192))
            .specs()
        )
        assert len(specs) == 8
        assert [(s.kernel, s.dataset, s.levels) for s in specs[:3]] == [
            ("gemm", "mini", (1024,)),
            ("gemm", "mini", (1024, 8192)),
            ("gemm", "small", (1024,)),
        ]
        assert all(spec.symbolic_work_budget == FAST_BUDGET for spec in specs)

    def test_configure_adopts_model_options(self):
        options = ModelOptions(
            partial_enumeration=False, fallback_to_simulation=False, symbolic_work_budget=42
        )
        resolved = Session().configure(options).model_options()
        assert resolved.partial_enumeration is False
        assert resolved.fallback_to_simulation is False
        assert resolved.symbolic_work_budget == 42

    def test_analyze_kernel_name_and_scop_agree(self):
        session = Session().machine("l1-tiny").budget(FAST_BUDGET)
        by_name = session.analyze("gemm", "mini")
        by_scop = session.analyze(session.build_scop("gemm", "mini"))
        assert by_name.misses(0) == by_scop.misses(0)

    def test_analyze_with_store_round_trips(self, tmp_path):
        session = Session().machine("l1-tiny").budget(FAST_BUDGET).store(str(tmp_path))
        first = session.analyze("gemm", "mini")
        second = session.analyze("gemm", "mini")
        assert second.to_dict() == first.to_dict()


class TestRunAndStream:
    def _session(self, **kwargs):
        return Session().machine("l1-tiny").budget(FAST_BUDGET)

    def test_run_matches_run_iter_content(self):
        session = self._session()
        request = session.kernels("gemm", "atax").datasets("mini")
        batch = request.run()
        streamed = sorted(request.run_iter(), key=lambda record: record.index)
        assert [r.kernel for r in batch] == [r.kernel for r in streamed]
        assert [r.result.misses(0) for r in batch] == [r.result.misses(0) for r in streamed]

    def test_run_iter_streams_partial_results(self, scratch_registry):
        """The first record must arrive before later jobs have even started."""
        built = []

        def counting_builder(sizes):
            built.append(sizes.get("N", 4))
            return tiny_copy(sizes)

        register_kernel("counting-copy", counting_builder,
                        datasets={"mini": {"N": 4}, "small": {"N": 8}, "medium": {"N": 12}})
        iterator = (
            Session()
            .machine("l1-tiny")
            .kernels("counting-copy")
            .datasets("mini", "small", "medium")
            .run_iter()
        )
        first = next(iterator)
        assert first.ok and first.index == 0
        assert built == [4], "only the first job may have run at this point"
        rest = list(iterator)
        assert built == [4, 8, 12]
        assert [record.index for record in rest] == [1, 2]

    def test_run_iter_yields_cached_records_first(self, tmp_path):
        session = self._session().store(str(tmp_path))
        session.kernels("gemm").datasets("mini").run()
        records = list(session.kernels("atax", "gemm").datasets("mini").run_iter())
        assert [record.kernel for record in records] == ["gemm", "atax"]
        assert records[0].cached and not records[1].cached

    def test_progress_callback_counts_up(self):
        seen = []
        batch = (
            self._session()
            .kernels("gemm", "atax")
            .datasets("mini")
            .run(progress=lambda record, done, total: seen.append((record.kernel, done, total)))
        )
        assert batch.error_count == 0
        assert seen == [("gemm", 1, 2), ("atax", 2, 2)]

    def _failing_specs(self, session):
        ok = session.job_spec("gemm", "mini")
        bad = JobSpec(kernel="does-not-exist", dataset="mini", levels=(1024,),
                      symbolic_work_budget=FAST_BUDGET)
        return [ok, bad, session.job_spec("atax", "mini")]

    def test_error_policy_continue_records_all(self):
        session = self._session()
        records = list(session.run_iter(self._failing_specs(session)))
        assert [record.status for record in records] == ["ok", "error", "ok"]

    def test_error_policy_stop_halts_after_failure(self):
        session = self._session()
        records = list(session.run_iter(self._failing_specs(session), error_policy="stop"))
        assert [record.status for record in records] == ["ok", "error"]

    def test_error_policy_raise(self):
        session = self._session()
        iterator = session.run_iter(self._failing_specs(session), error_policy="raise")
        assert next(iterator).ok
        with pytest.raises(JobError, match="does-not-exist"):
            list(iterator)

    def test_unknown_error_policy_rejected(self):
        session = self._session()
        with pytest.raises(ValueError, match="unknown error_policy"):
            list(session.run_iter([session.job_spec("gemm", "mini")], error_policy="bogus"))

    def test_parallel_run_iter_completes_all(self):
        session = self._session().workers(2)
        records = list(session.kernels("gemm", "atax", "bicg").datasets("mini").run_iter())
        assert sorted(record.kernel for record in records) == ["atax", "bicg", "gemm"]
        assert all(record.ok for record in records)

    def test_user_registered_kernel_ships_scop_to_multi_worker_pools(self, scratch_registry):
        # A kernel registered in this process is invisible to spawn-started
        # workers, so multi-worker specs must carry the built program.
        register_kernel("tiny-copy", tiny_copy, datasets={"mini": {"N": 4}})
        session = Session().machine("l1-tiny").workers(2)
        specs = session.kernels("tiny-copy").datasets("mini").specs()
        assert specs[0].scop is not None
        batch = session.kernels("tiny-copy").datasets("mini").run()
        assert batch.ok_count == 1
        # Single-worker sessions keep the lazy name-based path (jobs build
        # only when the streaming consumer reaches them).
        assert Session().kernels("tiny-copy").specs()[0].scop is None


class TestSchemaVersion:
    def _result(self):
        return Session().machine("l1-tiny").budget(FAST_BUDGET).analyze("gemm", "mini")

    def test_model_result_payload_is_versioned(self):
        payload = self._result().to_dict()
        # v2 added the miss_curve section.
        assert payload["schema_version"] == 2
        assert payload["miss_curve"] is not None
        assert ModelResult.from_dict(payload).to_dict() == payload

    def test_model_result_tolerates_missing_version(self):
        payload = self._result().to_dict()
        del payload["schema_version"]
        assert ModelResult.from_dict(payload).misses(0) == self._result().misses(0)

    def test_model_result_rejects_newer_version(self):
        payload = self._result().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version 99"):
            ModelResult.from_dict(payload)

    def test_batch_payload_versioned_and_tolerant(self):
        batch = Session().budget(FAST_BUDGET).kernels("gemm").datasets("mini").run()
        payload = batch.to_dict()
        assert payload["schema_version"] == 3
        clone = BatchResult.from_dict(payload)
        assert clone.to_dict() == payload
        del payload["schema_version"]
        assert BatchResult.from_dict(payload).ok_count == 1
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version 99"):
            BatchResult.from_dict(payload)


class TestRetiredShims:
    """The deprecated ``analyze_kernel``/``run_batch`` wrappers are gone —
    their Session replacements (README migration table) are the only path."""

    def test_analyze_kernel_is_removed(self):
        import repro.core
        import repro.core.model

        assert not hasattr(repro.core, "analyze_kernel")
        assert not hasattr(repro.core.model, "analyze_kernel")
        assert "analyze_kernel" not in repro.core.__all__

    def test_run_batch_is_removed(self):
        import repro.engine
        import repro.engine.batch

        assert not hasattr(repro.engine.batch, "run_batch")
        assert "run_batch" not in repro.engine.__all__
        with pytest.raises(AttributeError):
            repro.engine.run_batch  # noqa: B018 - lazy re-export must be gone

    def test_session_paths_emit_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            batch = Session().budget(FAST_BUDGET).kernels("gemm").datasets("mini").run()
        assert batch.ok_count == 1

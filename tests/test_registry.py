"""Tests for the strategy/experiment registry subsystem."""

import warnings

import pytest

from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.strategy import Strategy
from repro.registry import (
    DuplicateEntryError,
    Registry,
    UnknownEntryError,
    available_experiments,
    available_strategies,
    get_experiment,
    get_strategy,
    register_strategy,
    strategy_entries,
    unregister_strategy,
)


class TestRegistryCore:
    def test_register_and_get(self):
        reg = Registry("widget")
        reg.register("a", object(), description="first widget")
        entry = reg.get("a")
        assert entry.name == "a"
        assert entry.description == "first widget"

    def test_duplicate_name_raises(self):
        reg = Registry("widget")
        reg.register("a", object())
        with pytest.raises(DuplicateEntryError):
            reg.register("a", object())
        with pytest.raises(DuplicateEntryError):
            reg.register("A", object())  # case-insensitive keys

    def test_unknown_name_lists_available(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        reg.register("beta", object())
        with pytest.raises(UnknownEntryError) as excinfo:
            reg.get("gamma")
        message = str(excinfo.value)
        assert "gamma" in message and "alpha" in message and "beta" in message

    def test_unknown_error_is_value_and_key_error(self):
        # Compatibility with the pre-registry error contracts.
        reg = Registry("widget")
        with pytest.raises(ValueError):
            reg.get("nope")
        with pytest.raises(KeyError):
            reg.get("nope")

    def test_description_defaults_to_docstring(self):
        reg = Registry("widget")

        class Thing:
            """A one-line summary.

            Further detail that should not be used.
            """

        reg.register("thing", Thing)
        assert reg.get("thing").description == "A one-line summary."

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("a", object())
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(UnknownEntryError):
            reg.unregister("a")


class TestBuiltinRegistries:
    def test_builtin_strategies_available_without_import(self):
        names = available_strategies()
        for expected in ("te_cp", "llama_cp", "hybrid_dp", "packing", "zeppelin"):
            assert expected in names

    def test_lazy_strategy_lookup_resolves_class(self):
        from repro.core.zeppelin import ZeppelinStrategy

        assert get_strategy("zeppelin").obj is ZeppelinStrategy

    def test_strategy_entries_have_descriptions(self):
        for entry in strategy_entries():
            assert entry.description, f"{entry.name} has no description"

    def test_builtin_experiments_registered(self):
        names = available_experiments()
        for expected in ("fig1", "fig8", "fig11", "table2", "table3"):
            assert expected in names
        entry = get_experiment("table2")
        assert callable(entry.obj)


@pytest.fixture
def toy_strategy():
    """Register a throwaway strategy; always unregister afterwards."""

    @register_strategy("toy_reg_test", description="single compute task per batch")
    class ToyStrategy(Strategy):
        name = "Toy"

        def plan_layer(self, batch, phase="forward"):
            plan = ExecutionPlan(name=f"toy:{phase}")
            duration = batch.total_tokens * 1e-9
            plan.add(
                name=f"toy:{batch.total_tokens}tok",
                kind=TaskKind.LINEAR,
                duration_s=duration,
                resources=(ExecutionPlan.compute_resource(0),),
                rank=0,
            )
            return plan

    try:
        yield ToyStrategy
    finally:
        unregister_strategy("toy_reg_test")


class TestPluggability:
    def test_registered_strategy_runs_through_session(self, toy_strategy):
        from repro.api import Session

        session = Session(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1)
        result = session.run("toy_reg_test")
        assert result.label == "Toy"
        assert result.tokens_per_second > 0

    def test_registered_strategy_visible_in_cli_list(self, toy_strategy, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "toy_reg_test" in out
        assert "single compute task per batch" in out

    def test_duplicate_strategy_registration_raises(self, toy_strategy):
        with pytest.raises(DuplicateEntryError):
            register_strategy("toy_reg_test")(toy_strategy)

    def test_shadowing_lazy_builtin_raises(self, toy_strategy):
        # A built-in name is taken even before its module has been imported.
        with pytest.raises(DuplicateEntryError):
            register_strategy("te_cp")(toy_strategy)

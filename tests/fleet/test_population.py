"""Population generator: determinism, coverage, corpus validity."""

from repro.fleet.population import (
    DEFAULT_POPULATION,
    LOCALES,
    PopulationSpec,
    device_workload,
    fleet_corpus,
    is_config_change,
    template_value,
)


def session_tuples(population, seed, member):
    """Member ``member``'s session in the tuple wire form."""
    return device_workload(population, seed, member).to_tuples()


class TestDeviceScript:
    def test_same_seed_same_member_is_identical(self):
        first = session_tuples(DEFAULT_POPULATION, 0x5EED, 7)
        second = session_tuples(DEFAULT_POPULATION, 0x5EED, 7)
        assert first == second

    def test_members_differ(self):
        scripts = {session_tuples(DEFAULT_POPULATION, 0x5EED, member)
                   for member in range(20)}
        assert len(scripts) > 1

    def test_seeds_differ(self):
        assert (session_tuples(DEFAULT_POPULATION, 1, 0)
                != session_tuples(DEFAULT_POPULATION, 2, 0))

    def test_every_script_has_a_config_change(self):
        for member in range(100):
            script = session_tuples(DEFAULT_POPULATION, 0x5EED, member)
            assert any(is_config_change(op) for op in script)

    def test_every_op_is_followed_by_a_wait(self):
        for member in range(20):
            script = session_tuples(DEFAULT_POPULATION, 0x5EED, member)
            for index, op in enumerate(script):
                if op[0] != "wait":
                    assert script[index + 1][0] == "wait"

    def test_op_count_respects_population_bounds(self):
        population = PopulationSpec(min_ops=3, max_ops=5)
        for member in range(50):
            script = session_tuples(population, 0x5EED, member)
            real_ops = [op for op in script if op[0] != "wait"]
            # +1: a rotate is appended when no config change was drawn.
            assert 3 <= len(real_ops) <= 6

    def test_population_covers_all_op_kinds(self):
        kinds = {
            op[0]
            for member in range(200)
            for op in session_tuples(DEFAULT_POPULATION, 0x5EED, member)
        }
        assert {"rotate", "resize", "locale", "night",
                "write", "async", "kill", "wait"} <= kinds

    def test_locale_ops_draw_from_the_locale_set(self):
        for member in range(100):
            for op in session_tuples(DEFAULT_POPULATION, 0x5EED, member):
                if op[0] == "locale":
                    assert op[1] in LOCALES


class TestCorpus:
    def test_specs_validate(self):
        for app in fleet_corpus():
            app.validate()

    def test_packages_are_unique(self):
        packages = [app.package for app in fleet_corpus()]
        assert len(set(packages)) == len(packages)

    def test_corpus_covers_the_durability_ladder(self):
        from repro.apps.dsl import StorageKind

        kinds = {slot.storage for app in fleet_corpus()
                 for slot in app.slots}
        assert {StorageKind.VIEW_ATTR, StorageKind.BARE_FIELD,
                StorageKind.CUSTOM_SAVED, StorageKind.APPLICATION,
                StorageKind.PERSISTED} <= kinds

    def test_corpus_has_async_and_dialog_crash_modes(self):
        scripts = [app.async_script for app in fleet_corpus()
                   if app.async_script is not None]
        assert scripts
        assert any(script.shows_dialog for script in scripts)

    def test_template_values_are_slot_specific(self):
        assert template_value("note") != template_value("draft")

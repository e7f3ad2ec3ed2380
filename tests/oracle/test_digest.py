"""StateDigest: canonical bytes, the self-audit, and live capture."""

import dataclasses
import json

import pytest

from repro.apps.appset27 import build_appset27
from repro.engine.batch import POLICIES
from repro.fleet.population import fleet_corpus
from repro.oracle import StateDigest, capture_digest, run_oracle_session
from repro.oracle.digest import LIFECYCLE_FIELDS, STATE_FIELDS, SessionLog
from repro.system import AndroidSystem


def make_digest(**overrides) -> StateDigest:
    base = dict(
        policy="rchdroid", package="fleet.notepad",
        slots=(("note", "'hello'"),), lost_slots=(),
        crashed=False,
    )
    base.update(overrides)
    return StateDigest(**base)


class TestFieldTiers:
    def test_every_compared_field_is_in_exactly_one_tier(self):
        from dataclasses import fields

        compared = {spec.name for spec in fields(StateDigest)} - {
            "policy", "package"}
        assert STATE_FIELDS | LIFECYCLE_FIELDS == compared
        assert not STATE_FIELDS & LIFECYCLE_FIELDS


class TestSelfAudit:
    def test_clean_digest_is_self_consistent(self):
        assert make_digest().self_consistent()

    def test_lost_slot_breaks_self_consistency(self):
        assert not make_digest(lost_slots=("note",)).self_consistent()

    def test_crash_breaks_self_consistency(self):
        assert not make_digest(crashed=True).self_consistent()


class TestCanonicalForm:
    def test_equal_digests_have_equal_bytes(self):
        assert make_digest().to_json() == make_digest().to_json()

    def test_any_field_change_changes_the_bytes(self):
        assert make_digest().to_json() != make_digest(
            slots=(("note", "'bye'"),)).to_json()

    def test_round_trips_through_dict(self):
        import json

        digest = make_digest(
            storage=(("draft", "'x'"),), crash_kinds=("NullPointer",),
            view_shape=(("TextView", "note"),), dialogs=("save?",),
            relaunches=2, handling_count=3,
        )
        restored = StateDigest.from_dict(json.loads(
            json.dumps(digest.to_dict())))
        assert restored == digest
        assert restored.to_json() == digest.to_json()


class TestCaptureDigest:
    def test_captures_a_live_session(self):
        app = fleet_corpus()[0]
        system = AndroidSystem(policy=POLICIES["rchdroid"](), seed=1)
        system.launch(app)
        system.run_for(400.0)
        log = SessionLog(handling_baseline=len(system.handling_times()))
        slot = app.slots[0]
        system.write_slot(app, slot.name, "typed")
        log.expected[slot.name] = repr("typed")
        system.rotate()
        system.run_until_idle()

        digest = capture_digest(system, app, log)
        assert digest.policy == "rchdroid"
        assert digest.package == app.package
        assert digest.foreground
        assert not digest.crashed
        assert dict(digest.slots)[slot.name] == repr("typed")
        assert digest.lost_slots == ()
        assert digest.handling_count == 1
        assert digest.view_shape  # the tree was walked

    def test_stock_rotation_shows_up_as_lost_slots(self):
        """The audit is the whole point: stock Android drops the bare
        field on rotation and the digest knows by itself."""
        app = fleet_corpus()[0]
        system = AndroidSystem(policy=POLICIES["android10"](), seed=1)
        system.launch(app)
        system.run_for(400.0)
        log = SessionLog(handling_baseline=len(system.handling_times()))
        slot = app.slots[0]
        system.write_slot(app, slot.name, "typed")
        log.expected[slot.name] = repr("typed")
        system.rotate()
        system.run_until_idle()

        digest = capture_digest(system, app, log)
        assert not digest.crashed
        assert slot.name in digest.lost_slots
        assert not digest.self_consistent()


@pytest.fixture(scope="module")
def ext_oracle_digests() -> list[StateDigest]:
    """Every digest the ext-oracle experiment compares (27 apps x 3
    policies, recorded and replayed)."""
    digests = []
    for app in build_appset27(0x5EED):
        session = run_oracle_session(app, seed=0x5EED)
        for run in session.runs.values():
            digests.extend((run.digest, run.replay_digest))
    return digests


class TestShallowEncoding:
    """``to_dict`` reads fields shallowly instead of ``asdict``'s deep
    copy; the encoding must not move by a byte."""

    def test_to_dict_equals_asdict(self, ext_oracle_digests):
        assert len(ext_oracle_digests) == 27 * 3 * 2
        for digest in ext_oracle_digests:
            assert digest.to_dict() == dataclasses.asdict(digest)

    def test_to_json_is_byte_identical_to_asdict_encoding(
        self, ext_oracle_digests
    ):
        for digest in ext_oracle_digests:
            old = json.dumps(dataclasses.asdict(digest), sort_keys=True,
                             separators=(",", ":"))
            assert digest.to_json() == old

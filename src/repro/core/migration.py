"""Lazy-migration engine (Section 3.3, Table 1).

The engine is installed as the invalidate hook of the shadow-state
activity.  When an asynchronous task returns and the app's callback
mutates shadow-state views, every mutation funnels through
``View.invalidate`` — "any updates to views will finally trigger a
generic invalidate function" — and the engine transfers the mutated
view's attributes to its sunny peer using the type-directed policy table
(each widget class's ``MIGRATED_ATTRS``).

Migrations are grouped into **batches**: all hook invocations landing
inside one UI-thread message belong to one batch, which pays the dispatch
base cost once plus a per-view cost — the linear "asynchronous view tree
migration time" of Fig. 10b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.trace import span as trace_categories

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.app.activity import Activity
    from repro.android.views.view import View
    from repro.sim.context import SimContext


@dataclass
class MigrationBatch:
    """One lazy-migration pass (one async-return callback's worth)."""

    started_at_ms: float
    migrated_views: int = 0
    missed_views: int = 0
    cost_ms: float = 0.0
    attrs_transferred: int = 0
    view_types: list[str] = field(default_factory=list)


class MigrationEngine:
    """Catches shadow-tree invalidates and forwards updates sunny-ward."""

    def __init__(self, ctx: "SimContext"):
        self.ctx = ctx
        self.batches: list[MigrationBatch] = []
        self._batch_key: int | None = None

    # ------------------------------------------------------------------
    def install(self, shadow: "Activity") -> None:
        """Become the shadow activity's invalidate hook."""
        shadow.invalidate_hook = self.on_shadow_invalidate

    def uninstall(self, shadow: "Activity") -> None:
        if shadow.invalidate_hook == self.on_shadow_invalidate:
            shadow.invalidate_hook = None

    # ------------------------------------------------------------------
    def on_shadow_invalidate(self, shadow_view: "View") -> None:
        """The inserted migration step (patched ``View.invalidate``)."""
        tracer = self.ctx.tracer
        if tracer.enabled:
            process = (
                shadow_view.owner.process.name
                if shadow_view.owner is not None
                else ""
            )
            with tracer.span(
                f"migrate:{shadow_view.view_type}",
                trace_categories.MIGRATION,
                process=process,
                thread="ui",
            ):
                self._migrate_invalidated(shadow_view)
        else:
            self._migrate_invalidated(shadow_view)

    def _migrate_invalidated(self, shadow_view: "View") -> None:
        batch = self._current_batch(shadow_view)
        peer = shadow_view.sunny_peer
        if peer is None or not peer.alive:
            batch.missed_views += 1
            self.ctx.recorder.bump("migration-miss")
            return
        process = (
            shadow_view.owner.process.name if shadow_view.owner is not None else ""
        )
        self.ctx.consume(
            self.ctx.costs.migrate_per_view_ms,
            process,
            label=f"migrate:{shadow_view.view_type}",
        )
        transferred = self.migrate_attributes(shadow_view, peer)
        batch.migrated_views += 1
        batch.attrs_transferred += transferred
        batch.cost_ms += self.ctx.costs.migrate_per_view_ms
        batch.view_types.append(shadow_view.view_type)
        self.ctx.recorder.bump("migration-hit")

    @staticmethod
    def migrate_attributes(source: "View", target: "View") -> int:
        """Apply the Table 1 policy: copy each migratable attribute.

        Uses the *source's* type policy (get attributes by the shadow
        view's type, set on the mapped sunny view), exactly as
        Section 3.3 describes.  Only *runtime-set* attributes transfer:
        an inflate-time default (e.g. a locale-resolved string resource)
        must come from the new configuration's resources, not the old
        tree.  Returns the number of attributes copied.
        """
        transferred = 0
        for attr in type(source).MIGRATED_ATTRS:
            if attr in source.attrs and attr in source.user_set_attrs:
                target.set_attr(attr, source.attrs[attr], silent=True)
                transferred += 1
        return transferred

    # ------------------------------------------------------------------
    def _current_batch(self, shadow_view: "View") -> MigrationBatch:
        """Batch by UI-thread message: one dispatch base per message."""
        key = self.ctx.scheduler.events_executed
        if key != self._batch_key or not self.batches:
            self._batch_key = key
            process = (
                shadow_view.owner.process.name
                if shadow_view.owner is not None
                else ""
            )
            self.ctx.consume(
                self.ctx.costs.migrate_dispatch_base_ms,
                process,
                label="migrate-dispatch",
            )
            self.batches.append(
                MigrationBatch(
                    started_at_ms=self.ctx.now_ms,
                    cost_ms=self.ctx.costs.migrate_dispatch_base_ms,
                )
            )
        return self.batches[-1]

    # ------------------------------------------------------------------
    @property
    def total_missed_views(self) -> int:
        return sum(batch.missed_views for batch in self.batches)

    def last_batch_cost_ms(self) -> float:
        """Cost of the most recent migration pass (the Fig. 10b metric)."""
        return self.batches[-1].cost_ms if self.batches else 0.0

"""Essence-based view-tree mapping (Section 3.3, Fig. 5).

After a runtime change, the shadow-state tree and the sunny-state tree
"essentially represent the same views": a button keeps its view id even
though its shape and position changed.  The mapping is built exactly as
the paper describes — a hash table of the sunny tree keyed by view id,
then one pass over the shadow tree planting a pointer to the matching
sunny view on each shadow view.

Views without ids (dynamically generated, Section 2.2) or without a
counterpart in the other tree stay unmapped; lazy migration skips them,
which is the mechanical source of the residual failures the paper reports
(Table 3 #9/#10; 4 of 63 in Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.app.activity import Activity
    from repro.sim.context import SimContext


@dataclass
class EssenceMapping:
    """Outcome of one mapping build."""

    mapped: int
    shadow_id_views: int
    shadow_views: int
    sunny_views: int

    @property
    def unmapped_id_views(self) -> int:
        """Id-bearing shadow views with no sunny counterpart."""
        return self.shadow_id_views - self.mapped

    @property
    def complete(self) -> bool:
        """Every id-bearing shadow view found its sunny peer."""
        return self.mapped == self.shadow_id_views


def build_essence_mapping(
    ctx: "SimContext", shadow: "Activity", sunny: "Activity"
) -> EssenceMapping:
    """Build the id→view hash table and plant peer pointers.

    Cost is O(n) in the number of views: one hash insert per sunny view
    plus one lookup-and-store per shadow view (the paper's scalability
    argument for Fig. 10a).
    """
    sunny_by_id = sunny.get_all_sunny_views()
    sunny_count = sunny.decor.count_views() if sunny.decor is not None else 0
    shadow_count = shadow.decor.count_views() if shadow.decor is not None else 0
    shadow_id_views = (
        sum(1 for v in shadow.decor.preorder() if v.view_id is not None)
        if shadow.decor is not None
        else 0
    )
    costs = ctx.costs
    ctx.consume(
        costs.mapping_build_base_ms
        + costs.mapping_build_per_view_ms * sunny_count
        + costs.mapping_pointer_per_view_ms * shadow_count,
        sunny.process.name,
        label="essence-mapping",
    )
    mapped = shadow.set_sunny_views(sunny_by_id)
    mapping = EssenceMapping(
        mapped=mapped,
        shadow_id_views=shadow_id_views,
        shadow_views=shadow_count,
        sunny_views=sunny_count,
    )
    ctx.mark(
        "mapping-built",
        detail=f"mapped={mapped}/{shadow_id_views}",
        process=sunny.process.name,
    )
    return mapping

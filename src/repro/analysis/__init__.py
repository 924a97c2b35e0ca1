"""Analysis helpers: gain sweeps, Price of Defense, rosters, reports,
coordination comparisons, and the ASCII tables the harness prints."""

from repro.analysis.coordination import (
    coordinated_hit_probability,
    coordination_gap,
    simulate_uncoordinated,
    uncoordinated_hit_probability,
)
from repro.analysis.defense import (
    DefensePoint,
    defense_profile,
    predicted_price_of_defense,
    price_of_defense,
)
from repro.analysis.gain import (
    GainPoint,
    fit_slope_through_origin,
    gain_curve,
    max_linearity_residual,
)
from repro.analysis.report import security_report
from repro.analysis.schedule import (
    compile_roster,
    roster_discrepancy,
    roster_frequencies,
)
from repro.analysis.tables import Table, format_number

__all__ = [
    "coordinated_hit_probability",
    "coordination_gap",
    "simulate_uncoordinated",
    "uncoordinated_hit_probability",
    "DefensePoint",
    "defense_profile",
    "predicted_price_of_defense",
    "price_of_defense",
    "GainPoint",
    "fit_slope_through_origin",
    "gain_curve",
    "max_linearity_residual",
    "security_report",
    "compile_roster",
    "roster_discrepancy",
    "roster_frequencies",
    "Table",
    "format_number",
]

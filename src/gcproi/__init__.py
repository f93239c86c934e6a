"""Box-score contribution shares, cash-flow conversion, and contractual ROI.

Pipeline: parse per-game stat lines and salaries, compute each player's
game contribution percentage (GCP), price one team-game slot (SGV), turn
GCPs into realized cash flows with missed games as defaults, and solve the
per-game internal rate of return against the salary investment.
"""

from .errors import GcproiError
from .fields import FIELD_ORDER, RAW_STATS, FieldId, derive_fields, underive_fields
from .finance import (
    CashFlowSeries,
    breakeven_gcp,
    cash_flows,
    irr,
    npv,
    player_schedule,
    pvgcp,
    sgv,
)
from .gcp import (
    game_report,
    season_reports,
    team_totals,
)
from .ingest import (
    GameRecord,
    PlayerGameLine,
    SalaryTable,
    SeasonDataset,
    parse_games,
    parse_salaries,
    validate_dataset,
    write_games_csv,
    write_raw_games_csv,
    write_salaries_csv,
)
from .reporting import (
    comparison,
    gcp_histogram,
    histogram_bins,
    leaderboard_pvgcp,
    roi_table,
    salary_summary,
)
from .synth import SynthConfig, synth_season

__version__ = "0.1.0"

"""season_reports and roi_table in two processes.

With the forced_forks fixture, each computes the second half of its games or
salary entries in a forked child (ingest._fanout, through ingest._child) for
any non-empty list. Each case must give what one process gives: equal values
in the same key and row order with the same float bits, or the same error,
and no child may outlive the call. A child that fails makes the stage run
again in this process.
"""

import os
import signal
import threading
import time

import pytest

from gcproi import PlayerGameLine, SeasonDataset, gcp, ingest, parse_salaries, reporting, sgv
from gcproi.errors import GcproiError
from gcproi.fields import FieldId
from gcproi.gcp import season_reports
from gcproi.reporting import RoiRow, roi_table
from gcproi.synth import SynthConfig, synth_season

from conftest import make_game, no_child_left, one_process, raises_exactly, recorded_kills


def _synth():
    ds, salaries, _ = synth_season(SynthConfig(seed=3, teams=6, games_per_team=10))
    return ds, salaries


def _season(name, bosphi, data_dir):
    if name == "bosphi":
        return bosphi, parse_salaries(data_dir / "bosphi_salaries.csv")
    return _synth()


def _report_bits(reports):
    return [(g, t, p, v.hex()) for g, rep in reports.items()
            for t, side in rep.items() for p, v in side.items()]


def _row_bits(rows):
    return [(*r[:4], r.pvgcp.hex(), None if r.roi is None else r.roi.hex(), r.status)
            for r in rows]


def _overflowing(ds, indices):
    """ds with the MIN of two lines of team1 set to 1e308 in each game at indices,
    so that the team's MIN total exceeds the float range there."""
    games = list(ds.games)
    for i in indices:
        g = games[i]
        lines = list(g.lines)
        for k in [k for k, ln in enumerate(lines) if ln.team_id == g.team1][:2]:
            values = list(lines[k].values)
            values[FieldId.MIN] = 1e308
            lines[k] = PlayerGameLine(*lines[k][:3], tuple(values))
        games[i] = make_game(g.game_id, g.date, g.team1, g.team2, lines)
    return SeasonDataset(games, ds.player_names)


@pytest.mark.parametrize("name", ["bosphi", "synth"])
def test_fanned_reports_and_rois_equal_those_of_one_process(name, bosphi, data_dir,
                                                           forced_forks):
    ds, salaries = _season(name, bosphi, data_dir)
    value = sgv(salaries.total, len(ds.games))
    reports = season_reports(ds)
    rows = roi_table(ds, reports, salaries, value, min_games=1)
    assert [stage for stage, _ in forced_forks] == ["season_reports", "roi_table"]

    with one_process():
        alone = season_reports(ds)
        alone_rows = roi_table(ds, alone, salaries, value, min_games=1)
    assert len(forced_forks) == 2
    assert reports == alone and _report_bits(reports) == _report_bits(alone)
    assert rows == alone_rows and _row_bits(rows) == _row_bits(alone_rows)
    assert all(type(r) is RoiRow for r in rows)
    assert {r.status for r in rows} >= {reporting.STATUS_OK}
    no_child_left()


@pytest.mark.parametrize("indices", [(20,), (5, 20)], ids=["second-half", "both-halves"])
def test_a_team_total_overflow_gives_the_error_of_one_process(indices, forced_forks):
    ds = _overflowing(_synth()[0], indices)
    first = ds.games[indices[0]]
    message = f"a total of team {first.team1!r} in game {first.game_id!r} exceeds the float range"
    with raises_exactly(GcproiError, message):
        season_reports(ds)
    assert len(forced_forks) == 1
    no_child_left()


def test_an_error_in_a_solve_of_the_second_half_gives_the_error_of_one_process(
        forced_forks, monkeypatch):
    ds, salaries = _synth()
    victim = [p for p in salaries.entries if ds.player_runs(p)][-1]
    solve = reporting.irr

    def failing(series, abs_tol):
        if series.player_id == victim:
            raise GcproiError(f"no rate for {victim}")
        return solve(series, abs_tol=abs_tol)

    monkeypatch.setattr(reporting, "irr", failing)
    reports = season_reports(ds)
    with raises_exactly(GcproiError, f"no rate for {victim}"):
        roi_table(ds, reports, salaries, sgv(salaries.total, len(ds.games)))
    assert [stage for stage, _ in forced_forks] == ["season_reports", "roi_table"]
    no_child_left()


@pytest.mark.parametrize("failure", ["raises", "exits", "is-killed"])
def test_a_child_that_fails_makes_the_stage_run_again_in_this_process(failure, forced_forks,
                                                                       monkeypatch, capfd):
    ds = _synth()[0]
    parent = os.getpid()
    report = gcp.game_report
    here = []  # the games this process computed

    def failing(game):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("lost")
            if failure == "exits":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)
        here.append(game)
        return report(game)

    monkeypatch.setattr(gcp, "game_report", failing)
    fanned = season_reports(ds)
    assert len(forced_forks) == 1
    cut = len(ds.games) // 2
    assert here == [*ds.games[:cut], *ds.games]  # its own half, then every game again
    with one_process():
        assert _report_bits(fanned) == _report_bits(season_reports(ds))
    no_child_left()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("error", [GcproiError("here"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_the_child_is_killed_and_reaped_when_this_process_half_raises(error, forced_forks,
                                                                     monkeypatch):
    ds = _synth()[0]
    parent = os.getpid()
    report = gcp.game_report

    def slow(game):
        if os.getpid() == parent:
            raise error
        time.sleep(60)  # the child would outlive the test unless it is killed
        return report(game)

    monkeypatch.setattr(gcp, "game_report", slow)
    kills = recorded_kills(monkeypatch)
    start = time.monotonic()
    with pytest.raises(type(error)):
        season_reports(ds)
    assert time.monotonic() - start < 30
    assert kills == [(forced_forks[0][1], signal.SIGKILL)]
    no_child_left()


@pytest.mark.parametrize("guard", ["another-thread", "one-cpu", "too-few-items"])
def test_no_fork_with_another_thread_one_cpu_or_too_few_items(guard, forced_forks,
                                                              monkeypatch):
    ds, salaries = _synth()
    value = sgv(salaries.total, len(ds.games))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if guard == "another-thread":
        thread.start()
    elif guard == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:  # "more than _FANOUT_ITEMS" items fork
        monkeypatch.setattr(ingest, "_FANOUT_ITEMS", max(len(ds.games), len(salaries.entries)))
    try:
        reports = season_reports(ds)
        roi_table(ds, reports, salaries, value)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert forced_forks == []
    if guard == "too-few-items":  # one item more forks
        monkeypatch.setattr(ingest, "_FANOUT_ITEMS", len(ds.games) - 1)
        assert season_reports(ds) == reports
        assert [stage for stage, _ in forced_forks] == ["season_reports"]


def test_the_child_sends_the_items_of_its_lists_and_no_end_mark_is_an_eof():
    items = [1, 2.5, "x", None, -0.0] * 500  # 2,500 items: sent as lists of 1,024, 1,024, 452
    with ingest._child(lambda: iter(items)) as sent:
        assert [repr(v) for v in sent] == list(map(repr, items))
    with ingest._child(lambda: ()) as sent:
        assert list(sent) == []

    def failing():
        yield 1
        raise RuntimeError("lost")

    with ingest._child(failing) as sent, pytest.raises(EOFError):
        list(sent)
    no_child_left()

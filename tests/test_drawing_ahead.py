"""Seeded streams drawn one piece ahead on a worker thread.

certifier._drawn_ahead draws the next piece while the current one is
evaluated.  Every result must equal an inline run's, a failed draw must
surface on the calling thread with no thread left behind, and no draw may
run more than one piece ahead of its evaluation.
"""

import threading

import numpy as np
import pytest

from codim2flow import certifier, identities

SAMPLES = dict(grid=64, random_samples=20_003, seed=4)


def _inline(pieces, draw, use):
    for s in pieces:
        use(s, draw(s))


def _all_results(count):
    rep = certifier.certify_negativity(0.72, **SAMPLES)
    scan = certifier.threshold_scan(0.66, 0.75, tol_k=5e-3, **SAMPLES)
    return repr((identities.identity_report(3, count), identities.identity_report(3, 12345),
                 rep.as_dict(), rep.worst, scan.as_dict()))


# at 7-row pieces numpy never releases the GIL, so the two threads take
# turns; 10^4 samples still cross over 1400 piece boundaries a sweep
@pytest.mark.parametrize("piece, count", [(1 << 13, 10 ** 5), (7, 10 ** 4)], ids=["8192", "7"])
def test_drawing_ahead_changes_no_byte(monkeypatch, piece, count):
    monkeypatch.setattr(certifier, "_PIECE", piece)
    threaded = _all_results(count)
    for mod in (certifier, identities):
        monkeypatch.setattr(mod, "_drawn_ahead", _inline)
    assert threaded == _all_results(count)


class _Boom(Exception):
    pass


def _raise_on_third_call(f, raised):
    """f, except that its third call ever raises a _Boom, kept in raised."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raised.append(_Boom("third draw"))
            raise raised[-1]
        return f(*args, **kwargs)

    return wrapped


CALLS = {
    "identity_report": lambda: identities.identity_report(3, 1003),
    "certify_negativity": lambda: certifier.certify_negativity(0.72, grid=64, random_samples=100),
    "threshold_scan": lambda: certifier.threshold_scan(0.66, 0.75, tol_k=5e-3, grid=64,
                                                       random_samples=100),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_failed_draw_raises_and_leaves_no_thread(monkeypatch, name):
    monkeypatch.setattr(certifier, "_PIECE", 7)
    raised = []
    if name == "identity_report":
        monkeypatch.setattr(identities, "_gradient_draw",
                            _raise_on_third_call(identities._gradient_draw, raised))
    else:
        class Failing(np.random.Generator):
            standard_normal = _raise_on_third_call(np.random.Generator.standard_normal, raised)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Failing(np.random.PCG64(seed)))
    before = threading.active_count()
    with pytest.raises(_Boom) as info:
        CALLS[name]()
    assert raised and info.value is raised[0]
    assert threading.active_count() == before
    # only the third draw ever fails, so the next call runs whole
    CALLS[name]()
    assert len(raised) == 1 and threading.active_count() == before


@pytest.mark.parametrize("name, streams", [("identity_report", 4), ("certify_negativity", 1),
                                           ("threshold_scan", 1)])
def test_draws_run_in_order_one_piece_ahead_on_one_worker(monkeypatch, name, streams):
    monkeypatch.setattr(certifier, "_PIECE", 7)
    recorded = []

    def drawn_ahead(pieces, draw, use, _real=certifier._drawn_ahead):
        events = []
        recorded.append((pieces, events))

        def recording_draw(s):
            events.append(("draw", pieces.index(s), threading.get_ident()))
            return draw(s)

        def recording_use(s, piece):
            use(s, piece)
            events.append(("evaluated", pieces.index(s)))

        _real(pieces, recording_draw, recording_use)

    for mod in (certifier, identities):
        monkeypatch.setattr(mod, "_drawn_ahead", drawn_ahead)
    CALLS[name]()
    assert len(recorded) == streams
    for pieces, events in recorded:
        assert len(pieces) > 3
        draws = [e for e in events if e[0] == "draw"]
        # one worker thread, not the calling one, draws the whole stream in order
        assert len({thread for *_, thread in draws}) == 1
        assert draws[0][2] != threading.get_ident()
        assert [j for _, j, _ in draws] == list(range(len(pieces)))
        assert [e[1] for e in events if e[0] == "evaluated"] == list(range(len(pieces)))
        # draw j starts only once piece j - 2 is evaluated
        done = 0
        for event in events:
            if event[0] == "evaluated":
                done += 1
            else:
                assert done >= event[1] - 1, (event, done)

"""The speed probe samples while ops run and leaves no timer behind."""

import signal
import time

import worker


def test_probing_samples_while_ops_run_and_restores_the_timer():
    with worker.Probing() as probing:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probing.samples) >= 5
    assert all(s > 0 for s in probing.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL

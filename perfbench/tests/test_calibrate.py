"""The in-call probe leaves the program's outputs and the signal state alone.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import signal
import time

import calibrate
import workloads


def test_sampler_probes_during_the_block_and_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        deadline = time.perf_counter() + 0.45
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.times) >= 3
    assert all(t > 0.0 for t in sampler.times)
    assert calibrate.slowdown(sampler.times) > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_probed_campaign_writes_the_same_bytes(tmp_path):
    spec = workloads.CampaignSpec(dims=(2, 3), samples_per_cell=2)
    plain = workloads.PreparedCampaign(spec, 9, tmp_path / "plain")
    plain_outcome = plain.verify(plain.run())
    probed = workloads.PreparedCampaign(spec, 9, tmp_path / "probed")
    with calibrate.Sampler() as sampler:
        probed_outcome = probed.verify(probed.run())
    assert sampler.times
    assert all(plain_outcome.gates.values()) and all(probed_outcome.gates.values())
    assert plain_outcome.digest == probed_outcome.digest

"""Pinned trace digests: the sha256 of trace_to_csv for short episodes.

Any change to the random draw order, the float operation order, the slot
search or the record layout changes these bytes. A change that means to
alter them must say why and update the digests in the same commit.
"""

import hashlib
from dataclasses import replace

import pytest

from telebalance.config import load_scenario
from telebalance.sim import run_episode, trace_to_csv
from telebalance.wireless import ChannelModel

EPISODE_S = 5.0

# Gilbert-Elliott burst channel: about 5% of gallop retries land in the
# second same-direction slot of a 4-slot superframe
BURST_CHANNEL = ChannelModel(p_good_to_bad=0.01, p_bad_to_good=0.3,
                             loss_bad=0.8)

GOLDEN = {
    "gallop_default":
        "88a6136436ca7931b996a1d601cf5efde93642acdc7f251b54f3277a47fccbd3",
    "ble_default":
        "fb9353fca55a9b701184331ead65f6b8aa66f9c3d68559444c3a1a149f5e464e",
    "delay_sweep_12ms":
        "89126e32086b85e945d7ebeee8d33f817b5f2da1f036e9c58c9d9e6c793355d5",
    "gallop_4slot_burst":
        "79d5392a987db174786efb6cadf4ac8a149787a52a42bced248fd618fdf54930",
    "gallop_drifting_clock":
        "f096b0a6c2d0655adae8c129e9cd0ff2646da73fda1957277ecb5046fca4be22",
    "delay_sweep_16ms_fall":
        "8e9008576d7b74dc5566513b5aa7716c2f9f4d22c22c5a08a91940a54b3f764e",
    "gallop_sample_floor":
        "254d9a3c2736ec5d8ecfcf3975cb0fb167553c8c4ed7b619687514ce4257df39",
    "ble_overtaken_frame":
        "c2368a576fa7d98549437b464709287f61294560162e83515f9de521fe7ad8ca",
    "ble_overtaken_command":
        "09cf5a9ca86b2245315d552fe3940ae7b8180e2c4c9ad33ad2da07a15e45d6b9",
    "delay_sweep_16ms_lossy_fall":
        "883af62a308f06098fb93b817b22161fbc44dd1185b929eff0a3acc95f79341d",
    "delay_sweep_16ms_fast_clock_fall":
        "d7e2826c9f8f220dbedcec5ed60299cac422d9bb7a6881ec3bde8e0aa28503a3",
}

# The 16 ms cases fall. Events after the fall must not be handled, and the
# CSV alone does not show an extra one, so their fall times and counters
# (forward sent/delivered/lost, feedback sent/delivered/lost) are pinned too.
# On the lossy link a frame received after the fall lost its feedback, which
# must not be counted either. On the fast clock two recvs share the slot that
# ends exactly at the fall time, and the second is dropped as sharing it: the
# first one's feedback is uncounted, and the dropped one sent none.
FALL_TIME = 0.4085
FALL_COUNTERS = (205, 205, 0, 196, 196, 0)
FALLS = {
    "delay_sweep_16ms_fall": (FALL_TIME, FALL_COUNTERS),
    "delay_sweep_16ms_lossy_fall": (0.4065, (204, 166, 38, 160, 129, 31)),
    "delay_sweep_16ms_fast_clock_fall": (0.413, (211, 211, 0, 198, 198, 0)),
}

# The BLE link's jitter can deliver a frame or a command after a newer one;
# the engine drops it. The CSV shows the drop flags but not which message
# reached which side, so each overtaking case pins its message counts
# (forward sent/lost, feedback sent/lost) and its forward and feedback
# drops too. The command case falls.
OVERTAKEN = {
    "ble_overtaken_frame": ((667, 0, 665, 0), 2, 0, None),
    "ble_overtaken_command": ((60, 0, 48, 0), 9, 9, 0.446),
}


def _scenario(config_dir, case):
    if case == "gallop_default":
        cfg = load_scenario(config_dir / "gallop_default.cfg")
    elif case == "ble_default":
        cfg = load_scenario(config_dir / "ble_default.cfg")
    elif case == "gallop_drifting_clock":
        # 21 syncs (t = 0, then every 0.25 s); 19 of them move a pending
        # sample, so the rescheduling path runs too
        cfg = load_scenario(config_dir / "gallop_default.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, clock_drift_ppm=200.0,
                                       sync_error_bound=10e-6,
                                       sync_epoch_period=0.25))
    elif case == "delay_sweep_12ms":
        cfg = load_scenario(config_dir / "delay_sweep.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, extra_delay=0.012))
    elif case == "delay_sweep_16ms_fall":
        cfg = load_scenario(config_dir / "delay_sweep.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, extra_delay=0.016), seed=1)
    elif case == "delay_sweep_16ms_lossy_fall":
        cfg = load_scenario(config_dir / "delay_sweep.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, extra_delay=0.016),
                      channel=ChannelModel(default_loss=0.2), seed=13)
    elif case == "delay_sweep_16ms_fast_clock_fall":
        # a 2% fast clock, not resynced before the fall, puts two samples
        # in one forward slot
        cfg = load_scenario(config_dir / "delay_sweep.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, extra_delay=0.016,
                                       clock_drift_ppm=20000.0), seed=8)
    elif case == "gallop_sample_floor":
        # a 1 us sync offset puts 2 of the sample times before the latest
        # event time reached; run_episode's max(local_to_true_ns(...), now_ns)
        # floor (the advance rule in sim.py) lifts them to it
        cfg = load_scenario(config_dir / "gallop_default.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, sync_error_bound=1e-6,
                                       extra_delay=0.001))
    elif case == "ble_overtaken_frame":
        # a drifting clock, re-bounded at each sync, now and then puts two
        # samples before one connection event, and the jitter can deliver
        # the newer frame first
        cfg = load_scenario(config_dir / "ble_default.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, clock_drift_ppm=20.0,
                                       sync_error_bound=1e-6))
    elif case == "ble_overtaken_command":
        # jitter up to 20 ms, well past the 7.5 ms interval: commands
        # overtake each other too
        cfg = load_scenario(config_dir / "ble_default.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, ble_jitter_max=0.020))
    else:
        cfg = load_scenario(config_dir / "gallop_default.cfg")
        cfg = replace(cfg, mac=replace(cfg.mac, slots_per_superframe=4),
                      channel=BURST_CHANNEL)
    return replace(cfg, episode_duration=EPISODE_S)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_digest_pinned(config_dir, case):
    trace, _ = run_episode(_scenario(config_dir, case))
    digest = hashlib.sha256(trace_to_csv(trace).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(FALLS))
def test_falling_episode_pins_fall_time_and_counters(config_dir, case):
    trace, _ = run_episode(_scenario(config_dir, case))
    fall_time, counters = FALLS[case]
    assert trace.fall_time == fall_time
    # every kept row was sampled before the fall: the rms covers them all
    assert max(trace.t) < fall_time
    assert (trace.forward_sent, trace.forward_delivered, trace.forward_lost,
            trace.feedback_sent, trace.feedback_delivered,
            trace.feedback_lost) == counters


@pytest.mark.parametrize("case", sorted(OVERTAKEN))
def test_overtaking_episode_pins_counters_and_drops(config_dir, case):
    trace, _ = run_episode(_scenario(config_dir, case))
    counts, fwd_drops, fbk_drops, fall_time = OVERTAKEN[case]
    assert (trace.forward_sent, trace.forward_lost, trace.feedback_sent,
            trace.feedback_lost) == counts
    assert (sum(trace.forward_dropped), sum(trace.feedback_dropped)) \
        == (fwd_drops, fbk_drops)
    assert trace.fall_time == fall_time

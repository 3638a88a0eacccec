"""Golden digests: the SHA-256 of every artifact of 18 pinned 24 h runs.

The determinism criterion compares two runs of the same build, so it
cannot see a change that alters output consistently. These digests can:
a refactor must leave every one unchanged. A change that alters an
artifact on purpose updates the affected digests and says why.

Runs: {normal, breach, peak} x seeds {1, 7} x {no fault, a ledger outage
from 2 h to 3 h, a process crash at 30000 s for 30 s}.

Those 18 runs use the default grid, where every day-end and every outbox
retry lands on a sample tick. The off-grid runs below do not: their
day-ends and retries fall between ticks or tie with one, so they pin the
order in which the run loop fires events at and between ticks.
"""

import dataclasses
import hashlib

import pytest

from coldwatch.cli import main
from coldwatch.model import DAY_SECONDS, Thresholds
from coldwatch.runner import DEFAULT_START, RunConfig, run_simulation
from coldwatch.sensor import (
    FaultKind,
    FaultSpec,
    ScenarioKind,
    ScenarioSpec,
    SpikeWindow,
    breach_day,
    normal_day,
    scenario_for,
)

H = 3600

FAULTS = {
    "none": (),
    "outage": (FaultSpec(FaultKind.LEDGER_OUTAGE, DEFAULT_START + 7200, DEFAULT_START + 10800),),
    "crash": (FaultSpec(FaultKind.PROCESS_CRASH, DEFAULT_START + 30000, DEFAULT_START + 30030),),
}

GOLDEN = {
    ("normal", 1, "none"): {
        "events.log": "1817f5fe29ba9040bc4a58980f00fcc248492d9c81dae284d70ef7c386b93fc7",
        "ledger.bin": "0ae5b48c154f2193b466ebce7193625c6688cec2df5da606340cb6a7e10b3809",
        "manifest.json": "dffdfdd00ba0b5bccedcbd0ad89652587bf13518a49cb58a7fe2ce755b6c6237",
        "messenger.jsonl": "2ccbabce8b5c635cdee0eb61c2a8f3a593890875ed8cd3706c78f296951d6ac0",
        "outbox.bin": "2b4dc206d8372be6b5d60ac890ba3c866319947799940e2b64245b7151f27b2f",
        "reports/fridge-1/2025-01-01.csv": "53ed466eca19220e74a088a7e57c5569d823a89f31389da28ce6163f46f97a6e",
        "trace.csv": "509f6d215995b040835d10f42ec6ab3cf6d0c953cf3670fcc4b411d2e4a2ba24",
    },
    ("normal", 1, "outage"): {
        "events.log": "1817f5fe29ba9040bc4a58980f00fcc248492d9c81dae284d70ef7c386b93fc7",
        "ledger.bin": "0ae5b48c154f2193b466ebce7193625c6688cec2df5da606340cb6a7e10b3809",
        "manifest.json": "23a98fc92c2b6f1768d844fefa8da631f9ba586ff0abdd972d9bae08ce96e665",
        "messenger.jsonl": "2ccbabce8b5c635cdee0eb61c2a8f3a593890875ed8cd3706c78f296951d6ac0",
        "outbox.bin": "2b4dc206d8372be6b5d60ac890ba3c866319947799940e2b64245b7151f27b2f",
        "reports/fridge-1/2025-01-01.csv": "53ed466eca19220e74a088a7e57c5569d823a89f31389da28ce6163f46f97a6e",
        "trace.csv": "509f6d215995b040835d10f42ec6ab3cf6d0c953cf3670fcc4b411d2e4a2ba24",
    },
    ("normal", 1, "crash"): {
        "events.log": "045ac9364cf673c8be94057cf18ef8efbcd8d5a04dda70cbf3b304eb0d2b5030",
        "ledger.bin": "2d444ff14e1139bb9f3102526aa29cc6bfcbb70ae429ccf1e271b16f4f4a5a6b",
        "manifest.json": "6b9164330708b9201adcbefdecf903db2d7f8bb0a862788a74a472ae989c645d",
        "messenger.jsonl": "78c062bc69ff90934adef91bca79d7e5a89a5be89ee2aafbeb9c1b7d9035e52b",
        "outbox.bin": "a6912fec16e909461eb371a87f3ea07cc8bfa3521bf6c72514d5277e70b0ff97",
        "reports/fridge-1/2025-01-01.csv": "27988b5c254ada36551fabf1bdfafe781f301e5a21a4face465554c336861cca",
        "trace.csv": "509f6d215995b040835d10f42ec6ab3cf6d0c953cf3670fcc4b411d2e4a2ba24",
    },
    ("normal", 7, "none"): {
        "events.log": "44f8a25cf0f981241ceedab6744a32c408ee09b9e672c9244a02dbc82343eedd",
        "ledger.bin": "4c53779c9dd85ea3c7e87c52db78d6856164d7fee8576985e1d5c1fbec03af36",
        "manifest.json": "4db0dc64dd68438b757faa5512a48d28bc5c5c4bdfc64fd2fdc46f9a6d32fdba",
        "messenger.jsonl": "4d025938641e79ca8abf5a359b3031097916db15916355a3bd47f84b261548c9",
        "outbox.bin": "2b4dc206d8372be6b5d60ac890ba3c866319947799940e2b64245b7151f27b2f",
        "reports/fridge-1/2025-01-01.csv": "fdf540906f320fedf83252cef52d65ea8f10636068680d5b4aa59a24e5afb22d",
        "trace.csv": "81cf8f5539b7567b6cff9ff6fae898cd078c12fdb2e7a781774a5aa1de44a88e",
    },
    ("normal", 7, "outage"): {
        "events.log": "44f8a25cf0f981241ceedab6744a32c408ee09b9e672c9244a02dbc82343eedd",
        "ledger.bin": "4c53779c9dd85ea3c7e87c52db78d6856164d7fee8576985e1d5c1fbec03af36",
        "manifest.json": "69aee9f6b31c2524fba75a61f70d94d1a8d0ae6bf4f87aab4efcbfc03237efc0",
        "messenger.jsonl": "4d025938641e79ca8abf5a359b3031097916db15916355a3bd47f84b261548c9",
        "outbox.bin": "2b4dc206d8372be6b5d60ac890ba3c866319947799940e2b64245b7151f27b2f",
        "reports/fridge-1/2025-01-01.csv": "fdf540906f320fedf83252cef52d65ea8f10636068680d5b4aa59a24e5afb22d",
        "trace.csv": "81cf8f5539b7567b6cff9ff6fae898cd078c12fdb2e7a781774a5aa1de44a88e",
    },
    ("normal", 7, "crash"): {
        "events.log": "98033555d060f7c369e2e75108e6e06e8655afdf27617fbcaac59b6dc529a552",
        "ledger.bin": "08769202cdbcaf3ddf30038f7978fea5e511a2f152afd767a98ef927e3aa7b1e",
        "manifest.json": "65637a4d28a83322be4cf65eb46bc8bacab082739cea5fcdcabdb39438b07054",
        "messenger.jsonl": "2b348e3412c9c2545c0a1c5ccb93edc17758d1125e0ee2503bf23d273ddef47a",
        "outbox.bin": "a6912fec16e909461eb371a87f3ea07cc8bfa3521bf6c72514d5277e70b0ff97",
        "reports/fridge-1/2025-01-01.csv": "5bc25ebfd11b8344da45f1242c7833abf4406181dbe85e8cef02bb0645ef1203",
        "trace.csv": "81cf8f5539b7567b6cff9ff6fae898cd078c12fdb2e7a781774a5aa1de44a88e",
    },
    ("breach", 1, "none"): {
        "events.log": "c81c920c725c8d41b7bbcab0d42c82d0162fbc62bee2da0539cf109df5f9fa8d",
        "ledger.bin": "e8d30b9a32771e1d39046b30c122826695478dd9f5368344c002971380815ca1",
        "manifest.json": "09e9c8fce19ff085a73d638802e48854d8ab3cafb310f4e6f7e42a7e712d44d8",
        "messenger.jsonl": "572213a56aba9851b2e62ddae87a2abe488c01adbaa3b58a51b20914ffe38712",
        "outbox.bin": "d5fd089367fd661bc18e1d2dd468cef9f82b5adb3009eb875affd4402b0b52a5",
        "reports/fridge-1/2025-01-01.csv": "b245807177830a9523f3cd22e1913d062f6b763a0120c3242683a7d8ff36aba0",
        "trace.csv": "06c9dd32cf9d6350bb87d523d1e2a97348f42c406e3310a4e87dc437d52ebb05",
    },
    ("breach", 1, "outage"): {
        "events.log": "c81c920c725c8d41b7bbcab0d42c82d0162fbc62bee2da0539cf109df5f9fa8d",
        "ledger.bin": "e8d30b9a32771e1d39046b30c122826695478dd9f5368344c002971380815ca1",
        "manifest.json": "30a62abb395c16228effa6f9a1035df24e775142e9a5adb15a96e421a50b9eb9",
        "messenger.jsonl": "572213a56aba9851b2e62ddae87a2abe488c01adbaa3b58a51b20914ffe38712",
        "outbox.bin": "d5fd089367fd661bc18e1d2dd468cef9f82b5adb3009eb875affd4402b0b52a5",
        "reports/fridge-1/2025-01-01.csv": "b245807177830a9523f3cd22e1913d062f6b763a0120c3242683a7d8ff36aba0",
        "trace.csv": "06c9dd32cf9d6350bb87d523d1e2a97348f42c406e3310a4e87dc437d52ebb05",
    },
    ("breach", 1, "crash"): {
        "events.log": "d1c6e1bee2befe740cfbfe1b494bdd7a5b5c83ac04f80aba90aa59a6c5e203cb",
        "ledger.bin": "44fd8b9f6f584ae81a1e6f3226093ef46723394e933217fa1e96dda2b852d1ba",
        "manifest.json": "c6fad75c8b0a4ace0926c870de4a8530cee5c2b346dd3d37ddb653fa53760ab9",
        "messenger.jsonl": "8e9511dc93c8810affa1c54e7aeb2f9daf8e20082f20693c4d4bf95e8a310dc3",
        "outbox.bin": "6ddb218700c04cd5f6e011713e42b638f2aeb1b75993f9131c2f4374e4e80a02",
        "reports/fridge-1/2025-01-01.csv": "acd7df3ad25a24acce2b88a30a57948a89d3050637f1b1a91d85c3944d26b9b3",
        "trace.csv": "06c9dd32cf9d6350bb87d523d1e2a97348f42c406e3310a4e87dc437d52ebb05",
    },
    ("breach", 7, "none"): {
        "events.log": "3a5b31d958d98bbca6814b0065ac92fa2acc9416182e3851bda18d25309a9440",
        "ledger.bin": "5e26d3279fe799c4c05aafda97a036a9995b081c1a8de65af86d23c7acbeec2b",
        "manifest.json": "6b96823459f593f827942f528a8d8207e849f434122075a7bfb5546201b134ac",
        "messenger.jsonl": "4011fd1e350bcb448fd1f5a11ef4f073263dbbf3461e44ae35da40def77862a4",
        "outbox.bin": "d5fd089367fd661bc18e1d2dd468cef9f82b5adb3009eb875affd4402b0b52a5",
        "reports/fridge-1/2025-01-01.csv": "d8f56f7484d6800461ffa1ce58729ca965199ab01de7035515521a4d9e80fc00",
        "trace.csv": "42478f9146273c46c268d15b210ccaa25babfe7a33d71851826ab557759584af",
    },
    ("breach", 7, "outage"): {
        "events.log": "3a5b31d958d98bbca6814b0065ac92fa2acc9416182e3851bda18d25309a9440",
        "ledger.bin": "5e26d3279fe799c4c05aafda97a036a9995b081c1a8de65af86d23c7acbeec2b",
        "manifest.json": "378911151fa001c79c0bea2316300dadf873ac3adbe35abe4a977c42200e189a",
        "messenger.jsonl": "4011fd1e350bcb448fd1f5a11ef4f073263dbbf3461e44ae35da40def77862a4",
        "outbox.bin": "d5fd089367fd661bc18e1d2dd468cef9f82b5adb3009eb875affd4402b0b52a5",
        "reports/fridge-1/2025-01-01.csv": "d8f56f7484d6800461ffa1ce58729ca965199ab01de7035515521a4d9e80fc00",
        "trace.csv": "42478f9146273c46c268d15b210ccaa25babfe7a33d71851826ab557759584af",
    },
    ("breach", 7, "crash"): {
        "events.log": "a1d2c0c0f960154b9cf5e8ef6577df698a80b9aa44909b6f5aa451807bc33044",
        "ledger.bin": "ca8d5917b7738060d4704f8b945210de226e8dd362d5a7c2edbfd2635a16677f",
        "manifest.json": "24070869f399d8b8fd5bb092b361d99ae6874e5e568706e9ece6ef93e32dcc5b",
        "messenger.jsonl": "f67c7dd35fd2ea89e2479effe863059000b8025955a80d4842c0c67be54c98d8",
        "outbox.bin": "6ddb218700c04cd5f6e011713e42b638f2aeb1b75993f9131c2f4374e4e80a02",
        "reports/fridge-1/2025-01-01.csv": "1e96bf8a69f8769de42fdcee82aa6a76f59363b09e10459409b3159ac07619e8",
        "trace.csv": "42478f9146273c46c268d15b210ccaa25babfe7a33d71851826ab557759584af",
    },
    ("peak", 1, "none"): {
        "events.log": "3a31caf3cd89112da22310ff9f4b923d1313eae1af891de8ea536e69d8cc0e57",
        "ledger.bin": "beeb0219054e171f207eb1ed0acd527fa21c1a102219a3d20aedc454b3e3257d",
        "manifest.json": "fe41eafae8da24c41af52f1bf7439df31ea88f944535ef27000abf9db5419324",
        "messenger.jsonl": "2cb0ed30712e9f4a9cd140cd4244ba18968ead264b925cb0e10365f55d8779b3",
        "outbox.bin": "2b4dc206d8372be6b5d60ac890ba3c866319947799940e2b64245b7151f27b2f",
        "reports/fridge-1/2025-01-01.csv": "13516e77e55718390c643152d7aff7287fd921483e51212824a8f658b7be2d73",
        "trace.csv": "8852b33ca5e6fdf8167eee8b9435180f152adf5bbd15b1f7bcd7414ec5e80543",
    },
    ("peak", 1, "outage"): {
        "events.log": "3a31caf3cd89112da22310ff9f4b923d1313eae1af891de8ea536e69d8cc0e57",
        "ledger.bin": "beeb0219054e171f207eb1ed0acd527fa21c1a102219a3d20aedc454b3e3257d",
        "manifest.json": "15b9fd696c647a9d262e4f8f78160e1f53cf8e211013b0f21b7dcd3f2a0aff19",
        "messenger.jsonl": "2cb0ed30712e9f4a9cd140cd4244ba18968ead264b925cb0e10365f55d8779b3",
        "outbox.bin": "2b4dc206d8372be6b5d60ac890ba3c866319947799940e2b64245b7151f27b2f",
        "reports/fridge-1/2025-01-01.csv": "13516e77e55718390c643152d7aff7287fd921483e51212824a8f658b7be2d73",
        "trace.csv": "8852b33ca5e6fdf8167eee8b9435180f152adf5bbd15b1f7bcd7414ec5e80543",
    },
    ("peak", 1, "crash"): {
        "events.log": "e6c98a1a49caf3ca2ffdbaaa3d0115ead277104521cb4f5dd0821fd378c8e3ad",
        "ledger.bin": "62fca5c7f8f63918e07a7aac0d6d3a8e86b57e5569813c3cfde7bf22fd7b6546",
        "manifest.json": "1fc4474f6a9ae5559c2d1a032e0cee4604aaa3459339b0640f966f3f44378ca5",
        "messenger.jsonl": "45ce7577d70f1161235b3db1db40fd774f10ed4e9a73b4303e8917fe374beee9",
        "outbox.bin": "a6912fec16e909461eb371a87f3ea07cc8bfa3521bf6c72514d5277e70b0ff97",
        "reports/fridge-1/2025-01-01.csv": "f6690e70673ae3440c367d465df40918dbc827f26769249e2a3dc4a6f46ce645",
        "trace.csv": "8852b33ca5e6fdf8167eee8b9435180f152adf5bbd15b1f7bcd7414ec5e80543",
    },
    ("peak", 7, "none"): {
        "events.log": "dc369637d322c3fab7b71169e8b023d382c7d8ab2e44b8e7f7252cc717068eec",
        "ledger.bin": "edc3091d905461fad8ec935bcad8c8092225ef90884b14e4ae0554cae32e2753",
        "manifest.json": "82e0de79f3fcab888c3cfff1820207d37a8ab01b5cd14bbe184ec907ecc8ddbf",
        "messenger.jsonl": "80dc6b8c01ba960eb52b98c495ea824f7d461f5a74d82bae1f77d72db9db6afb",
        "outbox.bin": "2b4dc206d8372be6b5d60ac890ba3c866319947799940e2b64245b7151f27b2f",
        "reports/fridge-1/2025-01-01.csv": "a9314a1cb61e7a7ed8e36a63acd0b0c8a2b09398421540aa537fe250f94c0173",
        "trace.csv": "6be1001bc49371f2fe237413f41c7118e54a8cb04a44917d5d5ed9cf20518295",
    },
    ("peak", 7, "outage"): {
        "events.log": "dc369637d322c3fab7b71169e8b023d382c7d8ab2e44b8e7f7252cc717068eec",
        "ledger.bin": "edc3091d905461fad8ec935bcad8c8092225ef90884b14e4ae0554cae32e2753",
        "manifest.json": "99a1347f21b353802b97edd7245ae320f7f28a19410d3eaedb5f58f5aa2e20ed",
        "messenger.jsonl": "80dc6b8c01ba960eb52b98c495ea824f7d461f5a74d82bae1f77d72db9db6afb",
        "outbox.bin": "2b4dc206d8372be6b5d60ac890ba3c866319947799940e2b64245b7151f27b2f",
        "reports/fridge-1/2025-01-01.csv": "a9314a1cb61e7a7ed8e36a63acd0b0c8a2b09398421540aa537fe250f94c0173",
        "trace.csv": "6be1001bc49371f2fe237413f41c7118e54a8cb04a44917d5d5ed9cf20518295",
    },
    ("peak", 7, "crash"): {
        "events.log": "9677dde7bae1663aa274738648f7cce5e5e31b8e6ffb7c5446383fad382a8ba9",
        "ledger.bin": "bfd151edfd6879b7b7e259788aabef8b8f2ade55d603c27d897c0d7be742327d",
        "manifest.json": "88bfe575ed61f3314a469e96e3b10e8263ed4fa8d09c69b145205e861ef6ae69",
        "messenger.jsonl": "848ff047b4ff44ec5d9f0dd900e3893b799a131d8b7ceb0eee82132860b3c826",
        "outbox.bin": "a6912fec16e909461eb371a87f3ea07cc8bfa3521bf6c72514d5277e70b0ff97",
        "reports/fridge-1/2025-01-01.csv": "bce4ac27d539a012db646e6b86cfeffb16d99119806cbb187b16c84412e558e0",
        "trace.csv": "6be1001bc49371f2fe237413f41c7118e54a8cb04a44917d5d5ed9cf20518295",
    },
}


def _grid_run(name, seed, fault):
    scenario = dataclasses.replace(
        scenario_for(name, DEFAULT_START, DAY_SECONDS, seed), faults=FAULTS[fault]
    )
    return dict(scenario=scenario, seed=seed, scenario_name=name)


@pytest.mark.parametrize("name,seed,fault", list(GOLDEN))
def test_artifact_digests(tmp_path, name, seed, fault):
    out = tmp_path / "run"
    run_simulation(RunConfig(out_dir=out, **_grid_run(name, seed, fault)))
    assert _digests(out) == GOLDEN[(name, seed, fault)]


def _digests(out):
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _fault(kind, start, end):
    return FaultSpec(kind, DEFAULT_START + start, DEFAULT_START + end)


def _off_grid_runs():
    s10 = DEFAULT_START + 10
    return {
        # Ticks at 10 s past each 30 s step; the outage spans the midnight
        # day-end, whose retries then run off the tick grid.
        "start-10s-25h": dict(
            start=s10,
            horizon=25 * H,
            seed=3,
            scenario=dataclasses.replace(
                breach_day(s10, seed=3),
                faults=(_fault(FaultKind.LEDGER_OUTAGE, 23 * H + 50 * 60, 24 * H + 10 * 60),),
            ),
            scenario_name="breach",
        ),
        # 30 s retries after the alert's failed submit land between 60 s ticks.
        "period-60": dict(
            thresholds=Thresholds(sample_period=60, critical_log_period=60),
            seed=4,
            scenario=dataclasses.replace(
                breach_day(DEFAULT_START, seed=4),
                faults=(_fault(FaultKind.LEDGER_OUTAGE, 31000, 32000),),
            ),
            scenario_name="breach",
        ),
        # The last tick (24 h 30 s) ties with a retry; the run ends between ticks.
        "horizon-24h45s": dict(
            horizon=DAY_SECONDS + 45,
            seed=5,
            scenario=dataclasses.replace(
                normal_day(seed=5),
                faults=(_fault(FaultKind.LEDGER_OUTAGE, 23 * H + 50 * 60, DAY_SECONDS + 40),),
            ),
        ),
        # A 7 s period divides neither 86400 s nor 30 s.
        "period-7": dict(
            thresholds=Thresholds(
                sample_period=7,
                normal_log_period=1197,
                critical_log_period=35,
                batch_anchor_period=7203,
            ),
            horizon=2 * DAY_SECONDS,
            seed=6,
            scenario=dataclasses.replace(
                breach_day(DEFAULT_START, seed=6),
                faults=(
                    _fault(FaultKind.PROCESS_CRASH, 31800, 31830),
                    _fault(FaultKind.SENSOR_DROPOUT, 12 * H, 13 * H),
                    _fault(FaultKind.LEDGER_OUTAGE, 23 * H + 50 * 60, 24 * H + 10 * 60),
                ),
            ),
            scenario_name="breach",
        ),
        # Two spikes overlap (their deltas add up to a breach); the second
        # dropout runs past the end of the run.
        "overlapping-spikes": dict(
            seed=8,
            scenario=ScenarioSpec(
                kind=ScenarioKind.PEAK_HOURS,
                seed=8,
                spike_windows=(
                    SpikeWindow(DEFAULT_START + H, DEFAULT_START + 3 * H, 12, 80),
                    SpikeWindow(DEFAULT_START + 2 * H, DEFAULT_START + 4 * H, 30, 50),
                ),
                faults=(
                    _fault(FaultKind.SENSOR_DROPOUT, 20000, 21000),
                    _fault(FaultKind.SENSOR_DROPOUT, 85000, 90000),
                ),
            ),
            scenario_name="peak",
        ),
    }


OFF_GRID = {
    "start-10s-25h": {
        "events.log": "20df3e20a80df76000a3756caa545d7be8d0bfb994eb615a2d61d1f9cd962784",
        "ledger.bin": "c727083491a53545fa61c9d588d2a1a7dd2c6eb0823b8e10e893c31213f02c92",
        "manifest.json": "dea4d77f38366f673240d37cbd87462ab6b67d9c2778b7760607ef47be7dd3af",
        "messenger.jsonl": "2de4324141be9c4db2ec85c9cfe41ca4eb12dce8c2512beca059584ddb897e28",
        "outbox.bin": "66485e2e36b2592e0c239b7715d888d78e29aa5b93a3d521f05c57e118a3149a",
        "reports/fridge-1/2025-01-01.csv": "449d7ccabc4083dfc129f31e3fd1d774b47475a8349023200875d543ca94b486",
        "reports/fridge-1/2025-01-02.csv": "1471616ca5e444cb1f00b4e95a2cc88ae39367bed1291086721cc62d0c7fee85",
        "trace.csv": "632169b96f999a6e42247b15b54300e874bee47a1d9dbe5db78f86d0a1a49e9f",
    },
    "period-60": {
        "events.log": "6c365821b4a92b2ef719767fb73ce23948aeb11c04971e5159e5399568123871",
        "ledger.bin": "efa957c140787e0bbf0e3ef9f865a27a8b7842c979c3968f7cbf46475246297b",
        "manifest.json": "d5326e833eaa7eb5bc965d1cf7db3bfc769427fc0b1ca5cd11b5e833a8e8a327",
        "messenger.jsonl": "10e5178a462e3349a903fa05b6e52026bb07dc52de40dd323aa0be215bca339a",
        "outbox.bin": "d5fd089367fd661bc18e1d2dd468cef9f82b5adb3009eb875affd4402b0b52a5",
        "reports/fridge-1/2025-01-01.csv": "ae2bf7ef163c601b88e4f41e21ce6ed314ac14163590c233591db91282c689c2",
        "trace.csv": "3c70b9a5c92b995d75cbb913b03551d2d545a1891a0718a360d5a4a068e5bdad",
    },
    "horizon-24h45s": {
        "events.log": "163574169c413088b4b0f2a16f9874ad8763d7788ec8c7aa8a3ecf556aa83f61",
        "ledger.bin": "cb1d63346fb1960c760dceab1866d26a3aa54a9d004a7cd2fd13218e9ec7bd1c",
        "manifest.json": "62dcff5c05f585cc4cce6f176f4864ebcd53005c098753d93f669cba116052a8",
        "messenger.jsonl": "02f6f917d15059da19061b5d3904a73d772c3ee788ba987068d9651068c869a5",
        "outbox.bin": "e10de06d2e75ab464d22ed07a88a47da7ca9399d6e91d5f6ca77f1300087ce76",
        "reports/fridge-1/2025-01-01.csv": "a12e1913c5e6e7326adcdf503a19c4e7ffb84fe3134a860f9144ab4241b3f5d8",
        "reports/fridge-1/2025-01-02.csv": "ff2cd14b773b15cf1f15ce3dc7140753d36b4fa6d90855735d829c637d988ac0",
        "trace.csv": "2fff69f2b6fcf8bbae8a07b85ecb1aed5004778de6639a410bf66f21371dbe00",
    },
    "period-7": {
        "events.log": "4cb9202d83c46cb975bd409c86ddefc40dc7f3d16140b79a8bfbc389d53619c7",
        "ledger.bin": "1fc840a99fa149b86675ce0584acf9f6dcd7b08c4a08aba32ad1b615eb9f64eb",
        "manifest.json": "5aeb12d53f6960b209ff2cda6338a2249fac4ff74c02cb56f4183925626c1773",
        "messenger.jsonl": "9333a770d9dbe36544e53105be314ce98aa7d3416423dee6fc01716837a834f7",
        "outbox.bin": "480e023bc86e23a69a1fbfe9126078a3275708f10b4959796cee3fb9599ff56d",
        "reports/fridge-1/2025-01-01.csv": "495ed03df02abc4b82b9065fe8ed70dc681e07c27dd6c622c9e4a9b13f1b80aa",
        "reports/fridge-1/2025-01-02.csv": "4add70f5b1ba69b5001029493fecdd35b8205f148d07318af83c131828bc2557",
        "trace.csv": "261639bf878a683dc30f57993b1e27a73f20f833e9b63ec1d80de6808e2e6614",
    },
    "overlapping-spikes": {
        "events.log": "afc02edbb4cd946a9cc4ff3ba4ded4e0367b7dbc9ea007839faa319457483ce6",
        "ledger.bin": "65bfa380740dc82d0ac83169363dc9fa080ff83f0122a04b8e438c365d788b11",
        "manifest.json": "1e05ab20259c1aa73a157fbabfa6738594fe09f942cab6252562051fdcf525d7",
        "messenger.jsonl": "0e41b1b8e3841bbfcec6709c7995425a4f08c4fb1e21358e6e94aeef9d4de74e",
        "outbox.bin": "d5fd089367fd661bc18e1d2dd468cef9f82b5adb3009eb875affd4402b0b52a5",
        "reports/fridge-1/2025-01-01.csv": "443588f24fbb197552b5c46eb2635e3228b7855b4c5f9bdbb49b7d183d63eb12",
        "trace.csv": "f675438e969f148a0099488265eb814300d4c058244b49dfbac9861b13c1a5c3",
    },
}


@pytest.mark.parametrize("name", list(_off_grid_runs()))
def test_off_grid_artifact_digests(tmp_path, name):
    out = tmp_path / "run"
    run_simulation(RunConfig(out_dir=out, **_off_grid_runs()[name]))
    assert _digests(out) == OFF_GRID[name]


# -- read side ----------------------------------------------------------------
#
# What `coldwatch energy` and `coldwatch cost` print for the seed-7 grid runs
# and the off-grid runs: the energy table (stdout without the `csv written
# to` line), the energy CSV file and the cost table.


def _read_side_runs():
    grid = {f"{n}-7-{f}": _grid_run(n, 7, f) for n, seed, f in GOLDEN if seed == 7}
    return {**grid, **_off_grid_runs()}


def _read_side_digests(out, tmp_path, capsys):
    csv_path = tmp_path / "energy.csv"
    assert main(["energy", "--events", str(out / "events.log"), "--csv", str(csv_path)]) == 0
    table = capsys.readouterr().out.replace(f"csv written to {csv_path}\n", "")
    assert main(["cost", "--ledger", str(out / "ledger.bin")]) == 0
    cost = capsys.readouterr().out
    return {
        "energy table": hashlib.sha256(table.encode()).hexdigest(),
        "energy csv": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "cost": hashlib.sha256(cost.encode()).hexdigest(),
    }


READ_SIDE = {
    "normal-7-none": {
        "energy table": "a9027f79f10768497a30406b9c95d30b49f56417ff22e8ecbe777384f526d25b",
        "energy csv": "c0a61c29ca685724373e0b7bf4408a69516cd6a5cf26fe2edd9bd03effd3ed8b",
        "cost": "1435368692dacd6c35181a3d4f555cd3becaeff4cc208fd6534017781fad7252",
    },
    "normal-7-outage": {
        "energy table": "a9027f79f10768497a30406b9c95d30b49f56417ff22e8ecbe777384f526d25b",
        "energy csv": "c0a61c29ca685724373e0b7bf4408a69516cd6a5cf26fe2edd9bd03effd3ed8b",
        "cost": "1435368692dacd6c35181a3d4f555cd3becaeff4cc208fd6534017781fad7252",
    },
    "normal-7-crash": {
        "energy table": "3c9090e9e043aa639660dd9f955b8aa0ee6e6cfb194673ed328c6fd385f79ee9",
        "energy csv": "766d7f234369e2d40082838ee547906f07deed32c8b579a3a43a7105e9871f6f",
        "cost": "35f923de97ec911f47d6df4fbb79c6323bbdd4de3ba3b857aa01965eaaca5311",
    },
    "breach-7-none": {
        "energy table": "5a10e0cfee49a5a0a72cdf23355544bc6554f793ccbe12e38b0aa57bccdbf0e7",
        "energy csv": "849b0498f50af1e6cd9fe7441b865c7cd55b463f8960fcc1adcd688f51cb8c29",
        "cost": "0dc7513613da5799d7e116bff239801a35ad5db2c044d5164bf4ec197d3eee5f",
    },
    "breach-7-outage": {
        "energy table": "5a10e0cfee49a5a0a72cdf23355544bc6554f793ccbe12e38b0aa57bccdbf0e7",
        "energy csv": "849b0498f50af1e6cd9fe7441b865c7cd55b463f8960fcc1adcd688f51cb8c29",
        "cost": "0dc7513613da5799d7e116bff239801a35ad5db2c044d5164bf4ec197d3eee5f",
    },
    "breach-7-crash": {
        "energy table": "00e003e0746fdd9aaa48db1e352733393d3f3c8ae163284d6208b0a6f142757a",
        "energy csv": "a354d4835a23ce272b9a92efe60e93abc2eda467398904aff61ca728ccf7cddc",
        "cost": "e270e94740a6f2c495c940a255e36c36a676a0febd4286e596db3f182df79f8a",
    },
    "peak-7-none": {
        "energy table": "a9027f79f10768497a30406b9c95d30b49f56417ff22e8ecbe777384f526d25b",
        "energy csv": "c0a61c29ca685724373e0b7bf4408a69516cd6a5cf26fe2edd9bd03effd3ed8b",
        "cost": "1435368692dacd6c35181a3d4f555cd3becaeff4cc208fd6534017781fad7252",
    },
    "peak-7-outage": {
        "energy table": "a9027f79f10768497a30406b9c95d30b49f56417ff22e8ecbe777384f526d25b",
        "energy csv": "c0a61c29ca685724373e0b7bf4408a69516cd6a5cf26fe2edd9bd03effd3ed8b",
        "cost": "1435368692dacd6c35181a3d4f555cd3becaeff4cc208fd6534017781fad7252",
    },
    "peak-7-crash": {
        "energy table": "3c9090e9e043aa639660dd9f955b8aa0ee6e6cfb194673ed328c6fd385f79ee9",
        "energy csv": "766d7f234369e2d40082838ee547906f07deed32c8b579a3a43a7105e9871f6f",
        "cost": "35f923de97ec911f47d6df4fbb79c6323bbdd4de3ba3b857aa01965eaaca5311",
    },
    "start-10s-25h": {
        "energy table": "905989a9dd91ee53b36df2b4b65467ebcb513d22addcae1ce79b78079ac64911",
        "energy csv": "670225e83665130adaf11560132b14f4086eb21efb8ed52b6f8d1287f3446938",
        "cost": "1903e36f3c4efe09e6080d95174f5943b5dd133866951adaf1bfabf47559a7df",
    },
    "period-60": {
        "energy table": "1f00a505c199fbcef7cd68be795d5dd0ea64045a89015cc00221d39030fba024",
        "energy csv": "8861d16e18c3ec0ca0c44a7c861b2c7e57e5bf90a1ee21aeca48d36022314136",
        "cost": "0dc7513613da5799d7e116bff239801a35ad5db2c044d5164bf4ec197d3eee5f",
    },
    "horizon-24h45s": {
        "energy table": "ef9b15c6261ae36f21ede38495307a48811ffe2541692d276690112b13341884",
        "energy csv": "d30680cf3760f428fd04601c47d30813375e57657fc94a5bd470e88811da9b35",
        "cost": "d47f1716de4bc4b12caa0d67320c1556e7d561ec6df5772b7b8735256de4530a",
    },
    "period-7": {
        "energy table": "932f892d0190f24b456fecfa0e02bcee246196ce5ad64333ed094c877bbe1f1e",
        "energy csv": "0d13a26126e5543f212befbcacee88ddec2b9e6d2d0cfebec59c44394b4c69ee",
        "cost": "69d82e7f778607701a7a9b2b01f56aafabf82523ad0fc1f5a6f40a3044076f5d",
    },
    "overlapping-spikes": {
        "energy table": "dc3c107f4aa15232593f7e6a719baa37eff7155cb15c35465d9519112181f546",
        "energy csv": "c91ef948fb68703fac5cf9f9880873268762c501375c23996c29e71d12e98b43",
        "cost": "0dc7513613da5799d7e116bff239801a35ad5db2c044d5164bf4ec197d3eee5f",
    },
}


@pytest.mark.parametrize("run_id", list(READ_SIDE))
def test_read_side_digests(tmp_path, capsys, run_id):
    out = tmp_path / "run"
    run_simulation(RunConfig(out_dir=out, **_read_side_runs()[run_id]))
    assert _read_side_digests(out, tmp_path, capsys) == READ_SIDE[run_id]

"""Golden digests: the SHA-256 of every artifact of 18 pinned 24 h runs.

The determinism criterion compares two runs of the same build, so it
cannot see a change that alters output consistently. These digests can:
a refactor must leave every one unchanged. A change that alters an
artifact on purpose updates the affected digests and says why.

Runs: {normal, breach, peak} x seeds {1, 7} x {no fault, a ledger outage
from 2 h to 3 h, a process crash at 30000 s for 30 s}.
"""

import dataclasses
import hashlib

import pytest

from coldwatch.model import DAY_SECONDS
from coldwatch.runner import DEFAULT_START, RunConfig, run_simulation
from coldwatch.sensor import FaultKind, FaultSpec, scenario_for

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


@pytest.mark.parametrize("name,seed,fault", list(GOLDEN))
def test_artifact_digests(tmp_path, name, seed, fault):
    scenario = dataclasses.replace(
        scenario_for(name, DEFAULT_START, DAY_SECONDS, seed), faults=FAULTS[fault]
    )
    out = tmp_path / "run"
    run_simulation(RunConfig(out_dir=out, scenario=scenario, seed=seed, scenario_name=name))
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert digests == GOLDEN[(name, seed, fault)]

"""Byte-identity of the tool's outputs against pinned sha256 digests.

The digests were produced at commit a6a4bcd (before process groups became rank
ranges) and must not move under refactors that claim identical outputs: the
sweep CSV, the ``schedule`` JSON, the ``simulate`` report and the event-trace
rows of one simulation.  The ``calibrate`` digests were produced at 5b2975b
(before the flat-list event loop and the numpy-free grids), the demo digests
at 4c10f7b (before streams ran in issue order), the memory digests at
ab4242f (before one rule in `sharding` derived what a plan shards), the
per-policy sweep digests at 8660751 (before a sweep built each step DAG once
per shape and bound it to every node count's groups), the arch and params
digests at dacdba2 (before `arch` alone told a ViT from an MAE), and the sweep
JSON and pretty-table digests and the ``calibrate`` CLI digest at c632116
(before each printed form read its record's fields from the dataclass).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shardsim import CHECKPOINTED, FULL_CACHE, PRESETS, Scenario, Strategy, \
    activation_bytes, build_units, calibrate, flops, frontier, get_model, \
    param_count, prepare_scenario, run_scenario, simulate_step
from shardsim.cli import run

# The `sweep` CSV over the benchmark's sweep-wide matrix.
SWEEP_ARGV = ("sweep", "--model", "mae-base,mae-3b",
              "--strategies", "full,hybrid8,no-shard",
              "--nodes", ",".join(str(2 ** k) for k in range(12)),
              "--format", "csv")
SWEEP_SHA256 = \
    "8625a10fcb9f8945725b8db0f798481a8a544d7516d1b7e1d70e8b9f55f04245"

# The same matrix in the other two formats.
SWEEP_FORMAT_SHA256 = {
    "json":
        "9f726d9db5273f6eb4805aa96d7ce06f2a000eca065f81156c01824c361dc93f",
    "pretty-table":
        "6b0c2a3202b288a2f714c1c2f2dc4f116e9fb6b5ecd619412174fdd9f2bba799",
}

STRATEGIES = ("full", "hybrid8", "hybrid16", "grad-op", "ddp", "no-shard")
PREFETCH = ("none", "backward-post", "backward-pre")

# The `sweep` CSV of vit-base and mae-base x these strategies x nodes 1, 2,
# 4, 16 (hybrid16 cannot be built on 1 node, hybrid2 keeps a one-rank replica
# group there), keyed "prefetch/limiter": the limiter at its default of two
# gathers in flight, at one, or off.  At two the limiter never delays a
# gather these models' compute is waiting for, so its CSV equals "off".
SWEEP_POLICY_ARGV = ("sweep", "--model", "vit-base,mae-base", "--strategies",
                     "full,hybrid2,hybrid16,grad-op,ddp,no-shard",
                     "--nodes", "1,2,4,16", "--format", "csv")
LIMITER_ARGV = {"limit2": (), "limit1": ("--max-inflight", "1"),
                "off": ("--no-limit-all-gathers",)}
SWEEP_POLICY_SHA256 = {
    "none/limit2":
        "db26372e811fcb66669566246f5e27eac62f357d820501057b25d7a9c7d1702c",
    "none/limit1":
        "ca249f399edeb77b6c944bd2cfdcee731f450c366334ffaaef471b9b6d391c0a",
    "none/off":
        "db26372e811fcb66669566246f5e27eac62f357d820501057b25d7a9c7d1702c",
    "backward-post/limit2":
        "4d1ee8aaa9f2ee70773fd3de97080145c818b42d81fbb960f99888d1d03b183e",
    "backward-post/limit1":
        "c31bc22f16e3ee4d3453f6971e74bc1b5a384b8be0a129554ed61f94f177ed66",
    "backward-post/off":
        "4d1ee8aaa9f2ee70773fd3de97080145c818b42d81fbb960f99888d1d03b183e",
    "backward-pre/limit2":
        "e19eedf6bf3da79853a0f63a06b1ee896937e24422f1aff233d262b7c110b8dc",
    "backward-pre/limit1":
        "7109e4762d4c3b6e51b7d5cc592bacf5eb1c897da30342e5d0bd53e82fa12284",
    "backward-pre/off":
        "e19eedf6bf3da79853a0f63a06b1ee896937e24422f1aff233d262b7c110b8dc",
}

# `schedule --model vit-base` JSON, keyed "strategy/prefetch/nodes".
SCHEDULE_SHA256 = {
    "full/none/2":
        "ee0c066b5d4aab90fac0e7678bb74c1a9775797b26244c25ffa5008bb86202c7",
    "full/none/16":
        "b80c20da4a03aabe38483d9b5b3cd07117a514c4687105e089c9412b8743294a",
    "full/backward-post/2":
        "e0ddd191597fb70ee9a074834025799ef3f7c086ec2d3af562dd458feaf76b59",
    "full/backward-post/16":
        "61bd2619491564954c52459649fe6aa5c1fe2a609490c0be5ec2c13b1568e4fe",
    "full/backward-pre/2":
        "87df5b29ce8e273d526fab40425ea59464e7646aebf46118c4cc73f2677cbe2d",
    "full/backward-pre/16":
        "906928086289e78ccb48471543863ce3683f5a625774bad314a759b0a28807f8",
    "hybrid8/none/2":
        "47de040f4946c6e15af23c198310fde5ec58487dcab6b915cf54b354e2b387b7",
    "hybrid8/none/16":
        "c0ae6ad8f2780227757f4bd626a1688edb5740d53acff954408a220b8a81c5e3",
    "hybrid8/backward-post/2":
        "663e95ff43a9c94a7f87620b3d7188d36003dd8c3589c8546b9fe007daab931c",
    "hybrid8/backward-post/16":
        "090a7405ffd476ac3b5823d0364ae7cd4867b7a77e5b7627c58356c02d1c32fd",
    "hybrid8/backward-pre/2":
        "3d89207e438b89080065d01281ab145dffa4d484defadd2628f68b18f1820f47",
    "hybrid8/backward-pre/16":
        "a986ce5f5ea2dfd87e8d7905db8dec455846647ab3987f5c1f7cc732acb4eaec",
    "hybrid16/none/2":
        "a1abcde481942ae9e38594ccf9290744a7009da9322f5b096bc1a0d701ec63e2",
    "hybrid16/none/16":
        "42f18191994c5564e07a402471dde880d87892c4ed37093352822ecb8230ec51",
    "hybrid16/backward-post/2":
        "2fb2023e62614290bf6990c30a44f69f0837058a4137e1f38eae61e9cd45e444",
    "hybrid16/backward-post/16":
        "147141b14fae7444cc313b5bcf2c4c0bb44dca277a1cf37ce94145c43bb19df6",
    "hybrid16/backward-pre/2":
        "c21b1158c6a73e2c356ae9dcb4f67f45ded5e4fefeb17d518e3ad6a4d3ef735d",
    "hybrid16/backward-pre/16":
        "5881bc334310862c63b20d9474a8712021201e6129aa8dbf9e6b0345a9f43dbd",
    "grad-op/none/2":
        "8fc47449a06f97ace1192b94e2958f62716aa383f336e82a5898b4f2103c8d41",
    "grad-op/none/16":
        "b9df8774ba64e7a52dd80eaf0292bee6903b0f746280d21745fc49c90280c83c",
    "grad-op/backward-post/2":
        "579ffe82c8f1b3a3c862af61fe0aada90bef10e5d475a3105e77e0d7cf801b35",
    "grad-op/backward-post/16":
        "57a5a764a72c44e7edbcbb09e184fee940db7050e3157aae8c9130bd28be03ae",
    "grad-op/backward-pre/2":
        "0c3109553101020af9aa79ad1f6310141c12be57380bf35492b0fc6ecbbec7e9",
    "grad-op/backward-pre/16":
        "f3ed38d519359ba32b1857c56e582810970b80e483fd92569dc37a279235c780",
    "ddp/none/2":
        "2f8e69d50328c9425778ece47bcc3619fbccc9819c7a781f4e23a6dec1ca0442",
    "ddp/none/16":
        "19cd26dee78278c15c638c6b15124c58e43da515b4aaec33275c0b0b678c02e9",
    "ddp/backward-post/2":
        "12f70c358008493513f04a4533a4b08cf562eaa01c58bcc861a1cad32dae1c60",
    "ddp/backward-post/16":
        "aa1b77980dd736fd3214e2982ba11fa8899cd57dca3d55730d7c0415046afffd",
    "ddp/backward-pre/2":
        "ad701194d39380376f6faf88d15e0d5e8e6ee93ed8696749bc6d24af2c38cf98",
    "ddp/backward-pre/16":
        "e8a875de2c96471a31a9396bc53aadaa2e87149fa13c3c5fe8826c7fb50f48d7",
    "no-shard/none/2":
        "cf9f1f1d74ca92674ed7f675333ade864cd2bf537ed06d57c34e96e4b04b3f4d",
    "no-shard/none/16":
        "ce1e5abe916eeb6fa5d1cf879a63d3d4a3e008b3cdc41ba4b9f5fea3e9c15ad1",
    "no-shard/backward-post/2":
        "49e3a053db68930c874aeb3d9db35523830bb60e73c966885e13b37d994c0fbc",
    "no-shard/backward-post/16":
        "16617f93b69a51da28e3e036b3ce492e5782c8d2cb8c6ee4332472032d631b43",
    "no-shard/backward-pre/2":
        "be0f2eddad59e28092f71b81cdf90360b7a6ac4e4508b6895987840a772df535",
    "no-shard/backward-pre/16":
        "40c1c3693a907159861362cc1cb67a119dd651ac2b3973c3779ffc23af8a3c42",
}

# `simulate --model vit-base --nodes 2 --format json`, keyed by strategy.
SIMULATE_SHA256 = {
    "full":
        "9bf4127ae7a42ceb67ad7aa75684eaef9d31048c8f20ff896f3d7cb12e9db018",
    "hybrid8":
        "5f792bebac3f74ed18afe73d8ec6f0b34181195f9de510b14a0ac5d7e6448a5d",
    "hybrid16":
        "9bf4127ae7a42ceb67ad7aa75684eaef9d31048c8f20ff896f3d7cb12e9db018",
    "grad-op":
        "7aaca523731014e436dd33791ecc6272fabee0f077c648e57f16d3c8b8dce431",
    "ddp":
        "c128a4a03f309d8b0d57c866bf7a39d566323cec0aac706f430c1c050dac1ee0",
    "no-shard":
        "756c8a1650c162ccc7e6b2afd4c684e5e51bb811f3bafbb2d7e24f1efcc2c3c6",
}

# `memory --format json`, keyed "model/strategy/nodes".
MEMORY_SHA256 = {
    "vit-base/full/2":
        "7f2938efbf3743513889ada601047e07967416022d6a5e9eae3e9d7bbca08f51",
    "vit-base/full/16":
        "99ca519f41113b54924f64648ad20e3f9b0a0c3abfa8ecc0fc05a0c8f3ca30c4",
    "vit-base/hybrid8/2":
        "dd4c43f3aaaf676d3077dfd747be30c7fb714260341967f59e1f994184b884a7",
    "vit-base/hybrid8/16":
        "dd4c43f3aaaf676d3077dfd747be30c7fb714260341967f59e1f994184b884a7",
    "vit-base/hybrid16/2":
        "7f2938efbf3743513889ada601047e07967416022d6a5e9eae3e9d7bbca08f51",
    "vit-base/hybrid16/16":
        "7f2938efbf3743513889ada601047e07967416022d6a5e9eae3e9d7bbca08f51",
    "vit-base/grad-op/2":
        "b2f8281dce81dc138392a85d87e6c5ee9b80d69a9089ff21b79b7f999fb7bee4",
    "vit-base/grad-op/16":
        "27c1031d8fc7d141c2ab8c92e6094c78d21b17a7ee8cd8fffeb64389e7c8e3d5",
    "vit-base/ddp/2":
        "eefa36e446ec8413e1940b2fae5d4319ed0deaabc6f1f0bb17a795db7e53a1b6",
    "vit-base/ddp/16":
        "eefa36e446ec8413e1940b2fae5d4319ed0deaabc6f1f0bb17a795db7e53a1b6",
    "vit-base/no-shard/2":
        "eefa36e446ec8413e1940b2fae5d4319ed0deaabc6f1f0bb17a795db7e53a1b6",
    "vit-base/no-shard/16":
        "eefa36e446ec8413e1940b2fae5d4319ed0deaabc6f1f0bb17a795db7e53a1b6",
    "vit-15b/full/2":
        "b95b9b857932a40ff93b03bbd48972ba499afd7e0a4daf559b933b0ac8c8b147",
    "vit-15b/full/16":
        "45e6ebc12602f053049e510a3dea42a3ae1931c3e82c5cbb9af1e171498fa856",
    "vit-15b/hybrid8/2":
        "667545705c9096679f9dab9ef08bc3f472370aff7dff37a245146412f08f8ca1",
    "vit-15b/hybrid8/16":
        "667545705c9096679f9dab9ef08bc3f472370aff7dff37a245146412f08f8ca1",
    "vit-15b/hybrid16/2":
        "b95b9b857932a40ff93b03bbd48972ba499afd7e0a4daf559b933b0ac8c8b147",
    "vit-15b/hybrid16/16":
        "b95b9b857932a40ff93b03bbd48972ba499afd7e0a4daf559b933b0ac8c8b147",
    "vit-15b/grad-op/2":
        "987516058518037b6d1c77cef01e552ff08bfa4be129c38e36469cf9bdfb98b8",
    "vit-15b/grad-op/16":
        "025bedae6cdacb426615317dd86415904f46df38de50312a5abed269397b2cff",
    "vit-15b/ddp/2":
        "b658e4b42f58ef64a8847579973b79eb09709f001876fde2e59f45f3bdfee7e7",
    "vit-15b/ddp/16":
        "b658e4b42f58ef64a8847579973b79eb09709f001876fde2e59f45f3bdfee7e7",
    "vit-15b/no-shard/2":
        "b658e4b42f58ef64a8847579973b79eb09709f001876fde2e59f45f3bdfee7e7",
    "vit-15b/no-shard/16":
        "b658e4b42f58ef64a8847579973b79eb09709f001876fde2e59f45f3bdfee7e7",
}

# The repr() of every MemoryBreakdown, in bytes, over vit-base, vit-15b and
# mae-3b x the strategies above x nodes 2 and 16, one per line.
MEMORY_BREAKDOWN_SHA256 = \
    "aab6c423a1725cef25ad42ff6cc4c5888b73cfd4f395c9d6694c09726a792196"

# One {"task", "start", "end", "resource"} row per event of
# simulate_step(...)[0] of vit-base hybrid8 on 2 nodes.
TRACE_SHA256 = \
    "c51847ee263b1cb2b38df922250d7a900abce43e9f7c04b1f76643b2a82b8bef"

# repr() of calibrate() on the two published 5B points, and on three points
# the simulator generated at efficiency 0.30, latency scale 4.0.
CALIBRATE_5B_SHA256 = \
    "54b15c6ca3d27434d9aefd85e17dba1ee1c2ae2b6092921672ee1fbe8fcb852e"
CALIBRATE_ROUND_TRIP_SHA256 = \
    "173cdf8b4274d09bc26f31c0b9560660bc8816e131b4a1a1a97c7d872c29fdab"

# The stdout of `calibrate --observations` on the two published 5B points.
PUBLISHED_5B = [
    {"model": "mae-5b", "strategy": "hybrid2", "nodes": 32,
     "measured_ips": 1509.0},
    {"model": "mae-5b", "strategy": "full", "nodes": 32,
     "measured_ips": 1307.0},
]
CALIBRATE_CLI_SHA256 = \
    "79a193bc66857534a0f1f216940473a0cc0dbc2bcb7cea6347839a39a47d30d8"

# Every vit-* preset and the mae-* preset wrapping it.
ARCH_MODELS = tuple(PRESETS) + tuple(
    "mae-" + name[len("vit-"):] for name in PRESETS)

# repr() of param_count, flops at batches 1, 7 and 32, activation_bytes at
# batch 32 under both activation models, and build_units at batch 32, for
# each of ARCH_MODELS, one per line.
ARCH_SHA256 = \
    "a2e83cc0508556d47e2934ba7a05c13a5c9f841116e2534901b5ae77d977cb78"

# `params --model M --format json` for each of ARCH_MODELS, concatenated;
# pins the order of ParamBreakdown.components().
PARAMS_SHA256 = \
    "50f4f4ee4b8d046009a6c96f3045b1daf775192f3cdd6c2a49ae23eafaf4f627"

ROOT = Path(__file__).resolve().parents[1]

# The stdout of each `demos/0*.py`, run from a fresh interpreter.
DEMO_SHA256 = {
    "01_model_accounting.py":
        "4734e111edc21f4b54948cfa793a56f4ab32762ef5fde2dc8285ddf6f21e8ed3",
    "02_memory_planning.py":
        "2f85f6824845237e5cbaee7064162bb9e18e59973d7ef7b165761117703cd8b6",
    "03_step_schedules.py":
        "0e6a8a2f7c1bed89a58d8c92abac90dcdfa06eda2ca2358393d1b8bc29f8a003",
    "04_weak_scaling.py":
        "d2b0d582c70c7a7069103a29006a97b65f68404b587240b4ecb7f100a5aa5fc2",
    "05_calibration.py":
        "af9e9218020f880f767f3c7a451c5fa778688b44c3da461e4031b1b36a3f6fd8",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_output(capsys, *argv) -> str:
    assert run(list(argv)) == 0
    return capsys.readouterr().out


def test_sweep_csv(capsys):
    assert sha256(cli_output(capsys, *SWEEP_ARGV)) == SWEEP_SHA256


@pytest.mark.parametrize("fmt", sorted(SWEEP_FORMAT_SHA256))
def test_sweep_formats(capsys, fmt):
    out = cli_output(capsys, *SWEEP_ARGV[:-1], fmt)
    assert sha256(out) == SWEEP_FORMAT_SHA256[fmt]


@pytest.mark.parametrize("limiter", sorted(LIMITER_ARGV))
@pytest.mark.parametrize("prefetch", PREFETCH)
def test_sweep_csv_per_policy(capsys, prefetch, limiter):
    out = cli_output(capsys, *SWEEP_POLICY_ARGV, "--prefetch", prefetch,
                     *LIMITER_ARGV[limiter])
    assert sha256(out) == SWEEP_POLICY_SHA256[f"{prefetch}/{limiter}"]


@pytest.mark.parametrize("nodes", (2, 16))
@pytest.mark.parametrize("prefetch", PREFETCH)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_schedule_json(capsys, strategy, prefetch, nodes):
    out = cli_output(capsys, "schedule", "--model", "vit-base",
                     "--strategy", strategy, "--prefetch", prefetch,
                     "--nodes", str(nodes))
    assert sha256(out) == SCHEDULE_SHA256[f"{strategy}/{prefetch}/{nodes}"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_simulate_report(capsys, strategy):
    out = cli_output(capsys, "simulate", "--model", "vit-base",
                     "--strategy", strategy, "--nodes", "2", "--format", "json")
    assert sha256(out) == SIMULATE_SHA256[strategy]


@pytest.mark.parametrize("nodes", (2, 16))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model", ("vit-base", "vit-15b"))
def test_memory_report(capsys, model, strategy, nodes):
    out = cli_output(capsys, "memory", "--model", model, "--strategy", strategy,
                     "--nodes", str(nodes), "--format", "json")
    assert sha256(out) == MEMORY_SHA256[f"{model}/{strategy}/{nodes}"]


def test_memory_breakdown_bytes():
    rows = [repr(prepare_scenario(Scenario(model, Strategy.parse(strategy),
                                           nodes), frontier(1))[1])
            for model in ("vit-base", "vit-15b", "mae-3b")
            for strategy in STRATEGIES
            for nodes in (2, 16)]
    assert sha256("\n".join(rows)) == MEMORY_BREAKDOWN_SHA256


def test_event_trace_rows():
    scenario = Scenario(model="vit-base", strategy=Strategy.parse("hybrid8"),
                        nodes=2)
    schedule, _, spec = prepare_scenario(scenario, frontier(1))
    rows = [{"task": e.task_id, "start": e.start, "end": e.end,
             "resource": e.resource}
            for e in simulate_step(schedule, spec)[0].events]
    assert sha256(json.dumps(rows)) == TRACE_SHA256


def test_calibrate_published_5b():
    observations = [(Scenario("mae-5b", Strategy.hybrid(2), 32), 1509.0),
                    (Scenario("mae-5b", Strategy.full_shard(), 32), 1307.0)]
    fitted = calibrate(observations, frontier(1))
    assert sha256(repr(fitted)) == CALIBRATE_5B_SHA256


def test_calibrate_cli(capsys, tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(PUBLISHED_5B))
    out = cli_output(capsys, "calibrate", "--observations", str(path))
    assert sha256(out) == CALIBRATE_CLI_SHA256


def test_calibrate_round_trip():
    spec = frontier(1)
    scenarios = (Scenario("mae-base", Strategy.no_shard(), 1),
                 Scenario("mae-3b", Strategy.no_shard(), 64),
                 Scenario("mae-base", Strategy.full_shard(), 8))
    observations = [
        (s, run_scenario(s, spec, compute_efficiency=0.30,
                         latency_scale=4.0).images_per_second)
        for s in scenarios]
    fitted = calibrate(observations, spec)
    assert sha256(repr(fitted)) == CALIBRATE_ROUND_TRIP_SHA256


def test_arch_accounting():
    rows = []
    for name in ARCH_MODELS:
        model = get_model(name)
        rows.append(repr(param_count(model)))
        rows.extend(repr(flops(model, batch)) for batch in (1, 7, 32))
        rows.extend(repr(activation_bytes(model, 32, model=kind))
                    for kind in (CHECKPOINTED, FULL_CACHE))
        rows.append(repr(build_units(model, 32)))
    assert sha256("\n".join(rows)) == ARCH_SHA256


def test_params_report(capsys):
    out = "".join(cli_output(capsys, "params", "--model", name,
                             "--format", "json") for name in ARCH_MODELS)
    assert sha256(out) == PARAMS_SHA256


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == \
        sorted(DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output(demo):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_SHA256[demo]

"""Golden trace bytes: the generator's output is pinned file by file.

``GENERATOR_VERSION`` promises that an unchanged :class:`GeneratorConfig`
yields an unchanged trace -- the experiment cache keys on exactly that.
These digests are the sha256 of every file :func:`save_trace` writes for a
few small configurations covering both clouds, the holiday week and all
three placement policies.  A performance change to the simulator, the
allocator or the samplers must leave every digest untouched; a change that
is *meant* to alter output bumps ``GENERATOR_VERSION`` and re-records them.

The digests were recorded with numpy 2.4.6 on x86_64 and hold with its
AVX-512 and AVX2 kernels disabled (``NPY_DISABLE_CPU_FEATURES``); a numpy
release that changes a ufunc's rounding would move them too.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cloud.allocator import PlacementPolicy
from repro.telemetry.io import save_trace
from repro.workloads.generator import GeneratorConfig, TraceGenerator, generate_trace_pair
from repro.workloads.profiles import private_profile, public_profile

_CASES = {
    "pair": lambda: generate_trace_pair(GeneratorConfig(seed=5, scale=0.05)),
    "pair-holiday": lambda: generate_trace_pair(
        GeneratorConfig(seed=5, scale=0.05, holiday_week=True)
    ),
    "public-best-fit": lambda: TraceGenerator(
        public_profile(),
        GeneratorConfig(seed=5, scale=0.05, placement_policy=PlacementPolicy.BEST_FIT),
    ).generate(),
    "private-random": lambda: TraceGenerator(
        private_profile(),
        GeneratorConfig(seed=5, scale=0.05, placement_policy=PlacementPolicy.RANDOM),
    ).generate(),
}

#: Recorded under GENERATOR_VERSION "2".
_GOLDEN = {
    "pair": {
        "checksums.json": "71e13806fb9beb5626a5a0dd89d5209ce75c25ec70f740dd040467be1739367d",
        "events.jsonl": "24c6b9ef08d3261eefbe793044671da84f092a578d9ba522d87e6ab891a12a46",
        "metadata.json": "4851dcf58650acbe3601803bc7bf7c45dac335f85fed962d960a91faebaae016",
        "topology.json": "2f006499a88da86bfde34fd5f332fe92950aad2152cd8ed02d4fa86d530be7da",
        "utilization/00000.npy": "e977bb9368621a18f9b3c431147b25e8924bddf7b51a530a7ccfeabedbdbdcbe",
        "utilization/index.json": "1244ce3d23ee9d4f2788cb691516a0efb6c559efb7cd5a33fa8fe0d83e3313d5",
        "vms.jsonl": "55cf57eb264b5faf44d07928ec1fdcfb8cf4e69559436ecfa180e20c680ac53b",
    },
    "pair-holiday": {
        "checksums.json": "5f0f560c8e89b399f97da249fefa1aacc08c4bd565ea1a96f5296b23b060f91c",
        "events.jsonl": "b6f4634291c3264cf9994190c4b274672340970e0ce74beb598a7b17e7833197",
        "metadata.json": "4851dcf58650acbe3601803bc7bf7c45dac335f85fed962d960a91faebaae016",
        "topology.json": "2f006499a88da86bfde34fd5f332fe92950aad2152cd8ed02d4fa86d530be7da",
        "utilization/00000.npy": "a5f14741ca6e92fdd20381dbc1c0e5b6d184071a6ec5e34f98aef224f8986984",
        "utilization/index.json": "f58f0e4bcc59a778e226e86858c2a9cd3a0be86890f3397bdcd3f7c601a89a5e",
        "vms.jsonl": "7b2acc139f372b3b495bf88dd1ec5185d64d97b868028d28be39e941e56f952a",
    },
    "public-best-fit": {
        "checksums.json": "11dd6f123ed0a22f22472def80b11ac7fdc9f01ad9d658b8ea264d351ef214d7",
        "events.jsonl": "7483dc4a7c58bb635695f06c3c637932f8098505a9a24572b10a3d8a23fc9571",
        "metadata.json": "1d9ebdb029884a81c293a692ea58ba406b32eb37bfc456b3a31be6090539ea8f",
        "topology.json": "7a60dd41019d97cec87c9869982a7812b37640446ffe9e035e38d9332d3eacfa",
        "utilization/00000.npy": "e01a21656294af577e1be49bfc1f7359adaa6cfab70ba4b0cae583cdd0c0fadf",
        "utilization/index.json": "1cd7642d344c9e42bd3c6cc3e909b230677c0dd9b0ac17260597d61456bc237f",
        "vms.jsonl": "424d91d1a66a0de604aabf56191b66ad28b165db8838545aeaa63c1b2fd8860e",
    },
    "private-random": {
        "checksums.json": "56df82f671b3d175babb4c30598bb193276f56ec9bbe6b0b8816dc689321832c",
        "events.jsonl": "d82174c4fe53cec74193b53966c7453fd2ace6438197e950232a36927d60ea82",
        "metadata.json": "20a42caae6685c55eb0040f082d2e3c992439d69f397b907c48936256922c2b7",
        "topology.json": "10e309899a195c3af835b7fbf63b723a90857cc20343357629900734ea36ecc3",
        "utilization/00000.npy": "eabe1a58c197280cbea882fc802a99a59b2243f6b5d49bf361ab4972241f508a",
        "utilization/index.json": "d15ce41751c4ed70876c36e6adbeddfb75dc991bac52fab7b6baf0c144006ee7",
        "vms.jsonl": "9d19793c0579c9c83f2ccd81e64419f584c778af9014a7132f0adad351fb1a34",
    },
}


def _file_digests(directory: Path) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(_CASES))
def test_trace_bytes_are_pinned(case, tmp_path):
    save_trace(_CASES[case](), tmp_path)
    assert _file_digests(tmp_path) == _GOLDEN[case]

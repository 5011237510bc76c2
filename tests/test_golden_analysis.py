"""Golden analysis outputs: im2-spot, Fig. 5-7(a) and the KB are pinned bitwise.

``test_golden_trace.py`` pins the generator's bytes; this file pins what
the analysis tasks and the knowledge base compute from them.  Each digest
is the sha256 of a canonical byte rendering of one result:

* the im2-spot :class:`SpotAdoptionReport`, every field ``repr``'d;
* Fig. 6's four :class:`PercentileBands`, as ``bands.tobytes()`` plus
  ``n_series``;
* Fig. 7(a)'s two :class:`CorrelationCdf` objects: ``values``,
  ``probabilities``, ``n_samples`` and ``n_constant_pairs``;
* Fig. 5's ``private_mix`` and ``public_mix`` pattern shares, ``repr``'d;
* the knowledge base, as ``WorkloadKnowledgeBase.from_trace(store).to_json()``;
* every check's ``(name, passed, measured)`` of those tasks.

A speed-up to one of these kernels must leave every digest untouched, on
the resident store and on the same trace reloaded as memory-mapped shards.
The digests were recorded with numpy 2.4.6 on x86_64.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core import correlation as corr
from repro.core.knowledge_base import WorkloadKnowledgeBase
from repro.experiments import fig5, fig6, fig7, implications
from repro.telemetry.io import load_trace, save_trace
from repro.telemetry.schema import Cloud
from repro.telemetry.shards import ShardRef

_GOLDEN = {
    "im2-spot.report": "bf512518e65a894ffb74c77cc96f6a718dcd7c5b67b9202ad402c58f9b9b25ca",
    "im2-spot.checks": "b4a2fc80316645a888fd22ed4404cf342a083a3bfec1d53d8fb3f0ac5d2bba5b",
    "fig6.private_weekly": "4561a697b0d124902fb4d4555a1feb0766b77fef948e309d5f89d3a513c5084d",
    "fig6.public_weekly": "23facbe1f1af1e72b1ab449c6da23ededaca13738ffe0263878761b0c3588c59",
    "fig6.private_daily": "ed29d454acacb354463101e9822f160cb4a52bb829670187771eea55c4d771c4",
    "fig6.public_daily": "151b9f90c36356f21d2c9fb490648f18e23e7e1acea85ad57acbd09d41ca2d36",
    "fig6.checks": "bf5ae1072a403e8bc10e7922542ebd6eeb4aced76c1759273c1513d2e6ed64ee",
    "fig7a.private": "f03c28ec08130a7edbce53311a8a210b9f7b9121a5c6aad03030aac8a6e52128",
    "fig7a.public": "d59ca5e39f0646466b91788e87069cfb44a3bbf560c07351fce941f5218b0a86",
    "fig7a.checks": "c0eb30f8b7e655118696a1aaaeeecb5163a3bb4bfb7c5241da89881b2008e724",
    "fig5.private_mix": "4e13c26da3ef6cb7498f9ffd8f747448f93b2442c33eb465befdeafb08e8fd21",
    "fig5.public_mix": "286ed685b91963f5144d145a6aa54f90d8aaec2eadff52563494f361c1b98df1",
    "fig5.checks": "3863d3121f0f808b27f83a6a3e2d6e489875e95b32a7374521e49948662af9ec",
    "kb.json": "7515eb34867a3a3e6ff3c721e0ba90ed954c300d8452f27bc769e2756576d01e",
}


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _checks_digest(result) -> str:
    rows = [(c.name, c.passed, c.measured) for c in result.checks]
    return _sha(repr(rows).encode())


def _cdf_digest(cdf) -> str:
    return _sha(
        cdf.values.tobytes(),
        cdf.probabilities.tobytes(),
        repr((cdf.n_samples, cdf.n_constant_pairs)).encode(),
    )


def _digests(store) -> dict[str, str]:
    out = {}
    spot = implications.run_spot(store)
    report = spot.series["report"]
    out["im2-spot.report"] = _sha(
        repr(
            [(f.name, getattr(report, f.name)) for f in dataclasses.fields(report)]
        ).encode()
    )
    out["im2-spot.checks"] = _checks_digest(spot)

    bands = fig6.run(store)
    for name in ("private_weekly", "public_weekly", "private_daily", "public_daily"):
        band = bands.series[name]
        out[f"fig6.{name}"] = _sha(band.bands.tobytes(), repr(band.n_series).encode())
    out["fig6.checks"] = _checks_digest(bands)

    out["fig7a.private"] = _cdf_digest(corr.node_level_correlation(store, Cloud.PRIVATE))
    out["fig7a.public"] = _cdf_digest(corr.node_level_correlation(store, Cloud.PUBLIC))
    out["fig7a.checks"] = _checks_digest(fig7.run_fig7a(store))

    mix = fig5.run(store)
    for name in ("private_mix", "public_mix"):
        out[f"fig5.{name}"] = _sha(repr(sorted(mix.series[name].items())).encode())
    out["fig5.checks"] = _checks_digest(mix)

    out["kb.json"] = _sha(WorkloadKnowledgeBase.from_trace(store).to_json().encode())
    return out


@pytest.fixture(scope="module")
def sharded_trace(small_trace, tmp_path_factory):
    """``small_trace`` round-tripped through the v2 on-disk format."""
    directory = tmp_path_factory.mktemp("golden-analysis") / "trace"
    save_trace(small_trace, directory)
    store = load_trace(directory)
    assert any(isinstance(b, ShardRef) for b in store._util_blocks)
    return store


def test_resident_store_matches_golden(small_trace):
    assert _digests(small_trace) == _GOLDEN


def test_mmap_store_matches_golden(sharded_trace):
    assert _digests(sharded_trace) == _GOLDEN

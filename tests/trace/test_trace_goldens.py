"""Trace-byte goldens: per-column SHA-256 digests of generated traces.

Generation must stay bit-identical across refactors of the builder,
the allocator and the emitters (``TRACE_FORMAT_VERSION`` keys the
on-disk cache on exactly these bytes).  Each digest covers one column
of one (workload, OS) pair at ``REFERENCES`` references, seed 1, and is
checked for the in-memory builder and for the chunk-streaming
generator, whose 4096-reference chunks cut through recorded runs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.trace import tracestore
from repro.trace.generator import TRACE_FORMAT_VERSION, generate_trace

REFERENCES = 50_000

COLUMNS = ("addresses", "physical", "kinds", "asids", "mapped", "kernel")

GOLDENS = {
    ("mpeg_play", "mach"): {
        "addresses": "adfac07319dcb54539b1f7a2d71e3dde162399ee8e78ad8cf094303e436fd2c6",
        "physical": "087c02469b86e5212a524b309209a6a022064b934d663dd5b8d3a25fa0fdc5fa",
        "kinds": "0522ef3bb383b8687f58598261acf387c6b7a815d02e2722d1e24d32d181b5a9",
        "asids": "f861207a5c328075f3683a359cd5d51faff673bd0f3e57ac0851d33061efd2ee",
        "mapped": "80992374cb1a51aaf5914befde2634ec3bb1423f96034929df56be24e5b4dca7",
        "kernel": "f67eae7155b07e075ee33b0c14c73760ef7520f2238f7030969d2f404cbf0dc0",
    },
    ("ousterhout", "ultrix"): {
        "addresses": "764ff6ce525ccc1aadac33e86c13224db153982f3a28afeac846bfd5556e1a40",
        "physical": "33a2ac4f11fa9e416cfd20c203acf8d04ef544c1b27e3724d6179a35e02f2ebf",
        "kinds": "0f6f5b3fcabb4e9ba3f886974f53b367d45bc92977943da8e124e40d525d88cc",
        "asids": "1aa81ee6f6d6c68506ec799bafc8c1c85e6036933923a12ba721a581f5ec1446",
        "mapped": "a931eeba37a7b52d33042ceda13d5cd270c3ae2d79e90950a5f52797f70b0d6f",
        "kernel": "43aa7c16a652e8a7b1baba56ab19b35f4f9212ea5ccc55fc0bbfc0a562533768",
    },
    ("IOzone", "mach"): {
        "addresses": "04a1f9c67c759c46d95dde4fc0bfc01e5e639ebfe82135af2ac37eb607cb7eb7",
        "physical": "321372adb03cbf85bde01aea7277d74c9aaff75d23246f982bdbedcd913d71f0",
        "kinds": "5cb5487b6d8d326e6e6a2b077ac4ff9f9a31ed0ea1c5b63f7ddf25d04c992764",
        "asids": "cf0a30706df076a570d6e7533cb12e3ef882e2a0f547596cb51ae42c81471e0c",
        "mapped": "df8ae8a4b74bbbb34c70b1b90bbe16f873dc19de64239ed4fff29722f26e4274",
        "kernel": "dcc26ca4b1096898fda43027eadf2eb7b9537cc7da57906e4f07b212537fb52f",
    },
}


def _digests(trace) -> dict[str, str]:
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(np.asarray(getattr(trace, name))).tobytes()
        ).hexdigest()
        for name in COLUMNS
    }


def test_format_version_unchanged():
    assert TRACE_FORMAT_VERSION == 1


@pytest.mark.parametrize("pair", sorted(GOLDENS))
def test_batch_generation_bytes(pair):
    workload, os_name = pair
    trace = generate_trace(workload, os_name, REFERENCES)
    assert _digests(trace) == GOLDENS[pair]


@pytest.mark.parametrize("pair", sorted(GOLDENS))
def test_streamed_generation_bytes(pair, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
    workload, os_name = pair
    assert tracestore.generate_stream(workload, os_name, REFERENCES) is not None
    trace = tracestore.load(tracestore.key_for(workload, os_name, REFERENCES, 1))
    assert _digests(trace) == GOLDENS[pair]

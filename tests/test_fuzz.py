"""Seeded mutation fuzz of the four binary containers: TOFC, TOYL, FAMD, FEAT.

Each case stacks one to three bit flips, truncations or extensions, drawn
from aiflow's own Rng, on a valid container and hands the result to its
reader. A reader may accept the bytes or raise an AiflowError; any other
exception escapes the documented contract and fails the test. TOFC is
fuzzed twice: once keeping the stored CRC, so most cases die at the
checksum, and once with the CRC recomputed, so the range decoder itself
reads the corrupt payload.
"""

import struct
import zlib

import numpy as np

from aiflow.errors import AiflowError
from aiflow.familial import decompose_layer, load_layer, save_layer, whiten
from aiflow.numerics import Rng
from aiflow.tofc import (
    Bitstream,
    LaplacianModel,
    decode,
    encode,
    load_features,
    make_blob_features,
    save_features,
)
from aiflow.toylm import ToyLmConfig, attach_branch, build, load_model, save_model

CASES = 1500
_TOFC_HEAD = struct.Struct("<4sBHHB")  # magic, version, clusters, dim, models


def mutate(blob: bytes, rng: Rng) -> bytes:
    """blob after one to three bit flips, truncations or extensions."""
    data = bytearray(blob)
    for _ in range(1 + int(rng.uniform() * 3)):
        kind = int(rng.uniform() * 3)
        if kind == 0 and data:
            data[int(rng.uniform() * len(data))] ^= 1 << int(rng.uniform() * 8)
        elif kind == 1:
            del data[int(rng.uniform() * len(data)):]
        else:
            data += bytes(int(rng.uniform() * 256) for _ in range(1 + int(rng.uniform() * 16)))
    return bytes(data)


def with_crc(body: bytes) -> bytes:
    """A TOFC container from its bytes without the CRC, the CRC recomputed."""
    if len(body) < _TOFC_HEAD.size:
        return body
    ids_end = min(len(body), _TOFC_HEAD.size + _TOFC_HEAD.unpack_from(body)[2])
    return body[:ids_end] + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) + body[ids_end:]


def fuzz(blob: bytes, read, seed: int, cases: int = CASES) -> int:
    """Mutated blobs through read; returns how many it accepted."""
    rng = Rng(seed)
    accepted = 0
    for _ in range(cases):
        try:
            read(mutate(blob, rng))
        except AiflowError:
            continue
        accepted += 1
    return accepted


def file_reader(load, path):
    def read(data):
        path.write_bytes(data)
        return load(path)
    return read


def test_tofc_mutations_raise_only_aiflow_errors():
    d = 3
    models = [LaplacianModel(mu=np.zeros(d), b=np.full(d, 1.5), id=0),
              LaplacianModel(mu=np.full(d, 12.0), b=np.full(d, 1.5), id=1, q_range=6)]
    rows = np.array([[0, 1, -2], [12, 11, 900], [3, -40, 0], [13, 12, 12]], dtype=np.int64)
    blob = encode(rows, models, [0, 1, 0, 1]).to_bytes()
    ids_end = _TOFC_HEAD.size + len(rows)
    body = blob[:ids_end] + blob[ids_end + 4:]
    assert with_crc(body) == blob

    def read(data):
        return decode(Bitstream.from_bytes(data), models)

    fuzz(blob, read, seed=101)
    accepted = fuzz(body, lambda data: read(with_crc(data)), seed=102)
    assert accepted > 0  # the range decoder did see corrupt payloads


def test_toyl_mutations_raise_only_aiflow_errors(tmp_path):
    lm = build(ToyLmConfig(vocab_size=6, embed_dim=4, num_layers=2, context_window=2, seed=3))
    calib = np.random.default_rng(5).normal(size=(4, 12))
    lm = attach_branch(lm, 1, 0.5, whiten(calib))
    path = tmp_path / "model.toyl"
    save_model(lm, path)
    fuzz(path.read_bytes(), file_reader(load_model, path), seed=201)


def test_famd_mutations_raise_only_aiflow_errors(tmp_path):
    rng = np.random.default_rng(7)
    layer = decompose_layer(rng.normal(size=(4, 3)), whiten(rng.normal(size=(3, 9))), 2)
    path = tmp_path / "layer.famd"
    save_layer(layer, path)
    fuzz(path.read_bytes(), file_reader(load_layer, path), seed=301)


def test_feat_mutations_raise_only_aiflow_errors(tmp_path):
    path = tmp_path / "feats.bin"
    save_features(path, make_blob_features(5, 3, 2, Rng(9)))
    fuzz(path.read_bytes(), file_reader(load_features, path), seed=401)

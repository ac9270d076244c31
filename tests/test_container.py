"""The framing every binary container shares, read through aiflow.container.

Each format is cut one byte short of every part boundary (header, each
array, each branch record) and given one extra byte; the one reader must
name the part it was reading, or the trailing bytes, with the same messages
for all four formats.
"""

import re

import numpy as np
import pytest

from aiflow.container import Reader, header, read_file, write_file
from aiflow.errors import InvalidInputError, IoError, MalformedBitstreamError
from aiflow.familial import decompose_layer, load_layer, save_layer, whiten
from aiflow.numerics import Rng
from aiflow.tofc import (
    Bitstream,
    LaplacianModel,
    encode,
    load_features,
    make_blob_features,
    save_features,
)
from aiflow.toylm import ToyLmConfig, attach_branch, build, load_model, save_model

V, D, L = 6, 4, 3


def toyl_container(path):
    """A TOYL file with branches at exits 1 and 2, and its (end, part) boundaries."""
    lm = build(ToyLmConfig(vocab_size=V, embed_dim=D, num_layers=L, context_window=2, seed=3))
    calib = np.random.default_rng(5).normal(size=(D, 12))
    lm = attach_branch(attach_branch(lm, 1, 0.5, whiten(calib)), 2, 0.75, whiten(calib))
    save_model(lm, path)
    parts = [(29, "header"), (8 * V * D, "embedding")]
    parts += [(8 * D * D, f"blocks[{i}]") for i in range(L)]
    parts += [(8 * V * D, "lm_head"), (4, "branch count")]
    for exit_index, branch in sorted(lm.branches.items()):
        h = branch.hidden_dim
        parts += [(8, "branch record"), (8 * D * h, f"branches[{exit_index}].w_u"),
                  (8 * h * D, f"branches[{exit_index}].w_v")]
    return load_model, parts


def famd_container(path):
    rng = np.random.default_rng(7)
    layer = decompose_layer(rng.normal(size=(4, 3)), whiten(rng.normal(size=(3, 9))), 2)
    save_layer(layer, path)
    return load_layer, [(17, "header"), (8 * 4 * 2, "w_u"), (8 * 2 * 3, "w_v")]


def feat_container(path):
    save_features(path, make_blob_features(5, 3, 2, Rng(9)))
    return load_features, [(13, "header"), (4 * 5 * 3, "features")]


FORMATS = {"TOYL": toyl_container, "FAMD": famd_container, "FEAT": feat_container}


def boundaries(parts):
    end = 0
    for size, part in parts:
        end += size
        yield end, part


@pytest.mark.parametrize("magic", FORMATS)
def test_cut_before_each_boundary_names_the_part(tmp_path, magic):
    path = tmp_path / "container"
    load, parts = FORMATS[magic](path)
    blob = path.read_bytes()
    assert blob[:4] == magic.encode() and blob[4] == 1
    assert sum(size for size, _ in parts) == len(blob)
    for end, part in boundaries(parts):
        path.write_bytes(blob[: end - 1])
        with pytest.raises(InvalidInputError,
                           match=f"^container truncated in {re.escape(part)}$"):
            load(path)


@pytest.mark.parametrize("magic", FORMATS)
def test_trailing_byte_magic_and_version_rejected(tmp_path, magic):
    path = tmp_path / "container"
    load, _ = FORMATS[magic](path)
    blob = path.read_bytes()
    cases = [
        (blob + b"\0", "container has 1 trailing byte(s)"),
        (b"XXXX" + blob[4:], "bad magic b'XXXX'"),
        (blob[:4] + b"\x02" + blob[5:], "unsupported container version 2"),
    ]
    for data, message in cases:
        path.write_bytes(data)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            load(path)
    path.write_bytes(blob)
    load(path)


def tofc_blob():
    models = [LaplacianModel(mu=np.zeros(2), b=np.ones(2), id=0),
              LaplacianModel(mu=np.full(2, 9.0), b=np.ones(2), id=1)]
    rows = np.array([[0, 1], [9, 8], [1, -1]], dtype=np.int64)
    return encode(rows, models, [0, 1, 0]).to_bytes()


@pytest.mark.parametrize("cut, part", [
    (3, "header"), (9, "header"),               # header: magic, version, M, d, E
    (10, "model ids"), (12, "model ids"),       # three one-byte model ids
    (13, "checksum"), (16, "checksum"),         # four-byte CRC-32
])
def test_tofc_cut_names_the_part(cut, part):
    blob = tofc_blob()
    with pytest.raises(MalformedBitstreamError, match=f"^container truncated in {part}$"):
        Bitstream.from_bytes(blob[:cut])


def test_tofc_framing_errors_use_its_error_class():
    blob = tofc_blob()
    with pytest.raises(MalformedBitstreamError, match="^bad magic b'TOFX'$"):
        Bitstream.from_bytes(b"TOFX" + blob[4:])
    with pytest.raises(MalformedBitstreamError, match="^unsupported container version 0$"):
        Bitstream.from_bytes(blob[:4] + b"\0" + blob[5:])
    # The payload runs to the end, so an extra byte is a payload byte the CRC rejects.
    with pytest.raises(MalformedBitstreamError, match="^checksum mismatch$"):
        Bitstream.from_bytes(blob + b"\0")
    assert Bitstream.from_bytes(blob).to_bytes() == blob


def test_reader_reads_parts_in_order():
    blob = header(b"TEST", "HI", 2, 7) + b"\x01\x02" + np.arange(6.0).astype("<f4").tobytes()
    reader = Reader(blob, b"TEST", "HI")
    assert reader.fields == [2, 7]
    assert reader.take(2, "tag") == b"\x01\x02"
    matrix = reader.matrix(2, 3, "m", dtype="<f4")
    assert matrix.dtype == np.float64 and matrix.flags.writeable
    assert np.array_equal(matrix, np.arange(6.0).reshape(2, 3))
    reader.end()
    with pytest.raises(InvalidInputError, match="^container truncated in tag$"):
        reader.take(1, "tag")


def test_reader_names_a_non_finite_tensor():
    blob = header(b"TEST", "") + np.array([1.0, np.nan]).astype("<f8").tobytes()
    with pytest.raises(InvalidInputError, match=r"^weights\[0\] contains NaN or Inf$"):
        Reader(blob, b"TEST", "").matrix(1, 2, "weights[0]")


def test_file_errors_name_the_path(tmp_path):
    missing = tmp_path / "no" / "such.bin"
    with pytest.raises(IoError, match=f"^cannot read {re.escape(str(missing))}: "):
        read_file(missing)
    with pytest.raises(IoError, match=f"^cannot write {re.escape(str(missing))}: "):
        write_file(missing, b"x")
    write_file(tmp_path / "ok.bin", b"ab", b"", b"c")
    assert read_file(tmp_path / "ok.bin") == b"abc"

"""DAUG and netpbm file formats: bit-exact round trips, graceful failures."""

import struct

import numpy as np
import pytest

from augseg.daug import read_tensor, write_tensor
from augseg.errors import FormatError
from augseg.netpbm import read_pgm, read_ppm, write_pgm, write_ppm


class TestDaug:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_roundtrip_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        if dtype == np.uint8:
            arr = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        else:
            arr = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        path = tmp_path / "t.daug"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == arr.dtype
        assert back.tobytes() == arr.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.daug"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"DAUG"
        assert struct.unpack_from("<I", raw, 4)[0] == 1
        assert raw[8] == 1 and raw[9] == 2
        assert struct.unpack_from("<QQ", raw, 10) == (2, 3)
        assert len(raw) == 10 + 16 + 2 * 3 * 4

    def test_scalar_rank_zero(self, tmp_path):
        path = tmp_path / "s.daug"
        write_tensor(path, np.float64(4.25))
        back = read_tensor(path)
        assert back.shape == ()
        assert back == 4.25

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.daug"
        write_tensor(path, np.arange(10, dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="byte"):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.daug"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            read_tensor(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "t.daug"
        write_tensor(path, np.zeros(2, dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[8] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dtype"):
            read_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "t.daug"
        write_tensor(path, np.zeros(2, dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_tensor(path)


class TestNetpbm:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img.tobytes() == payload

    @pytest.mark.parametrize("header", [
        b"P5#a\n3#b\n2#c\n255\n",
        b"P5\t3\r\n2\t255\r",
        b"P5 # c1 #still c1\n\n3 2\n#c2\n255\n"])
    def test_header_separators(self, tmp_path, header):
        """Comments between every pair of fields, and tab and CR
        separators, are whitespace."""
        path = tmp_path / "s.pgm"
        payload = bytes(range(6))
        path.write_bytes(header + payload)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img.tobytes() == payload

    @pytest.mark.parametrize("data,message", [
        (b"P5\n3 2\n# runs to the end", "truncated header at byte 24"),
        (b"P5\n3 ", "truncated header at byte 5"),
        (b"P5\n3 2\n255",
         "expected single whitespace before payload at byte 10"),
        (b"P5\nx 2\n255\n", "expected width at byte 3"),
        (b"P5 3\n#w\n\t-2 255\n", "expected height at byte 9"),
        (b"P5 3 2 255" + bytes(range(6)),
         "expected single whitespace before payload at byte 10"),
        (b"P5 3 2 255#c\n" + bytes(6),
         "expected single whitespace before payload at byte 10")])
    def test_header_errors_name_the_byte(self, tmp_path, data, message):
        path = tmp_path / "e.pgm"
        path.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_ppm_header_and_truncated_payload(self, tmp_path):
        path = tmp_path / "p.ppm"
        payload = bytes(range(18))
        path.write_bytes(b"P6 #rgb\n3\t2\r255\n" + payload)
        img = read_ppm(path)
        assert img.shape == (2, 3, 3)
        assert img.tobytes() == payload
        path.write_bytes(b"P6 3 2 255\n" + payload[:-1])
        with pytest.raises(FormatError) as exc:
            read_ppm(path)
        assert str(exc.value) == (f"{path}: truncated payload at byte 28 "
                                  "(need 29)")

    def test_truncated_reports_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_pgm(path, np.zeros((4, 4), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="byte"):
            read_pgm(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(path)

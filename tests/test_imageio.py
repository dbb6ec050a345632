import numpy as np
import pytest

from patchep.imageio import (
    Image,
    read_float_raster,
    read_pgm,
    write_float_raster,
    write_pgm,
)


class TestImage:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Image(4, 4, np.zeros(15))

    def test_nonfinite_rejected(self):
        data = np.zeros(16)
        data[3] = np.nan
        with pytest.raises(ValueError):
            Image(4, 4, data)

    def test_array_round_trip(self):
        a = np.arange(12.0).reshape(3, 4)
        img = Image.from_array(a)
        assert (img.width, img.height) == (4, 3)
        np.testing.assert_array_equal(img.as_array(), a)


class TestPgm:
    def test_round_trip_8bit(self, tmp_path):
        img = Image(5, 3, np.arange(15.0) * 10)
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert (back.width, back.height) == (5, 3)
        np.testing.assert_array_equal(back.data, img.data)

    def test_round_trip_16bit(self, tmp_path):
        img = Image(4, 4, np.linspace(0, 65535, 16))
        path = tmp_path / "a16.pgm"
        write_pgm(path, img, maxval=65535)
        back = read_pgm(path)
        np.testing.assert_array_equal(back.data, np.rint(img.data))

    def test_clipping_on_write(self, tmp_path):
        img = Image(2, 1, np.array([-5.0, 300.0]))
        path = tmp_path / "c.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        np.testing.assert_array_equal(back.data, [0.0, 255.0])

    def test_comment_and_whitespace_header(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n# a comment\n 3 2\n255\n" + bytes(range(6)))
        img = read_pgm(path)
        assert (img.width, img.height) == (3, 2)
        np.testing.assert_array_equal(img.data, np.arange(6.0))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError):
            read_pgm(path)


class TestFloatRaster:
    def test_round_trip_exact_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(24).astype(np.float32).astype(float)
        img = Image(6, 4, data)
        path = tmp_path / "f.raw"
        write_float_raster(path, img)
        back = read_float_raster(path)
        np.testing.assert_array_equal(back.data, data)
        assert (back.width, back.height) == (6, 4)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.raw"
        write_float_raster(path, Image(2, 2, np.zeros(4)))
        raw = path.read_bytes()
        assert raw[:4] == b"PEPF"
        assert len(raw) == 16 + 4 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.raw"
        path.write_bytes(b"XXXX" + bytes(12) + bytes(16))
        with pytest.raises(ValueError):
            read_float_raster(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.raw"
        write_float_raster(path, Image(4, 4, np.zeros(16)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            read_float_raster(path)


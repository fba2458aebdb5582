import math

import numpy as np

from stosszahl.csvio import read_csv, write_csv


def test_write_csv_formats_floats_and_writes_ints_and_strings_as_they_are(tmp_path):
    path = tmp_path / "values.csv"
    row = (0.1, np.float64(1.0) / 3.0, math.nan, -0.0, math.inf, 7, np.int64(-8), "x")
    write_csv(path, ["a", "b", "c", "d", "e", "f", "g", "h"], [row, np.array([0.5, 2.0])])
    assert path.read_bytes() == (
        b"a,b,c,d,e,f,g,h\r\n"
        b"0.10000000000000001,0.33333333333333331,nan,-0,inf,7,-8,x\r\n"
        b"0.5,2\r\n"
    )
    header, first, second = read_csv(path)
    assert [float(x) for x in first[:2]] == [0.1, 1.0 / 3.0]
    assert math.isnan(float(first[2])) and math.copysign(1.0, float(first[3])) == -1.0
    assert first[5:] == ["7", "-8", "x"] and second == ["0.5", "2"]

import pytest

from impforecast.bundle import bundle_from_json
from impforecast.dataio import parse_cohort_csv
from impforecast.errors import DataInputError, EncodingError
from impforecast.report import report_from_json
from impforecast.textio import decode


@pytest.mark.parametrize("text", ["age,x\n", b"age,x\n", "\ufeffage,x\n", b"\xef\xbb\xbfage,x\n"])
def test_decode_drops_one_byte_order_mark(text):
    assert decode(text) == "age,x\n"


def test_decode_keeps_a_second_byte_order_mark():
    assert decode("\ufeff\ufeffage") == "\ufeffage"


@pytest.mark.parametrize("parser", [parse_cohort_csv, bundle_from_json, report_from_json])
def test_bytes_that_are_not_utf8_are_a_data_error(parser):
    with pytest.raises(EncodingError) as info:
        parser(b'{"format_version": 1}\xff\n')
    assert isinstance(info.value, DataInputError)
    assert "not UTF-8" in str(info.value)

"""`ballquot lvalue` prints nothing when it fails."""

import pytest

from ballquot.cli import main


@pytest.mark.parametrize("argv", [
    ["lvalue", "--numeric", "--weight", "1"],
    ["lvalue", "--numeric", "--terms", "9"],
])
def test_lvalue_that_fails_leaves_no_partial_result(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "need n >= 2 and terms >= 10" in captured.err

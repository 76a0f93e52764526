"""Every error belongs to one exit-code family, and cli.main maps each."""

import pytest

from gradcode import cli
from gradcode.errors import GradientCodingError, NumericalError, ParseError, ValidationError

FAMILIES = {ValidationError: (3, "validation error: "),
            NumericalError: (4, "numerical error: "),
            ParseError: (5, "file error: ")}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


LEAVES = [cls for cls in _subclasses(GradientCodingError) if not cls.__subclasses__()]


def test_every_error_class_derives_from_exactly_one_family():
    for cls in _subclasses(GradientCodingError):
        assert sum(issubclass(cls, family) for family in FAMILIES) == 1, cls


def test_the_thirteen_leaves_are_all_checked_below():
    assert len(LEAVES) == 13


@pytest.mark.parametrize("leaf", LEAVES, ids=lambda cls: cls.__name__)
def test_cli_main_maps_each_error_to_its_familys_exit_code(capsys, monkeypatch, leaf):
    def fail(args):
        raise leaf("boom")

    monkeypatch.setattr(cli, "cmd_scheme_inspect", fail)
    code, prefix = next(FAMILIES[family] for family in FAMILIES if issubclass(leaf, family))
    assert cli.main(["scheme", "inspect", "any.json"]) == code
    assert capsys.readouterr() == ("", f"{prefix}boom\n")

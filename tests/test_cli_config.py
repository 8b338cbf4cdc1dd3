import pytest

from flowmoe.cli import main

from csv_fixture import fixture_rows, write_flow_csv


@pytest.mark.parametrize("line", [
    "report_format = xml",
    "imputation = mean",
    "ablate = no_router",
])
def test_config_file_value_outside_choices_exits_2(tmp_path, line):
    """A config file is held to the same choices as the flags, and is
    rejected before any data is read."""
    csv = write_flow_csv(tmp_path / "flows.csv", fixture_rows(20))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(cfg), "--dataset", str(csv),
                 "--out", str(out)]) == 2
    assert not out.exists()

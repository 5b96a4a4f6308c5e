import dataclasses

import pytest

from seqlpd import config
from seqlpd.cluster import ClusterParams
from seqlpd.config import Config
from seqlpd.errors import FormatError, InvalidParams, IoError
from seqlpd.net import NetConfig
from seqlpd.seqmatch import MatchParams


def test_defaults_validate():
    cfg = Config().validate()
    assert cfg.k_local == 20
    assert cfg.n_sub == 4096
    assert len(dataclasses.fields(Config)) == 14
    assert cfg.W == 10
    assert cfg.accept_ratio == 0.8
    assert cfg.D is None and cfg.gt_radius is None
    assert cfg.mirror is False


def test_parse_file_and_apply(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# tuning for the small run\n"
        "\n"
        "W = 6\n"
        "v_max=1.1\n"
        "accept_ratio = 0.7\n"
        "mirror = true\n"
        "D = 0.9\n"
    )
    cfg = config.load(path)
    assert cfg.W == 6
    assert cfg.v_max == 1.1
    assert cfg.accept_ratio == 0.7
    assert cfg.mirror is True
    assert cfg.D == 0.9
    # untouched keys keep their defaults
    assert cfg.v_min == 0.8 and cfg.seed == 0


def test_apply_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("W = 6\nseed = 3\n")
    cfg = config.load(path)
    cfg = config.apply(cfg, {"W": 8, "mirror": "yes"})
    assert cfg.W == 8            # flag beats file
    assert cfg.seed == 3         # file beats default
    assert cfg.mirror is True


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(InvalidParams, match="unknown config key"):
        config.apply(Config(), {"window": 5})
    path = tmp_path / "run.cfg"
    path.write_text("Wdth = 6\n")
    with pytest.raises(InvalidParams, match="Wdth"):
        config.load(path)


def test_bad_values_rejected():
    with pytest.raises(InvalidParams, match="invalid value for W"):
        config.apply(Config(), {"W": "six"})
    with pytest.raises(InvalidParams, match="invalid value for mirror"):
        config.apply(Config(), {"mirror": "maybe"})
    with pytest.raises(InvalidParams, match="invalid value for v_max"):
        config.apply(Config(), {"v_max": "1.2.3"})


def test_bool_spellings():
    for text, want in [("true", True), ("1", True), ("YES", True),
                       ("false", False), ("0", False), ("No", False)]:
        assert config.apply(Config(), {"mirror": text}).mirror is want


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("W = 6\njust words\n")
    with pytest.raises(FormatError, match=":2:"):
        config.parse_file(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        config.parse_file(tmp_path / "absent.cfg")


@pytest.mark.parametrize("overrides", [
    {"k_local": 1}, {"W": 0}, {"v_min": 0.0}, {"v_min": 1.3},
    {"v_step": 0.0}, {"accept_ratio": 1.0}, {"accept_ratio": 0.0},
    {"D": 0.0}, {"gt_radius": -1.0}, {"min_successes": 0},
    {"min_successes": 6}, {"seed": -1}, {"D": 1e39}, {"gt_radius": float("inf")},
    {"gt_radius": float("nan")}, {"D": float("inf")},
    {"k_graph": 0}, {"K_max": 0}, {"v_step": float("nan")}, {"v_max": float("inf")},
    {"W": 10 ** 30},
])
def test_validate_rejects_out_of_range(overrides):
    with pytest.raises(InvalidParams):
        config.apply(Config(), overrides).validate()


@pytest.mark.parametrize("key", ["alpha", "beta", "p_pos", "p_neg"])
def test_training_margins_are_not_config_keys(key):
    with pytest.raises(InvalidParams, match="unknown config key"):
        config.apply(Config(), {key: "1"})


@pytest.mark.parametrize("key", ["descriptor_dim", "vlad_clusters"])
def test_net_widths_are_not_config_keys(key):
    # they come from the weight file
    with pytest.raises(InvalidParams, match="unknown config key"):
        config.apply(Config(), {key: "128"})


def test_stage_objects_come_from_config():
    cfg = config.apply(Config(), {"W": 6, "mirror": True, "D": 0.5, "K_max": 7,
                                  "seed": 3, "k_graph": 5}).validate()
    assert cfg.match_params() == MatchParams(W=6, mirror=True)
    assert cfg.cluster_params() == ClusterParams(D=0.5, K_max=7, seed=3)
    assert cfg.net_config() == NetConfig(k_graph=5)
    with pytest.raises(InvalidParams, match="D is required"):
        Config().cluster_params()


def test_non_utf8_file_is_format_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"W = 6\n# caf\xe9\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        config.parse_file(path)


def test_validate_accepts_optional_when_set():
    cfg = config.apply(Config(), {"D": 1.5, "gt_radius": 3.0}).validate()
    assert cfg.D == 1.5 and cfg.gt_radius == 3.0

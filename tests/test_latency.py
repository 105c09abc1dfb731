"""Latency arithmetic, linearity properties, and the comparison table."""

import numpy as np
import pytest

from spa.decoding import DecodeConfig
from spa.errors import ConfigError, ContractError, DomainError
from spa.latency import (
    LatencyProfile,
    REFERENCE_ROWS,
    build_comparison_table,
    format_rows,
    parse_profile,
    t_net,
    t_on_devices,
    t_total,
    table_m,
)

# the calibration that reproduces the reference LST row exactly
CAL = LatencyProfile(tau=2.0e-3, t_data=4.2e-3, f_e=1e9, f_data=0.0, c_devices=1,
                     t_pretrained=3.29 / 50)


class TestOnDevices:
    def test_zero_workload_is_zero(self):
        assert t_on_devices(LatencyProfile(f_data=0.0)) == 0.0

    def test_unit_case(self):
        p = LatencyProfile(f_data=1e9, c_devices=1, f_e=1e9)
        assert t_on_devices(p) == 1.0

    def test_doubling_devices_doubles_latency_verbatim_form(self):
        # counterintuitive but faithful: the device count multiplies
        p1 = LatencyProfile(f_data=5e8, c_devices=1, f_e=1e9)
        p2 = LatencyProfile(f_data=5e8, c_devices=2, f_e=1e9)
        assert t_on_devices(p2) == 2 * t_on_devices(p1)

    def test_zero_capability_rejected(self):
        with pytest.raises(DomainError):
            LatencyProfile(f_e=0.0)


class TestNet:
    def test_zero_transmissions_zero_latency(self):
        assert t_net(CAL, 0.0, 50) == 0.0

    def test_reference_lst_net_latency(self):
        assert t_net(CAL, 1.0, 50) == pytest.approx(0.31, abs=1e-12)

    def test_spa_usage_gap_documented(self):
        # modeled 0.1922 vs the reference cell 0.18: a ~7% gap, expected
        modeled = t_net(CAL, 0.62, 50)
        assert modeled == pytest.approx(0.1922, abs=1e-12)
        assert abs(modeled - REFERENCE_ROWS["spa"][2]) / REFERENCE_ROWS["spa"][2] < 0.08

    def test_linearity_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = float(rng.uniform(0, 4))
            n = int(rng.integers(1, 400))
            k = float(rng.uniform(0.1, 10))
            base = t_net(CAL, m, n)
            assert t_net(CAL, k * m, n) == pytest.approx(k * base, rel=1e-12)
            scaled_profile = LatencyProfile(
                tau=CAL.tau * k, t_data=CAL.t_data * k, f_e=CAL.f_e,
                f_data=CAL.f_data, c_devices=CAL.c_devices, t_pretrained=CAL.t_pretrained,
            )
            assert t_net(scaled_profile, m, n) == pytest.approx(k * base, rel=1e-12)
            assert t_net(CAL, m, 3 * n) == pytest.approx(3 * base, rel=1e-12)


class TestTotal:
    def test_all_zero_components(self):
        p = LatencyProfile(tau=0, t_data=0, f_data=0, t_pretrained=0)
        assert t_total(p, 1.0, 50) == 0.0

    def test_reference_lst_total(self):
        assert t_total(CAL, 1.0, 50) == pytest.approx(3.60, abs=1e-9)

    def test_reference_spa_total_within_rounding(self):
        assert t_total(CAL, 0.62, 50) == pytest.approx(3.48, abs=0.02)

    def test_additivity_is_exact(self):
        for m in (0.0, 0.31, 1.0, 32.0):
            total = t_total(CAL, m, 50)
            parts = t_on_devices(CAL) * 50 + CAL.t_pretrained * 50 + t_net(CAL, m, 50)
            assert total == parts  # bit-for-bit


class TestComparisonTable:
    def test_reference_ratio_column_exact(self):
        rows = build_comparison_table(CAL, usage=0.62, n_layers=32)
        assert [r.ratio for r in rows] == [32.0, 64.0, 1.0, 0.62]

    def test_toy_scale_ratio_column(self):
        rows = build_comparison_table(CAL, usage=0.5, n_layers=4)
        assert [r.ratio for r in rows] == [4.0, 8.0, 1.0, 0.5]

    def test_rows_satisfy_additivity_exactly(self):
        rows = build_comparison_table(CAL, usage=0.62, n_layers=32)
        for row in rows:
            assert row.t_total == row.t_on_devices + row.t_pretrained + row.t_net

    def test_ratio_ordering(self):
        # strict for L >= 2; at L=1 the lst and lora ratios coincide
        for n_layers in (2, 4, 16, 32):
            rows = {r.arch: r.ratio for r in build_comparison_table(CAL, 0.7, n_layers)}
            assert rows["spa"] < rows["lst"] < rows["lora"] < rows["adapter"]
        rows = {r.arch: r.ratio for r in build_comparison_table(CAL, 0.7, 1)}
        assert rows["spa"] < rows["lst"] <= rows["lora"] < rows["adapter"]

    def test_reference_columns_present_alongside_modeled(self):
        rows = build_comparison_table(CAL, usage=0.62, n_layers=32)
        lora = rows[0]
        assert lora.ref_net == 6.37 and lora.ref_total == 9.63
        # single-calibration modeled LoRA net latency provably disagrees
        assert lora.t_net == pytest.approx(32 * 0.31, abs=1e-9)
        assert abs(lora.t_net - lora.ref_net) > 1.0

    def test_per_arch_override_reconciles_lora(self):
        rows = build_comparison_table(
            CAL, usage=0.62, n_layers=32, per_arch_cost={"lora": 6.37 / (32 * 50)}
        )
        assert rows[0].t_net == pytest.approx(6.37, abs=1e-9)

    def test_lst_is_a_table_architecture_not_a_decoding_policy(self):
        # the LST baseline consults its side network once per token at any depth
        for n_layers in (1, 4, 32):
            assert table_m(n_layers, 0.5)["lst"] == 1.0
        with pytest.raises(ContractError, match="unknown policy 'lst'"):
            DecodeConfig(policy="lst")

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            build_comparison_table(CAL, usage=1.5, n_layers=4)
        with pytest.raises(DomainError):
            build_comparison_table(CAL, usage=0.5, n_layers=0)


class TestFormatsAndProfileFile:
    def test_formats(self):
        rows = build_comparison_table(CAL, 0.62, 32)
        table = format_rows(rows, "table")
        assert "lora" in table and "Ratio" in table
        csv_text = format_rows(rows, "csv")
        assert csv_text.splitlines()[1].startswith("lora,")
        json_text = format_rows(rows, "json")
        assert '"arch": "adapter"' in json_text
        with pytest.raises(ConfigError):
            format_rows(rows, "yaml")

    def test_profile_round_trip(self, tmp_path):
        path = tmp_path / "p.profile"
        path.write_text(
            "# latency profile\n"
            "tau = 0.002\n"
            "t_data = 0.0042\n"
            "f_e = 1e9\n"
            "F_data = 0\n"
            "C_devices = 1\n"
            "t_pretrained = 0.0658\n"
        )
        profile = parse_profile(path)
        assert profile.tau == 0.002
        assert profile.c_devices == 1
        assert t_net(profile, 1.0, 50) == pytest.approx(0.31)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.profile"
        path.write_text("velocity = 3\n")
        with pytest.raises(ConfigError) as e:
            parse_profile(path)
        assert "velocity" in str(e.value)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "p.profile"
        path.write_text("tau = fast\n")
        with pytest.raises(ConfigError):
            parse_profile(path)

    @pytest.mark.parametrize(
        "line", ["C_devices = nan", "C_devices = inf", "C_devices = 2.5", "tau = nan",
                 "t_data = inf", "f_e = -inf", "t_pretrained = nan"]
    )
    def test_non_finite_or_fractional_value_rejected_at_its_line(self, tmp_path, line):
        path = tmp_path / "p.profile"
        path.write_text(f"# latency profile\n{line}\n")
        with pytest.raises(ConfigError) as e:
            parse_profile(path)
        assert f"{path}:2:" in str(e.value)
        assert line.split("=")[0].strip() in str(e.value)

    def test_whole_number_c_devices_is_read_exactly(self, tmp_path):
        path = tmp_path / "p.profile"
        path.write_text("C_devices = 2.0\n")
        assert parse_profile(path).c_devices == 2

    @pytest.mark.parametrize("line", ["tau = -1", "f_e = 0", "C_devices = -2"])
    def test_value_outside_its_domain_is_a_config_error(self, tmp_path, line):
        path = tmp_path / "p.profile"
        path.write_text(f"{line}\n")
        with pytest.raises(ConfigError) as e:
            parse_profile(path)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("line", ["C_devices = nan", "C_devices = inf", "C_devices = 2.5",
                                      "tau = nan", "t_data = inf", "tau = -1"])
    def test_cli_rejects_the_profile_with_a_usage_error(self, tmp_path, capsys, line):
        from spa.cli import EXIT_USAGE, main

        path = tmp_path / "p.profile"
        path.write_text(f"{line}\n")
        assert main(["bench-latency", "--profile", str(path)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

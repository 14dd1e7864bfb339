"""Unit tests for machine configurations (Table 1 and study variants)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import ns_to_cycles
from repro.memory.params import CacheGeometry, MemoryParams
from repro.model.config import (
    OFF_CHIP_EXTRA_CYCLES,
    base_config,
    bht_4k_2w_1t,
    issue_2way,
    l1_32k_1w_3c,
    l2_off_8m_1w,
    l2_off_8m_2w,
    one_rs,
    prefetch_off,
)
from repro.core.params import RsOrganization


class TestTable1:
    """The base configuration must itemise exactly Table 1."""

    def test_issue_width(self):
        assert base_config().core.issue_width == 4

    def test_window(self):
        assert base_config().core.window_size == 64

    def test_l1_caches(self):
        config = base_config()
        assert config.l1i.size_bytes == 128 * 1024 and config.l1i.ways == 2
        assert config.l1d.size_bytes == 128 * 1024 and config.l1d.ways == 2

    def test_l1d_banking(self):
        config = base_config()
        assert config.l1d.banks == 8
        assert config.l1d.bank_bytes == 4

    def test_l2(self):
        config = base_config()
        assert config.l2.size_bytes == 2 * 1024 * 1024
        assert config.l2.ways == 4

    def test_bht(self):
        config = base_config()
        assert config.bht.entries == 16 * 1024
        assert config.bht.ways == 4
        assert config.bht.access_latency == 2

    def test_units(self):
        core = base_config().core
        assert core.int_units == 2
        assert core.fp_units == 2
        assert core.eag_units == 2

    def test_reservation_stations(self):
        core = base_config().core
        assert core.rse_entries == 8 and core.rsf_entries == 8
        assert core.rsa_entries == 10 and core.rsbr_entries == 10
        assert core.rs_organization is RsOrganization.TWO_RS

    def test_rename_registers(self):
        core = base_config().core
        assert core.int_rename == 32 and core.fp_rename == 32

    def test_lsq(self):
        core = base_config().core
        assert core.load_queue == 16 and core.store_queue == 10

    def test_fetch_width(self):
        frontend = base_config().frontend
        assert frontend.fetch_group_bytes == 32
        assert frontend.fetch_width == 8

    def test_table1_renders(self):
        text = base_config().table1()
        assert "SPARC-V9" in text
        assert "4-way" in text
        assert "64 instructions" in text
        assert "16/10" in text


class TestVariants:
    def test_issue_2way(self):
        config = issue_2way()
        assert config.core.issue_width == 2

    def test_bht_variant(self):
        config = bht_4k_2w_1t()
        assert config.bht.entries == 4 * 1024
        assert config.bht.access_latency == 1

    def test_l1_variant(self):
        config = l1_32k_1w_3c()
        assert config.l1i.size_bytes == 32 * 1024 and config.l1i.ways == 1
        assert config.l1d.hit_latency == 3

    def test_off_chip_penalty_is_10ns(self):
        assert OFF_CHIP_EXTRA_CYCLES == ns_to_cycles(10.0) == 13
        base = base_config()
        off = l2_off_8m_2w()
        assert off.l1_l2_bus.latency == base.l1_l2_bus.latency + 13

    def test_off_chip_sizes(self):
        assert l2_off_8m_2w().l2.size_bytes == 8 * 1024 * 1024
        assert l2_off_8m_2w().l2.ways == 2
        assert l2_off_8m_1w().l2.ways == 1

    def test_off_chip_narrower_interface(self):
        base = base_config()
        off = l2_off_8m_2w()
        assert off.l1_l2_bus.bytes_per_cycle < base.l1_l2_bus.bytes_per_cycle

    def test_prefetch_off(self):
        assert not prefetch_off().prefetch.enabled
        assert base_config().prefetch.enabled

    def test_one_rs(self):
        assert one_rs().core.rs_organization is RsOrganization.ONE_RS

    def test_variants_leave_base_untouched(self):
        base = base_config()
        issue_2way(base)
        l1_32k_1w_3c(base)
        assert base.core.issue_width == 4
        assert base.l1i.size_bytes == 128 * 1024


class TestValidation:
    """Cross-component checks reject machines that cannot exist.

    Each test drives exactly one rejection through ``derived()`` so
    the error message — which must name the config — is also checked.
    """

    def test_all_factories_validate(self):
        for factory in (
            base_config,
            issue_2way,
            bht_4k_2w_1t,
            l1_32k_1w_3c,
            l2_off_8m_2w,
            l2_off_8m_1w,
            prefetch_off,
            one_rs,
        ):
            factory()  # __post_init__ runs validate(); must not raise

    def test_l2_line_must_cover_l1_line(self):
        # Wider or narrower, an L1 line that differs from the L2 line is
        # rejected here, before build_hierarchy could be reached.
        base = base_config()
        for l1_line in (128, 32):
            with pytest.raises(ConfigError, match="broken-lines.*must equal"):
                base.derived(
                    "broken-lines",
                    l1d=base.l1d.scaled(name="L1D-odd", line_bytes=l1_line),
                )

    def test_l2_must_be_at_least_l1_sized(self):
        base = base_config()
        with pytest.raises(ConfigError, match="tiny-l2.*inclusion"):
            base.derived(
                "tiny-l2",
                l2=base.l2.scaled(name="L2-64k", size_bytes=64 * 1024),
            )

    def test_l2_cannot_be_faster_than_l1(self):
        base = base_config()
        with pytest.raises(ConfigError, match="fast-l2.*inverted"):
            base.derived(
                "fast-l2",
                l2=base.l2.scaled(name="L2-fast", hit_latency=2),
            )

    def test_memory_slower_than_l2(self):
        base = base_config()
        with pytest.raises(ConfigError, match="fast-mem.*memory latency"):
            base.derived("fast-mem", memory=MemoryParams(latency=5))

    def test_fetch_must_feed_issue(self):
        base = base_config()
        with pytest.raises(ConfigError, match="starved.*fetch width"):
            base.derived("starved", core=base.core.derived(issue_width=16))

    def test_commit_within_window(self):
        base = base_config()
        with pytest.raises(ConfigError, match="wide-commit.*window"):
            base.derived(
                "wide-commit",
                core=base.core.derived(window_size=8, commit_width=16),
            )

    def test_component_errors_still_surface(self):
        # Per-component __post_init__ checks fire before the
        # cross-component pass and keep their own messages.
        with pytest.raises(ConfigError, match="line_bytes"):
            CacheGeometry("bad", 64 * 1024, 2, line_bytes=48)
        with pytest.raises(ConfigError, match="positive"):
            CacheGeometry("bad", 0, 2)

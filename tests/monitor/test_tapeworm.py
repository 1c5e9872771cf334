"""Tests for the Tapeworm miss-event-driven TLB simulator."""

import numpy as np
import pytest

from repro.core.configs import TlbConfig
from repro.memsim.multiconfig import dedupe_consecutive
from repro.memsim.stackdist import StreamingStackDistance
from repro.monitor.tapeworm import Tapeworm
from repro.units import PAGE_SHIFT, VPN_BITS


class TestTapeworm:
    def test_reports_per_config(self, mach_trace):
        configs = [TlbConfig(64, "full"), TlbConfig(256, 4)]
        reports = Tapeworm(configs, warmup_fraction=0.3).run(mach_trace)
        assert [r.config for r in reports] == configs
        assert all(r.accesses == reports[0].accesses for r in reports)

    def test_bigger_fa_tlb_never_misses_more(self, mach_trace):
        configs = [TlbConfig(n, "full") for n in (32, 64, 128, 256)]
        reports = Tapeworm(configs, warmup_fraction=0.3).run(mach_trace)
        misses = [r.user_misses + r.kernel_misses for r in reports]
        assert misses == sorted(misses, reverse=True)

    def test_matches_stack_engine(self, mach_trace):
        """Tapeworm's event-driven counting must agree with the
        single-pass stack engine (the paper cross-validated its tools
        the same way)."""
        trace = mach_trace
        config = TlbConfig(64, "full")
        reports = Tapeworm([config], warmup_fraction=0.0).run(trace)

        mapped_idx = np.flatnonzero(trace.mapped)
        vpns = trace.addresses[mapped_idx] >> PAGE_SHIFT
        ids = (trace.asids[mapped_idx].astype(np.int64) << VPN_BITS) | vpns
        (deduped,) = dedupe_consecutive(ids)
        flags = StreamingStackDistance(1, 64).feed(deduped) == 64
        assert reports[0].user_misses + reports[0].kernel_misses == int(flags.sum())

    def test_service_time_weights_kernel_misses(self, mach_trace):
        config = TlbConfig(64, "full")
        report = Tapeworm([config], warmup_fraction=0.3).run(mach_trace)[0]
        cheap = report.service_cycles(user_penalty=20, kernel_penalty=20)
        expensive = report.service_cycles(user_penalty=20, kernel_penalty=400)
        if report.kernel_misses:
            assert expensive > cheap

    def test_service_seconds_scaling(self, mach_trace):
        config = TlbConfig(64, "full")
        report = Tapeworm([config], warmup_fraction=0.3).run(mach_trace)[0]
        assert report.service_seconds(scale=2.0) == pytest.approx(
            2 * report.service_seconds(scale=1.0)
        )

    def test_other_events_carried_from_trace(self, mach_trace):
        config = TlbConfig(64, "full")
        report = Tapeworm([config]).run(mach_trace)[0]
        assert report.other_events == mach_trace.page_faults

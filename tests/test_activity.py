"""Tests for repro.workload.activity."""

import hashlib
import os

import numpy as np
import pytest

import repro.utils.ckernel as ckernel
from repro.floorplan.blocks import UnitKind
from repro.workload.activity import _ar1_inplace, generate_activity
from repro.workload.benchmarks import benchmark_names, get_benchmark
from tests.conftest import disable_kernel

#: SHA-256 of ``activity`` then ``gate`` bytes of ``generate_activity``
#: on the paper floorplan (8 cores, 240 blocks) at ``rng=0`` and 200
#: steps, per (benchmark, gating scope), recorded when the AR(1)
#: fluctuation still ran through ``scipy.signal.lfilter`` one trace at
#: a time.  Every dataset is built from these traces, so a digest that
#: moves means every downstream sensor set may move.
PAPER_DIGESTS = {
    ("blackscholes", "unit"): "b800eec41e9776582855b4dbc78e53c8017afca703b7a1acaf1eebf891f0e4ed",
    ("blackscholes", "core"): "ecb6691d541a8344154f8916d3261c9462cc7f97a3cd32481dd6ec76981c56ba",
    ("bodytrack", "unit"): "8cf15cf3ccc7c9ebf87835664e7ff237a0483c6d86f2bd7bff73316db800db23",
    ("bodytrack", "core"): "073b05c1dcddf35f9e24ecbc1621d23677b5dd9afa5f56bdfce269f241d973e4",
    ("canneal", "unit"): "d456a55ca5e01c22d9797212252709dfaa63ba21023640aa47b7760fe90a6dc3",
    ("canneal", "core"): "aa9171e6396012770942cd2d19e5af3bc741f4694c0b627fd7bf8ea763028f76",
    ("dedup", "unit"): "9e39422d707ce4baab3044215a02ea4a52fba06ccc95bfd028b17861dc629c48",
    ("dedup", "core"): "5cd88aadefe5e0e3a03e5a2db3bb8ba6c42dc9d99e969fe47c5d4df10e1cf871",
    ("facesim", "unit"): "e69f8d39a8f2285d5b1b6a894d029f4c0d67ade45f2a0be28607d37fc433882b",
    ("facesim", "core"): "7eb752a0667d2e31464e9eb2852866e62fb8be0c3f6e4170da4a45a8c1e14d38",
    ("ferret", "unit"): "bd1e9e8fb7d55409e0f6d937ba789a5c084790a2cd2332a49723b552977c01a4",
    ("ferret", "core"): "b8cf51e3de8cbdf3049b17119db38e8064c494140c4e4a6efaa82377b9617998",
    ("fluidanimate", "unit"): "d482dc94a696f37be541c3340110ebc594c50979957e3fe9efec3fb7ba7575fe",
    ("fluidanimate", "core"): "9b32043679723a831bb52183652978a2385ecdd7b6cf287af1e247209b52e554",
    ("freqmine", "unit"): "447a91964facc7d19e302e1ad7e30848ee973a11ba03c31652812a3764e38cd5",
    ("freqmine", "core"): "cb6f36f77f436dc48a1855c313b57024fc47c0cb3334efb82a46fdceb88109a2",
    ("raytrace", "unit"): "ffcfd1bff98aae11add2b2cda839f48ea449c4dbb14479f49c21a357afc86709",
    ("raytrace", "core"): "555204583038bbd02d2c9195c51b8e2c79edad0a935389534b12e3a7dbbcb0e2",
    ("streamcluster", "unit"): "a563d0c04dbdb2b09f34c595ac35d740c19fb08b1b52c065e0bf07bc6b5a99e7",
    ("streamcluster", "core"): "da214129ceca313beff9747c005b628b566c677030fa34bcd4301ee887f82f10",
    ("swaptions", "unit"): "b03a237b7370b45c8a86a40d7e2b14028efc002e8f979c6c1c5dacd9c958be0b",
    ("swaptions", "core"): "4ac8850e1bbfaab4de7de3eaf83ad3a0c7b88b9023479c74e4298e08e1f2fc07",
    ("vips", "unit"): "3d103b7f5777a1632808bba84ea590520bb7f470a123525e193733bca3e561f0",
    ("vips", "core"): "bafc203653329d4162b225f36236d36729e469e49141ba83ab9f79ae8a345980",
    ("x264", "unit"): "80c9a0ba9b031f8a5a92f13bc89a082ebede6aaa46aaa20db95f966dcc4112da",
    ("x264", "core"): "30d5f439e990a747339964667e481a80c790e3cd45ee4df8fff32540978a984f",
    ("barnes", "unit"): "9cde6fccb429ab6227045090f7e4d1805226f8bd31258a9ccd40e2e6947f5c08",
    ("barnes", "core"): "f9c3767dccd0ca0a1dfe8ccc838fd4724a1be940999bb6f6e591598a2e0c9988",
    ("fmm", "unit"): "f7781cad14c402573081390952d17c9e7e5fb41df9a9d7e9c686bcea4e3223db",
    ("fmm", "core"): "fa5f8fb1d7c962c54369713f27c0946318b5c847a5f67ae3db457e7dc2f8020a",
    ("ocean", "unit"): "49069a231b50d786c12ec6d154cd37bdab698e03e1332f0edc54e1666a054554",
    ("ocean", "core"): "a9fd976632d803d08bd2f1e6c131906f1938e843d88607e765f65260d96c9189",
    ("radix", "unit"): "cd6d1eb577a409f76292f3ddc2c11a706de2da1c95b1357d24b2350c6c9dfdd8",
    ("radix", "core"): "302089d37a29c68036925faf680cad92a75224714460a176c21c21d77bae4194",
    ("lu", "unit"): "677d4b97e5573a5af88011e599c3e8a57cb2873d674b30a4e9148414fbc1507a",
    ("lu", "core"): "dfade2c536f73dfb0ed453dc87926be39221d50d9ee6b4295fbbb219ceb95abf",
    ("cholesky", "unit"): "7492421787e86d55ddbae83306d68133f286b72fb1820134ac58cecfbe15c739",
    ("cholesky", "core"): "42bb227218031ce16d37a46706ebccc7b73770d9ec46496edb7abc80534ce089",
}

#: The same digest on the 2-core small floorplan at ``rng=0``:
#: (benchmark, n_steps, gating scope) -> digest.
SMALL_DIGESTS = {
    ("x264", 1, "unit"): "0114d99a5e10f7beda5cdf0d00fb878048625bfcd62803e04164d77542016ea1",
    ("canneal", 1300, "core"): "cf3f5215107fc0a482d966b9aa0885b678e08333ffc022071f4fb6901ee4cab2",
}


@pytest.fixture
def compiled_kernel():
    """The compiled library, or a skip where the environment disables it."""
    if os.environ.get(ckernel.DISABLE_ENV_VAR):
        pytest.skip("the compiled kernel is disabled in this environment")
    handle = ckernel.get_lib()
    # The suite requires a C compiler (as test_batched_engine's
    # test_kernel_compiles_here does); a silent fallback would turn
    # every kernel case into a second numpy case.
    assert handle is not None
    return handle


@pytest.fixture(params=["kernel", "numpy"])
def kernel_path(request, monkeypatch):
    """Run the test on the compiled AR(1) kernel, then on the numpy loop."""
    if request.param == "numpy":
        disable_kernel(monkeypatch)
    else:
        request.getfixturevalue("compiled_kernel")
    return request.param


def traces_digest(traces):
    digest = hashlib.sha256(traces.activity.tobytes())
    digest.update(traces.gate.tobytes())
    return digest.hexdigest()


class TestActivityBits:
    def test_tables_cover_every_benchmark(self):
        assert sorted(PAPER_DIGESTS) == sorted(
            (name, scope) for name in benchmark_names() for scope in ("unit", "core")
        )

    @pytest.mark.parametrize("case", sorted(PAPER_DIGESTS), ids="-".join)
    def test_paper_floorplan(self, xeon_floorplan, kernel_path, case):
        name, scope = case
        traces = generate_activity(
            xeon_floorplan, get_benchmark(name), 200, rng=0, gating_scope=scope
        )
        assert traces_digest(traces) == PAPER_DIGESTS[case]

    @pytest.mark.parametrize(
        "case", sorted(SMALL_DIGESTS), ids=lambda case: "-".join(map(str, case))
    )
    def test_small_floorplan(self, small_floorplan, kernel_path, case):
        name, n_steps, scope = case
        traces = generate_activity(
            small_floorplan, get_benchmark(name), n_steps, rng=0, gating_scope=scope
        )
        assert traces_digest(traces) == SMALL_DIGESTS[case]


class TestAR1Kernel:
    @pytest.mark.parametrize("n_series", [1, 64])
    @pytest.mark.parametrize("n_steps", [1, 2, 1300])
    def test_kernel_equals_numpy_loop(self, compiled_kernel, n_steps, n_series):
        x = np.random.default_rng(n_steps * 131 + n_series).standard_normal(
            (n_steps, n_series)
        )
        ref, got = x.copy(), x.copy()
        _ar1_inplace(ref, 0.7)
        _ar1_inplace(got, 0.7, kernel=compiled_kernel)
        assert np.array_equal(ref.view(np.int64), got.view(np.int64))

    @pytest.mark.parametrize(
        "x",
        [np.zeros((4, 3), dtype=np.float32), np.zeros((3, 4)).T, np.zeros(5)],
        ids=["float32", "f-ordered", "1-d"],
    )
    def test_rejects_what_the_kernel_would_misread(self, x):
        with pytest.raises(ValueError, match="C-ordered 2-D float64"):
            _ar1_inplace(x, 0.7, kernel=ckernel.get_lib())

    def test_numpy_loop_is_the_recurrence(self):
        x = np.array([[1.0, -2.0], [0.5, 0.0], [0.25, 1.0]])
        _ar1_inplace(x, 0.5)
        assert np.array_equal(x, [[1.0, -2.0], [1.0, -1.0], [0.75, 0.5]])


class TestGenerateActivity:
    def test_shapes_and_order(self, small_floorplan):
        spec = get_benchmark("x264")
        traces = generate_activity(small_floorplan, spec, 100, rng=0)
        assert traces.activity.shape == (100, 12)
        assert traces.gate.shape == (100, 12)
        assert traces.block_names == [b.name for b in small_floorplan.blocks]
        assert traces.benchmark == "x264"

    def test_activity_in_unit_interval(self, small_floorplan):
        traces = generate_activity(
            small_floorplan, get_benchmark("canneal"), 300, rng=1
        )
        assert traces.activity.min() >= 0.0
        assert traces.activity.max() <= 1.0

    def test_gate_ones_for_ungateable(self, small_floorplan):
        traces = generate_activity(
            small_floorplan, get_benchmark("x264"), 400, rng=2
        )
        for j, blk in enumerate(small_floorplan.blocks):
            if not blk.gateable:
                assert np.all(traces.gate[:, j] == 1.0)

    def test_gateable_blocks_do_gate(self, small_floorplan):
        # With a high gating rate some gateable block must gate sometime.
        spec = get_benchmark("x264")  # gating_rate 0.028
        traces = generate_activity(small_floorplan, spec, 2000, rng=3)
        gateable = [j for j, b in enumerate(small_floorplan.blocks) if b.gateable]
        assert traces.gate[:, gateable].min() < 1.0

    def test_deterministic(self, small_floorplan):
        spec = get_benchmark("ferret")
        a = generate_activity(small_floorplan, spec, 50, rng=42)
        b = generate_activity(small_floorplan, spec, 50, rng=42)
        assert np.array_equal(a.activity, b.activity)
        assert np.array_equal(a.gate, b.gate)

    def test_affinity_orders_mean_activity(self, xeon_floorplan):
        # FPU-heavy benchmark: FPU blocks more active than L2 blocks.
        spec = get_benchmark("swaptions")  # fpu 0.85, l2 0.2
        traces = generate_activity(
            xeon_floorplan, spec, 600, rng=4, core_coupling=0.0
        )
        act = traces.activity
        fpu_cols = [
            j for j, b in enumerate(xeon_floorplan.blocks) if b.unit == UnitKind.FPU
        ]
        l2_cols = [
            j
            for j, b in enumerate(xeon_floorplan.blocks)
            if b.unit == UnitKind.L2_CACHE
        ]
        assert act[:, fpu_cols].mean() > act[:, l2_cols].mean() + 0.2

    def test_same_unit_blocks_correlated(self, xeon_floorplan):
        spec = get_benchmark("x264")
        traces = generate_activity(xeon_floorplan, spec, 500, rng=5)
        exe_cols = [
            j
            for j, b in enumerate(xeon_floorplan.blocks)
            if b.unit == UnitKind.EXECUTION and b.core_index == 0
        ]
        a, b = traces.activity[:, exe_cols[0]], traces.activity[:, exe_cols[1]]
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.7

    def test_core_coupling_increases_cross_unit_correlation(self, xeon_floorplan):
        spec = get_benchmark("ferret")

        def cross_unit_corr(coupling):
            traces = generate_activity(
                xeon_floorplan, spec, 600, rng=6, core_coupling=coupling
            )
            cols = {
                unit: next(
                    j
                    for j, b in enumerate(xeon_floorplan.blocks)
                    if b.unit == unit and b.core_index == 0
                )
                for unit in (UnitKind.EXECUTION, UnitKind.L2_CACHE)
            }
            a = traces.activity[:, cols[UnitKind.EXECUTION]]
            b = traces.activity[:, cols[UnitKind.L2_CACHE]]
            return np.corrcoef(a, b)[0, 1]

        assert cross_unit_corr(0.9) > cross_unit_corr(0.0) + 0.2

    def test_core_gating_scope_shares_channel(self, small_floorplan):
        spec = get_benchmark("x264")
        traces = generate_activity(
            small_floorplan, spec, 1500, rng=7, gating_scope="core"
        )
        gateable = [
            j
            for j, b in enumerate(small_floorplan.blocks)
            if b.gateable and b.core_index == 0
        ]
        # All gateable blocks of a core share one gate trace exactly.
        for j in gateable[1:]:
            assert np.array_equal(traces.gate[:, j], traces.gate[:, gateable[0]])

    def test_effective_activity(self, small_floorplan):
        traces = generate_activity(
            small_floorplan, get_benchmark("x264"), 100, rng=8
        )
        assert np.allclose(
            traces.effective_activity(), traces.activity * traces.gate
        )

    def test_rejects_bad_args(self, small_floorplan):
        spec = get_benchmark("x264")
        with pytest.raises(ValueError):
            generate_activity(small_floorplan, spec, 0)
        with pytest.raises(ValueError):
            generate_activity(small_floorplan, spec, 10, core_coupling=1.5)
        with pytest.raises(ValueError):
            generate_activity(small_floorplan, spec, 10, gating_scope="chip")

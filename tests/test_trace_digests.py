"""Every trace a run records, frozen by SHA-256: the iterates, the reporting
columns, the potential, k, the tallies (without wall_ns), every snapshot
entry with its type and the meta. A change to how the recorder holds its
records must leave each digest as it is."""

import hashlib
import struct

import numpy as np
import pytest

from accelib import certify, cli, extrapolation, momentum, oracles, prox_outer, restart, trace


def _canon(obj):
    """Bytes that tell obj apart by type and value: a float by its 8 bytes, an
    array by dtype, shape and bytes, a mapping by its sorted items, anything
    else by its repr."""
    name = type(obj).__name__.encode() + b":"
    if isinstance(obj, float):
        return name + struct.pack("<d", obj)
    if isinstance(obj, np.ndarray):
        return name + f"{obj.dtype.str}{obj.shape}".encode() + obj.tobytes()
    if isinstance(obj, dict) or hasattr(obj, "keys"):
        return name + b"{" + b",".join(_canon(k) + b"=" + _canon(obj[k])
                                       for k in sorted(obj)) + b"}"
    if isinstance(obj, (list, tuple)):
        return name + b"[" + b",".join(map(_canon, obj)) + b"]"
    return name + repr(obj).encode()


def digest(tr):
    h = hashlib.sha256()
    for part in (tr.method, tr.x, tr.f_gap, tr.grad_norm, tr.dist_opt, tr.potential,
                 list(tr.k), [t[:3] + t[4:] for t in tr.tallies],
                 [dict(s) for s in tr.states], tr.meta):
        h.update(_canon(part))
    return h.hexdigest()


def _cli(method, spec, seed, N=30, **flags):
    def run():
        argv = ["run", "--method", method, "--problem", spec, "--N", str(N),
                "--seed", str(seed)]
        for flag, value in flags.items():
            argv += [f"--{flag}", str(value)]
        args = cli.build_parser().parse_args(argv)
        oracle, problem, x0 = cli._setup(args)
        entry = cli.METHODS[method]
        return entry.run(args, problem if entry.composite else oracle, x0)

    return run


def _quadratic(d=6, seed=4):
    rng = np.random.default_rng(seed)
    p = oracles.make_quadratic(np.linspace(0.1, 10.0, d), rng.standard_normal(d), seed=seed)
    return p, rng.standard_normal(d)


def _library():
    p, x0 = _quadratic()
    big, x1 = _quadratic(d=20, seed=8)
    cases = {
        "catalyst-long": lambda: prox_outer.catalyst(big, "gd", 0.5, 600, x1),
        "fixed_restart": lambda: restart.fixed_restart(p, "fgm", 23, x0, 7, L=10.0),
        "fixed_restart-gd": lambda: restart.fixed_restart(p, "gd", 5, x0, 4, gamma=0.1),
        "grid_restart": lambda: restart.grid_restart(p, 10.0, x0, 16),
        "online_rna": lambda: extrapolation.online_rna(p, x0, 0.1, 1e-8, 5, 30,
                                                       safeguard="descent"),
        "online_rna-none": lambda: extrapolation.online_rna(p, x0, 0.1, 0.0, 3, 12),
    }
    for N in (0, 1):
        cases[f"ogm-N{N}"] = lambda N=N: momentum.ogm(p, x0, N)
        cases[f"ogm-II-N{N}"] = lambda N=N: momentum.ogm(p, x0, N, form="II")
    return cases


def _cases():
    cases = {}
    for spec in ("quad:d=5", "huber:d=3", "lasso:d=6"):
        for seed in (0, 1):
            for method in cli.METHODS:
                cases[f"{method}-{spec}-{seed}"] = _cli(method, spec, seed)
    for method, form in (("ogm", "II"), ("fgm", "II"), ("fgm", "III"),
                         ("constant_momentum", "II")):
        cases[f"{method}-{form}"] = _cli(method, "quad:d=5", 0, form=form)
    for mode in ("reset", "decrease"):
        cases[f"fista-{mode}"] = _cli("fista", "lasso:d=6", 1, mode=mode)
    cases.update(_library())
    return cases


CASES = _cases()

# case -> the digest of its trace, or the name of the error the run raises;
# frozen before snapshots were written into typed columns at record time
DIGESTS = {
    "catalyst-huber:d=3-0":
        "56c06f5274e234b9076a74d5e33dfca88a597520568d66e8f4e0a3134b9db909",
    "catalyst-huber:d=3-1":
        "2b7cbf1dfb7008417d02c87fc47ddd94579a0e2d9cd9aa0e7dcf4cfb0c6ff9a0",
    "catalyst-lasso:d=6-0":
        "e5acd1204ec66f88a64b1a977f342ef42af8b7fb92e351de19bee5c71c68a391",
    "catalyst-lasso:d=6-1":
        "2b12d20ac5c8d74b9922dd1965bfc97e7613fcdf7bd72d38614435e6f98f8254",
    "catalyst-long":
        "83bf7761b4ddbb130df1e28a44db1712794b9797032bba14db2901e662659636",
    "catalyst-quad:d=5-0":
        "be75b9a79f27da0aaaf592292c8d495948120f4fe725837c66e500a803e1c15f",
    "catalyst-quad:d=5-1":
        "c0f84e3cb93476a40bfd8687e71dec24c6732685b5259e4904928d6756aafe1f",
    "cg-huber:d=3-0":
        "UnsupportedOracle",
    "cg-huber:d=3-1":
        "UnsupportedOracle",
    "cg-lasso:d=6-0":
        "61c851edf99ae8c6af87531e6795b8d88d682889a5865d789121ce479b33e513",
    "cg-lasso:d=6-1":
        "781a0208e0a918f8b6933d6613500783b237d1d00d91744fad1611ee64e70900",
    "cg-quad:d=5-0":
        "486d8167cbbbfc2680c131ff2ca8f630f9fd59209ae1686616da0507a7a7b5b0",
    "cg-quad:d=5-1":
        "4f22efefdb6ed2e311d5e53904c9ffff62075f100d06a44db46067ca67d9c540",
    "chebyshev-huber:d=3-0":
        "InvalidArgument",
    "chebyshev-huber:d=3-1":
        "InvalidArgument",
    "chebyshev-lasso:d=6-0":
        "79b7c53b18ec028e6cd8739252e2f8de1f6a16e97af65f5f6ff8c064b68cdc38",
    "chebyshev-lasso:d=6-1":
        "bb2a2d6a68bf417dbc566e4a9ea498a91af4b23326b1b0b9986311b627f879f5",
    "chebyshev-quad:d=5-0":
        "fb42018c2e52d4477f0607a2be0f4d0dd0b34a08692e9056827ab74de29c1d76",
    "chebyshev-quad:d=5-1":
        "ed75e341b9c8a521dd37e78101013c07f42eb93091ac709e951301fc296daeeb",
    "constant_momentum-II":
        "a71b1d7e7a9b98b4d16e1d09316ada3c1a0d5ed9b28bcc974a0d748623d044f0",
    "constant_momentum-huber:d=3-0":
        "InvalidArgument",
    "constant_momentum-huber:d=3-1":
        "InvalidArgument",
    "constant_momentum-lasso:d=6-0":
        "935c54074db6b552bdf5d1ac4ef75ce6a7822ccd15b6b8060621ec9311d291e4",
    "constant_momentum-lasso:d=6-1":
        "a1965cc12ab757f44484fa1ddf9c0a356b13da236800f2de988e397351210439",
    "constant_momentum-quad:d=5-0":
        "247d1fa5173c8a21380a7a43abb02027a0c6f6d7e82c102bd83a781efaeb4ee4",
    "constant_momentum-quad:d=5-1":
        "3b26dcb564fd43f3078ff0b8e03ce2c73e73466ef350fdab2dbf36ed0f38608b",
    "fgm-II":
        "eccbf52bfc68f17c487bf6cd477b9bc7b0ff0a336deb35093bd3a0ed0b5de744",
    "fgm-III":
        "e475e3c6714ef02ad8b407de4a471c87c5000161cfe7e4fae732a93875e6ab25",
    "fgm-huber:d=3-0":
        "e3524b39567b96b40e97f3f4f95213e42f33aa897b5f2f613631445410fdc85a",
    "fgm-huber:d=3-1":
        "3ee6d3ea10ccd85b12c5dd66773e01b5e70ed785296e9819e72585c1f5e00dcf",
    "fgm-lasso:d=6-0":
        "ef02fe3fa928f92de73d3b19391eef6761f1c503282bc26b1c441e3ca5289ce9",
    "fgm-lasso:d=6-1":
        "1afec9347e494b63d377f39344df8935f73b9a8b94870e2efb238caec7f50b16",
    "fgm-quad:d=5-0":
        "35c00fd919828a8ec60a66e55ff4da9bb91e6a83ebc9a05df190cbede2185f2c",
    "fgm-quad:d=5-1":
        "3c9babdbbef59455e0f273db0541d66f8b452b1ae6b9008a52d539ccf8a04512",
    "fista-decrease":
        "cf4eeee2eca5d68ee1f797cf624d3701131176afc45118e3946cb619fbe15027",
    "fista-huber:d=3-0":
        "837c3ab01a859dfee61f53225175a19c1b547346003c163c68737fffb380685c",
    "fista-huber:d=3-1":
        "2bf531d9cc333747cc115c93b04ed034e01a417e9f8eba53611254bb62f4fc84",
    "fista-lasso:d=6-0":
        "91e75d3b10f7ac8de03ad9fc936499920e90d43a076e729de063cf9d1e91d643",
    "fista-lasso:d=6-1":
        "58e2aa74ce905180c5fab1b3bf5405ee813fab0841af4c4c71450bcbbb3f210e",
    "fista-quad:d=5-0":
        "09b88a39a503eaa87f6e47ace3383f05d4cc56d7d5f51e680876613d391ccd4b",
    "fista-quad:d=5-1":
        "b9e09201a4830709718e4cd64c979aca1189db400293f4bf627a5d38c6691ae5",
    "fista-reset":
        "26840e8aaefc1cef03a664f0299b6d52c89fea60ee0542e4b0c00c819e7511b0",
    "fixed_restart":
        "b9d9bf0c1285ca9664949b186e48fa899b6dfa4afcc3042a70686455734268cb",
    "fixed_restart-gd":
        "24c28d56b1921a9bbf24f8701ebb9120ddd9d613a1ed0547e77f191a3e4d7477",
    "gd-huber:d=3-0":
        "ca41ce447ea47cb9919849156238e98b3c634877a2669d3e283d3742711be6cd",
    "gd-huber:d=3-1":
        "bbe4c4b2c9e0524cdbd8facb4e63a5dd850bb02f7c4aa231d1d240974adc14bb",
    "gd-lasso:d=6-0":
        "689cfc87c1aef767bd42d92f8a7a8532b4803c3566c6c562ae601a3d91ed8595",
    "gd-lasso:d=6-1":
        "2467c39518ae3f424271e0e1c9d05b38aeab308ac7603edea4e2efaa2c50bf3d",
    "gd-quad:d=5-0":
        "cb4e8ac137f607cbd057cde81b63e1dc6af0f78e169868f134a3baa49ee9f8fc",
    "gd-quad:d=5-1":
        "ddf73f640f9463c5c631e3ce4c9cb132034d8d92d57ab6af86684ad606113a56",
    "grid_restart":
        "bdaea54db4b58e1f73c020c953308484f16959912860e25e9cb2b2b795e71016",
    "heavy_ball-huber:d=3-0":
        "InvalidArgument",
    "heavy_ball-huber:d=3-1":
        "InvalidArgument",
    "heavy_ball-lasso:d=6-0":
        "bd143f114e66d0ea3b064e22e687f0bb7fc8c74e73b1b911ccc1762c6b80cc6b",
    "heavy_ball-lasso:d=6-1":
        "8ae914bd9f15a662327e249065ff1375b8a082de21ef1756f927af73bfb52375",
    "heavy_ball-quad:d=5-0":
        "6d3059d1e454856d9129dc2b9f00f3edb490cd7ee26aeeb7d97b1f391681e3f5",
    "heavy_ball-quad:d=5-1":
        "e5a3fdb6d961bb491ce3c51a18bb2bf4a22ed6c3f6366124a8875617d6c7c34c",
    "item-huber:d=3-0":
        "6c23686ac0eb313f2b09e60a476f610464417e262f320a8866eb47f2ed4d88fb",
    "item-huber:d=3-1":
        "84e08cec64871386a38153b8b19d9d845ad06adf6d790b58ac0a371fd46bf099",
    "item-lasso:d=6-0":
        "16264f977d1f8baa15fe50d498e22e78b44fdba80e2452910ebfd49744bc1254",
    "item-lasso:d=6-1":
        "1ad62ba9ec9a4a1c4f85fc2ce69655fc0d046de04bd446f3af52a1e6aefdcfb4",
    "item-quad:d=5-0":
        "d3261d6a7373637ba97df27856b355f19c4a7d82542b636f70e4f1f16c30b76e",
    "item-quad:d=5-1":
        "a41e9b4290b246ee3f87ded8bfadf469b9363fb5a7add5d1f35a43ad6dc597bb",
    "ogm-II":
        "5d143981f26e44eb4161f9d78db9e7684532c3e10b7ee4e5dcb475bbbc89a8cb",
    "ogm-II-N0":
        "6775bdb659e822a0a3ec32b86a440ff356f45851094a9ac54dd6c3120d391af0",
    "ogm-II-N1":
        "a73b5fd642b12eab58bfdc21186899e84f2548440f57736499288c243ceebbd4",
    "ogm-N0":
        "ca0153c1a1ff1d5ef882a925aaf6c8df855f7ff3c571e3f40f32dd00275a0eb7",
    "ogm-N1":
        "b1a4e45db82270148b3255afacd4f62c446c306471cf9d2df9285a1cb199b97a",
    "ogm-huber:d=3-0":
        "d9f3f437fff121f6359edd08a652a237fb4e90af43f9e1e80cf04876963b7af2",
    "ogm-huber:d=3-1":
        "f84907f80d9b2c202323ebbdafeacdab9fcf96b60bf8dc1f1a049940ac4e4c35",
    "ogm-lasso:d=6-0":
        "37eb9961d492e942d780937f5c7715e4b006ff750161366f4ff816f0d8c21ccd",
    "ogm-lasso:d=6-1":
        "1e90f714f4843bfbe0d582d9c1fda67c85ae24e1e1a44d176f26c508b8ef6f7e",
    "ogm-quad:d=5-0":
        "7c5837f675703154b77b28f7f8f6bc1c2fb471bb3f8f83fc737f00e8a3d3481d",
    "ogm-quad:d=5-1":
        "239d84a1af737d3def97a1a58d0e14429b18069a42e415dd425522353c23a29a",
    "online_rna":
        "611854130c69ce10d4e168a268f12f9c498154675b46fb7149414364bd850aa9",
    "online_rna-none":
        "7bebe149578b05022b510b0dadd4f7a21a7a4ce71acef33d415fc28b9ccb2b4d",
    "ppa-huber:d=3-0":
        "UnsupportedOracle",
    "ppa-huber:d=3-1":
        "UnsupportedOracle",
    "ppa-lasso:d=6-0":
        "23d5967ffefe42e1c0d13ebccc459940c7075ed5e5a822813e6637bd5df3536c",
    "ppa-lasso:d=6-1":
        "fb4445758d9c233a6d842afde13a2e9d7bb2933f9741ffb7fbc5420fdaccfb7c",
    "ppa-quad:d=5-0":
        "c52ff3f19488bb307708c9f113d2918e78521448ef6ce2ba64254d57dadf89a6",
    "ppa-quad:d=5-1":
        "a2d10efa7fbc559d04a5a481080558df6f2b12466b096c2c26ab024c01d26c6f",
    "prox_agm-huber:d=3-0":
        "b6f33420ad548136a79ca1a79367f7217d970bdea2afaf5b7419b5cedcb6cc1b",
    "prox_agm-huber:d=3-1":
        "e6b7aa3cc23434547013c2b02c5241c2b37291294c708644e30f26f67dbe58bb",
    "prox_agm-lasso:d=6-0":
        "1662dfc3c74ee91e28fd785b7950fcb3df36127370365a512c6a1d90c7487d7e",
    "prox_agm-lasso:d=6-1":
        "441797dbe7192ee4934bcbb6547e09694b487e8dabe14044e668dfc44f8ef806",
    "prox_agm-quad:d=5-0":
        "e783dc0825a02553db783f393ab0210d57b9519972e70eef5a02464da95551a9",
    "prox_agm-quad:d=5-1":
        "7cd1421925fdc8d0b12486b839a8a96afa7e42dc64522485c4e64e1eba1f4f2a",
    "tmm-huber:d=3-0":
        "InvalidArgument",
    "tmm-huber:d=3-1":
        "InvalidArgument",
    "tmm-lasso:d=6-0":
        "20ac9c8183477ec2b230f1e8bb032b3c8304c20343ac6e94b25e2e49725de271",
    "tmm-lasso:d=6-1":
        "b40eaacc32b70a44fcf7065fd4a71141a22d6a8aefc690aeb779d5866ada976b",
    "tmm-quad:d=5-0":
        "2356b1f43ad0ba2e8551ba50d95cc0768a97932548841de551b225d20e1acdfc",
    "tmm-quad:d=5-1":
        "815fe59e5d76382ec1a5468fa49614ddce01b61a848e89d6afadd43088923ed2",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_trace_keeps_its_frozen_digest(case):
    try:
        got = digest(CASES[case]())
    except Exception as exc:  # noqa: BLE001 - the error is what is frozen
        got = type(exc).__name__
    assert got == DIGESTS[case]


def test_a_trace_read_mid_run_keeps_the_digest_of_one_filled_once():
    # a Recorder fed a catalyst run's records (the growth path) and read
    # every 37 records ends as the run's own trace
    p, x0 = _quadratic(d=20, seed=8)
    source = prox_outer.catalyst(p, "gd", 0.5, 600, x0)
    rec = trace.Recorder(source.method, p, trace.Counters(), source.meta,
                         certify.potential_of("catalyst"))
    for i, (k, x, state) in enumerate(zip(source.k, source.x, source.states)):
        rec.record(k, x, state=state)
        if i % 37 == 0:
            rec.trace
    tr = rec.trace
    for name in ("x", "f_gap", "dist_opt", "potential"):
        assert getattr(tr, name).tobytes() == getattr(source, name).tobytes(), name
    assert _canon([dict(s) for s in tr.states]) == _canon([dict(s) for s in source.states])


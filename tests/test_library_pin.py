"""Bit-level pin of the library path that the text reports round away.

The CLI and `verify` reports print residuals as %.3e, so a change that
moved a residual in its last bits would keep every emitted byte.  These
tests pin, for the four surface/offset job shapes of the benchmark's
pipeline workload (default-seed parameters) at n = 2001:

* the frame-ODE residuals, both Mannheim residuals, the striction
  transport residual and every predicted-vs-recomputed row, as float.hex
  strings;
* the sha256 of the raw bytes of every array field of the base analysis,
  its invariants(), the constructed offset (theta_bar, e1, c1), the
  re-analyzed offset and the offset's invariants.  A maximum over samples
  misses last-bit drift at the other samples; these digests do not.
"""

import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest

from ruledgeom import catalog
from ruledgeom.offsets import OffsetSpec, verify_offset
from ruledgeom.surface import analyze, frame_ode_residual

N = 2001
SQ2 = math.sqrt(2.0)

JOBS = {
    "cone": (lambda: catalog.cone(
        math.pi / 4, (0.0, 2.5 / math.sin(math.pi / 4)), N),
        OffsetSpec.theorem(2.8, 0.7)),
    "small_circle": (lambda: catalog.small_circle(
        math.pi / 6, 1.0, (0.0, 2.5 / math.sin(math.pi / 6)), N),
        OffsetSpec.theorem(2.8, 1.0)),
    "hyperbolic_paraboloid": (lambda: catalog.hyperbolic_paraboloid(
        (-1.0, 1.0), N), OffsetSpec.constant(math.pi / 4, 2.0 * SQ2)),
    "helicoid": (lambda: catalog.helicoid(0.4, (0.0, 2 * math.pi), N),
                 OffsetSpec.constant(0.5, 1.0)),
}

PINNED = {
    "cone": {
        "frame_ode": ("0x1.3988e1409212ep-51",
                      "0x0.0p+0", "0x1.0000000000000p-52"),
        "mannheim": ("0x1.c56b4b9d0e902p-20", "0x1.ddf858c15c1bfp-19"),
        "transport": "0x1.9608d3c41fb4bp-52",
        "rows": [
            ("ds1/ds", "0x1.179ec0ec00000p-21", 1997),
            ("dsbar1/dsbar (dual part)", "0x1.75b0391e00000p-22", 1997),
            ("gamma1", "0x1.b97f3dce00000p-16", 1997),
            ("Delta1", "0x1.cb9c000000000p-37", 1997),
            ("delta1", "0x1.7313f4521a000p-14", 1997),
            ("R1 (real)", "0x1.2b3a867c80000p-19", 1997),
            ("R1 (dual)", "0x1.9033b00100000p-19", 1997),
            ("rho1 (angle)", "0x1.3976275340000p-19", 1997),
            ("rho1 (distance)", "0x1.5ec2aed880000p-19", 1997),
            ("d0_1 (real)", "0x1.397627533449cp-19", 1997),
            ("d0_1 (dual)", "0x1.5ec2aed876365p-19", 1997),
        ],
    },
    "small_circle": {
        "frame_ode": ("0x1.ad9f82de09ee8p-51",
                      "0x1.49d93405be849p-49", "0x1.0000000000000p-52"),
        "mannheim": ("0x1.88ac2f19d75cap-19", "0x1.11ff713ed3b5cp-15"),
        "transport": "0x1.1ea9df740296fp-50",
        "rows": [
            ("ds1/ds", "0x1.e450ee5a00000p-20", 1997),
            ("dsbar1/dsbar (dual part)", "0x1.a4d5dca300000p-18", 1997),
            ("gamma1", "0x1.b97e2f8a40000p-16", 1997),
            ("Delta1", "0x1.6b4af26000000p-20", 1997),
            ("delta1", "0x1.f63a8450ce000p-12", 1997),
            ("R1 (real)", "0x1.2b39cf4f80000p-19", 1997),
            ("R1 (dual)", "0x1.506ed27be0000p-16", 1997),
            ("rho1 (angle)", "0x1.3975676fc0000p-19", 1997),
            ("rho1 (distance)", "0x1.37c48eeae0000p-16", 1997),
            ("d0_1 (real)", "0x1.3975676fabffap-19", 1997),
            ("d0_1 (dual)", "0x1.37c48eeacb6f3p-16", 1997),
        ],
    },
    "hyperbolic_paraboloid": {
        "frame_ode": ("0x1.423146f65d06ap-49",
                      "0x1.f02107288e484p-49", "0x1.2000000000000p-51"),
        "mannheim": ("0x1.6a09e667f3bcfp+0", "0x1.c45e08b970ad8p+1"),
        "transport": "0x1.2a19c47848e6dp-49",
        "rows": [
            ("ds1/ds", "0x1.00000597a58a0p+0", 1997),
            ("dsbar1/dsbar (dual part)", "0x1.0c6f645168930p-21", 1997),
            ("gamma1", "0x1.0000000000001p+0", 1997),
            ("Delta1", None, 0),
            ("delta1", None, 0),
            ("R1 (real)", "0x1.2bec333018868p-2", 1997),
            ("R1 (dual)", "0x1.0000000000001p+1", 1997),
            ("rho1 (angle)", "0x1.921fb54442d18p-1", 1997),
            ("rho1 (distance)", "0x1.6a09e667f3bcdp+1", 1997),
            ("d0_1 (real)", "0x1.87de2a6aea965p-1", 1997),
            ("d0_1 (dual)", "0x1.e31ac9e759cc4p+1", 1997),
        ],
    },
    "helicoid": {
        "frame_ode": ("0x1.6a09e667f3bcdp-52",
                      "0x1.4e16fdacff937p-50", "0x1.0000000000000p-52"),
        "mannheim": ("0x1.6a09e667f3bcep+0", "0x1.c1609c8aba1cbp+1"),
        "transport": "0x1.4000000000000p-50",
        "rows": [
            ("ds1/ds", "0x1.ffffc8ce21c21p-1", 1997),
            ("dsbar1/dsbar (dual part)", "0x1.613f2e04ca853p-21", 1997),
            ("gamma1", "0x1.d49ad7e47c0a3p+0", 1997),
            ("Delta1", None, 0),
            ("delta1", None, 0),
            ("R1 (real)", "0x1.0a88bc5da7d08p-1", 1997),
            ("R1 (dual)", "0x1.c1528065b7d50p-1", 1997),
            ("rho1 (angle)", "0x1.121fb54442d18p+0", 1997),
            ("rho1 (distance)", "0x1.0000000000000p+0", 1997),
            ("d0_1 (real)", "0x1.0536c6726eb0fp+0", 1997),
            ("d0_1 (dual)", "0x1.9e9e4a53c8d75p+1", 1997),
        ],
    },
}


def _hex(x):
    return None if x is None else float(x).hex()


@functools.cache
def _run(name):
    build, offset = JOBS[name]
    a = analyze(build())
    return a, frame_ode_residual(a), verify_offset(a, offset)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_library_residuals_are_bitwise_pinned(name):
    _, ode, rep = _run(name)
    want = PINNED[name]
    assert (_hex(ode.real_max), _hex(ode.dual_max),
            _hex(ode.orthonormality_max)) == want["frame_ode"]
    assert (_hex(rep.mannheim_residual_real),
            _hex(rep.mannheim_residual_dual)) == want["mannheim"]
    assert _hex(rep.constructed.transport_residual) == want["transport"]
    assert [(r.name, _hex(r.deviation), r.n_compared)
            for r in rep.rows] == want["rows"]


# "<object>.<field> <sha256 of the field's raw bytes>", one line per array.
ARRAY_SHA256 = {
    "cone": """
base.u 6043aeeaa4dfc9e4b918a5d50d1bfe94eceb4cce07483633845c32a041cd3057
base.s 0db57babd491a8c78d7a75c9fb92a785f7117cafdd5e9a8fb216287e78e3ed48
base.s_star ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.sigma 9d8225881a7bee3297a03ab0fa87e423920e208c0447448fc07af2fb5b2af829
base.c 4512a08f3c05ebbe77b01d0cf3d4c9f1158f2e7e2f8430309e2ac5c4bcf778cd
base.e 63a79e74d713c22ae848604419ea22af34511ce52808d7b69f237ef9bfb30946
base.t bb786f0416db385d31f7964c66f9bb27ebe63169acac9a9e278a7e3b10030d68
base.g 74d861714c3199f3513051dcecc218f401d23d0ebc76ddba336a4c177317c076
base.e_star 3255ff1a4e55e1f53bdce39655f042d984de3b86d20e00c0e1ed78ad3fa36fd3
base.t_star 20e8ec12509f77ab5810b4cb6168fd2ac483a91752cc4cd7b2498bc8c47923f7
base.g_star a4faa20fb46cd528a479b0f9f08fa0dce942a765b923946b544cb5fc5ed8ce53
base.Delta ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.delta ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.gamma 374545cf40aabde4bfa19e8a60de8d4d47dd25f8cefe450a8521ef3bd18ef349
base.gamma_dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.e_u c7800f28d4e9832a0516ac1c28f78489c0cd8382bc1fe7961bd9305781dc5a48
base.e_uu 180c9e20e5d23f69861d54a0e33469b08fc2e0a5ed7fff4c27dec4cad9f06fe8
base.c_u 4512a08f3c05ebbe77b01d0cf3d4c9f1158f2e7e2f8430309e2ac5c4bcf778cd
base_inv.R.real 801d2fff9b8620e7571f98cab4e3aaed83efab86b7b563edd6e4675c8d0ce197
base_inv.R.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base_inv.rho.real 9d2e5204e35a9c77d7940423dd5b78dea37d9142bc2e3ec0ecfbcdf81389e77b
base_inv.rho.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base_inv.d0.real f853f3fcb54f37969fb7ba0601ca3104786d06647144e0995eb8c6705e922d52
base_inv.d0.dual 4512a08f3c05ebbe77b01d0cf3d4c9f1158f2e7e2f8430309e2ac5c4bcf778cd
constructed.theta_bar.real f4634ab6fffa19c93e0853c14726992b10f2d07a4f7e547b790d7b46484a18e1
constructed.theta_bar.dual db1b3a722d8e5e7cb11005a6cf526522e95c7f274e0b06f9afed61b5da8fbb0a
constructed.e1 b5b6ae5619b9b6337332983696bbfb6226dfe08c624c8fe5f7a80b31c1b8db5a
constructed.c1 b2efaca49ef92cb704b1d36f4451b52ebddde05939a0fa857bf2a2d4e93a134c
offset.u 6043aeeaa4dfc9e4b918a5d50d1bfe94eceb4cce07483633845c32a041cd3057
offset.s 44213e21e44080915a3459104cff22b3ffb7fae193b657a7fea9d4f837b720ba
offset.s_star 6ea2f6ea0e6660a69d62728a09374d35c8c568e13907e08f6c62cd963819004f
offset.sigma 27c894f5be28b855623955e19afb0c6a92c1f5b6afc68d53384690e9cce739bf
offset.c 3b12f4ba3a67fc57b5859fc6b623d1443d78bfda1853766696be56dcd0caadbd
offset.e b5b6ae5619b9b6337332983696bbfb6226dfe08c624c8fe5f7a80b31c1b8db5a
offset.t 890076e3e43eddabd903d932adb84654f61b20d99b0e831077585975cea5dc0c
offset.g f2e80a1ee623e637aea19a0060ba05d79cd7bb6a4e9095c20f1b9ee187884285
offset.e_star d7f6fe63d1be82494bcaa06a42b08c7aac17e051636255b2cfb7d93cc288fc43
offset.t_star 625f3742f65b0299b66094ad9130615fa4e9e69796a49381401667768647a1a8
offset.g_star 22ae4f8d6ab275929da5d1f153f1b8bd50cefc7bb84aec380698e4b29552120c
offset.Delta 275e5c253a218e0c5fcefc33b6ee660b7b7c4f3a2694a9e12174f7c05763ad7e
offset.delta 456521053fe676fc7c8bf7787924ccfb20bc4cd9496ff4f45441e37daa38d786
offset.gamma bcb417c2678ece85c08292c4c017ca5475466ef3fd3bbb77579e43640e5f36a4
offset.gamma_dual 9bac35d24c1e36f63d518d397937796f1da64c4794a46e558567b7bdf320ba3b
offset.e_u e1cee21e053cb7d4025a765f207c2ff7fa70e8be74e4682691705a05ede57e96
offset.e_uu edd76930db3caf54da6199fd387bbb0313c58dc9520a85ad64313fb9cc8250cd
offset.c_u f8ed56a4e422dac1f95e960815f2b021db90690006c9a1ff9b69670f72a0b873
offset_inv.R.real b3b8d972ee2505896a6a0de1279532873a1e09bd0ea1d7bdd53822618d1775c4
offset_inv.R.dual cb8842de3bc45a89e6aa3da1d3f798c2f7301c7d5d3243d7addaed5254fdef5e
offset_inv.rho.real 56c59aa8b10db9cc254ae568ad7a9915643efe1b63d365474f19735d610b932e
offset_inv.rho.dual c98d91096bf4656e161d53fb06f3052f648a529c5bb47cb116e6388cb0356013
offset_inv.d0.real bb2a24b583938e8bc5e367e19d13b8d29be29edc3661a5000f586869fc8177f6
offset_inv.d0.dual 53db59e9f17d1ab3f12c14c6fdd67aecc55ae633875e75dabeda9ab816e978cc
""",
    "small_circle": """
base.u f13ae4d32ab3a1e77d8c0fe485807ae45673b23e1c8eb0bbb2bf92bfbb6d72b1
base.s 71328984260a5f5573a50cce3d3bbe2f0dd7d73b16b49ee260c37d22f5454295
base.s_star 71729f3883a623d96a939cbef778a19a149d830a0be028f5647bb73b8c6a439e
base.sigma e58a81e40a91cfa2f64a6fd820733d74a9b7dcb7d735a14cfe72af9f71c7996e
base.c 9c080b7d8ed0b9e97b43823d59cdbcb48e5827f99bffda8ef0a80ef78dca832c
base.e 3e9eac39b040a5f2b6f855c92a03995d131eb4b261d5ddc4b15ccd476d997fa2
base.t e05de9a904c32331fb88f6144a299e1a3d4b6fb62c8e86c243108aa858a820fa
base.g 73b4c9f793c5a39e29370b471aecde3f3a4a8d66a741aacc4cad90b0c84b46ca
base.e_star ca458af8c94b8c26cd4bfcc7fbc6d38d7489e2720341283d8c657b819b7945b3
base.t_star 9bf086916421f94af388937dd75fecd28de83adcb4fec72500974eade1b97629
base.g_star d929f82e2434c05676b39069af7009089800386cac083d3aa451d44a6d68271c
base.Delta 1fb26a1761f3f8dbe25928dfd9fd19ff6d78b62bfc71416a525fc3b7387f7118
base.delta d8a7a6d310cbb3aecc8340c54776b03360839a60dcbfe83228f4a78901b4e35a
base.gamma 20cfc5db96dd01afc408d64ac1d33daf147141f4cf7a39a4365ed62ac791e180
base.gamma_dual e90b3b174978da0c8a99407f0f7b6db77c5b348476d3ca20c56fb707f61bbdc2
base.e_u 5f02b493f714344366436b18fdef61295b47cf3e8e9d4d66849404de7c2a5227
base.e_uu 1a9dcca9ee087ca6254e68030b8f0c52938641787246b62b4cba717c1a93a0b8
base.c_u 8a23e4bed9464ae10b782f1ffb6471e62910d506b5f2b629d81d3b0f70d1406d
base_inv.R.real 89372191d180d0984c7c35f970cd1964ce44347369390196a93e304285e6bed5
base_inv.R.dual 742113f29e03ebafce8422137ec619f7d67c05722b95cceecf2a2e71fda6c7b0
base_inv.rho.real d22ece81a387f83c8be27446de71bef1063fed17ba974907ff3fc77e244e88b1
base_inv.rho.dual 7ac3cac162c1f4f8f2726ae9002ecd43199ae8c7236dcbdfd2dd16373a52555e
base_inv.d0.real d5ac3d4f1825b92bb59150009eaf36c7b1d7a92bc8240e067b28286a0ab4d5b0
base_inv.d0.dual e65ce3b1b445c11ef699d0bf278a901c3dac47463754378faf024a56c7f4de03
constructed.theta_bar.real c04ed52bb217f018ee80bcde56a7bc50d387c5357c809489cd26a01ff496bfbc
constructed.theta_bar.dual bcd51723276ff4b41db1fa6289192dc3171fcb10c3ed00bbcffa5b8c4d2244a6
constructed.e1 b8455a8ff5914e3de9a04f9ab344827db301325d531e672a491cfd1713a83a3b
constructed.c1 3e4dd7facd5769ab5e3b838bc276bfab4d9f88bde0069a086d44a16b96a27f78
offset.u f13ae4d32ab3a1e77d8c0fe485807ae45673b23e1c8eb0bbb2bf92bfbb6d72b1
offset.s a8b6bcbe76199d331db7dc7b31546025485f8fc58c31323c3505cb041a624231
offset.s_star 3dbaa0cbd9844c3778044d282d3c1d2409d2fd62c5cd1af4b6b0af06b4433031
offset.sigma 2c8f552c81312cda28ef8fb22d7d7d72c607084ef045200bded32efe19b58e7a
offset.c 3124bce671869f713e9053bd8b2efa237d76ba988fb99f195e6f149341ed607e
offset.e 5a54aa74e85141f01b123a8b51bb0c2f6567060722c890075d1a2ce5c1bb02a8
offset.t df6dccbe47058f5a6060c0ea6fe83d35d8e3cfb4d8146a5cbcaec4aa2da6bf19
offset.g e6a083907f3e93a80a07a87126059fe6039e6cc17f66dcbb427d2663c3d64daf
offset.e_star 6a856bd07833c7ced33eb643a80d1f9e61474271f4a2221c73d431371693c39a
offset.t_star 4c5fb6e1c213864716671ca1854b9eed9e86ea474f2f014751a1004310eebb3c
offset.g_star 6d54ebfc4148a1bb2cecb16b7ffc0a58b2b53a37300c2cfa3f91846bb9a3c0e2
offset.Delta a8f4720fd011df5c3c77e819031ab4f9f5a99dbef28ea3f2ca43815dd15c9fe8
offset.delta 7845bf46837945febbb2f019d385e826917927a3ac5b68898bdd7a71a826b9af
offset.gamma a8d896dbdb771fc49c87c12b8a76b48090a15f1f8a99a022d9aa769abca238e9
offset.gamma_dual 69e2eb3ecf0896a463b85db5238b1456f370dd7322b48dd9f71290585dea280d
offset.e_u 6a6aff62589754fa1f367b79ae5fbce022b08f43ad1232c1bc3fd1776262afa7
offset.e_uu 63859fda42ab7b411c519b273d84f68d75274776ab646619f9f1fdbdbb61d5ab
offset.c_u 14575c24d783f451ca253b621b92c6906f14a46f5d18d546dd42a22dcdc561f0
offset_inv.R.real 3386729f77f39ed7f839acf61068dbc1efc5c1aa35c6df2312752d4bfb149cf1
offset_inv.R.dual b37f1e281cb028e98079f114c701d697983c68db256b55c8b1e497025a1c233a
offset_inv.rho.real a4e90d9117d0b6b3a04fd7a18ec082f92b7cdeae38c1d9132265d1668e56120b
offset_inv.rho.dual 674442b35669904798ce01bf48a6b3a3f1dee4569d38e3d63a6ca72c4995c2b5
offset_inv.d0.real fdd8591e97015264be345de896ff007ca60c4f7e48c16eab3afc87d54b139c6e
offset_inv.d0.dual 2703432f7215e7fc5915f58a0c5798e1d37cc69cb5d4b6515071c83c8f5b30e7
""",
    "hyperbolic_paraboloid": """
base.u a85048973d77468a262ace9dbeb708d887251144b2e5bb5fb49dd25bf095bb43
base.s 5aa90d511c77f7a723b1fe35b1be5338024914af7b3b8ae51501e8e449dde8ad
base.s_star 153c0bbe16224b03c6516b58a8fde9a64f727db874799aa89b521e341e94f47d
base.sigma 65146e2f2d420f1d3ab2747af70d5dd33857179fbc94f807560bd0357475aef7
base.c ab11845b1e537e534a6fabc604587230165047565713e28b818e7323987d5a83
base.e 20dae9219d9d0e53624ef78f9e139780649864a18ce71cb8d1e37a145dfa1fb8
base.t 6431b1de68c21b473585984e75f46e1b7e490a4f96050971ad5c86b1246600b0
base.g ae40958878f206273188f1769f0b6acf53b1eb168920c7a76719adab51fa36fb
base.e_star 97022c3a2a4dae2be812772e5b721390dc1bf6df5679d68141e0f65b63bd62bb
base.t_star d41d686605b850ca5bc2bb18c5654830333d4fbd980a0cdacd6ad5e3895acfef
base.g_star 523660763daf53b623e58c6301157222fafce91711b5999f04eb5a571249d263
base.Delta 6e104969ddf821139468c6b672f4644e5858c801c61342cfbb89a4a10fd0616a
base.delta ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.gamma ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.gamma_dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.e_u aeff4a2122e20d3d04fbec05e97b1b7f9c91e066e995e8f5d2f48ae858111233
base.e_uu 400fa8a065f326c1c5f33667e1d65923d6b5c487695d4c897e24c79a3b528716
base.c_u 3acd82fd062b1d3cbdc7c739a337430644ab4438fc2f66b32b23ed05e3bea95b
base_inv.R.real 4553bdab9d7ffa58682312daee7aeaf5763077ef9f8135350b9f3f039e7c0192
base_inv.R.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base_inv.rho.real d0f31a5477beeb38af8cdaa98e25d32b923c077bb8d3602f21891b877535d437
base_inv.rho.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base_inv.d0.real ae40958878f206273188f1769f0b6acf53b1eb168920c7a76719adab51fa36fb
base_inv.d0.dual 17abcde5b406d9e8f136279f85ee5c00484d9ba29204955cfe190c27d221ecd5
constructed.theta_bar.real c9651ae372750f3edd092c18f030092ef4336e495bb2b294b307fbd30e4fbc21
constructed.theta_bar.dual 23cacd26f1e32ac0bb7585b0d0db06f8e056e7d045e44d5dd0c2693912b6b0b0
constructed.e1 e929b5d05f968adb7c354082a1a90345cd61e45c35ab02c8fb734bec11d3450d
constructed.c1 e3ff4496e6b8970b9ba880f712341d338b7d3c61dab8588ec67d8ca6cff4ae18
offset.u a85048973d77468a262ace9dbeb708d887251144b2e5bb5fb49dd25bf095bb43
offset.s 7efc01ae5639e176abe0ea996e3052005feb52222f22942fa2db3ca7c69bb378
offset.s_star 795acc7a9d57cfadb01a2e2db4f8ae37077a603583dac549b68c85d3586d43ce
offset.sigma 3df499c6939d0c56b723f19df09e39742c7fd63ccd07849e37d0fdb29d85adbb
offset.c e3ff4496e6b8970b9ba880f712341d338b7d3c61dab8588ec67d8ca6cff4ae18
offset.e d688c82f63629e1cf489d3c456e20417c1caebdcaa8f06d1a438d378a5aa55a0
offset.t f1b43571db995270207abfcd8b11edd31c581d152045c96d33074db94fdee69f
offset.g bba02733b4c5c6591a73007ba6a6f980fe3bef93c9b040b5d2fa3db14f0ea98c
offset.e_star 3c13c300c0af34b7fccdaa229544fe2eb10cc81cc0b5b580a53630de594fb4e7
offset.t_star 30edb3b39ece0104808f7786b20ce1869df510c98a40440dade412eebcad7f65
offset.g_star 4512a08f3c05ebbe77b01d0cf3d4c9f1158f2e7e2f8430309e2ac5c4bcf778cd
offset.Delta 3ece5fcf2771be91c370308ba85ef01a985914dd9a10fa7e5f9a75c9888ae9b4
offset.delta ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset.gamma ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset.gamma_dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset.e_u 28c460e96c94181f13bf79583d8db5b0b1daa9d172992086c9beac27fc29cab2
offset.e_uu cfa1c82399189a2b43b895d73d368f5dbaaff2b61acf5c8e430e279632f0e97a
offset.c_u 244dd7083ce183dd54f24a9026212add11d8fbbdfd29b7edd038fb55802a23bc
offset_inv.R.real 4553bdab9d7ffa58682312daee7aeaf5763077ef9f8135350b9f3f039e7c0192
offset_inv.R.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset_inv.rho.real d0f31a5477beeb38af8cdaa98e25d32b923c077bb8d3602f21891b877535d437
offset_inv.rho.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset_inv.d0.real bba02733b4c5c6591a73007ba6a6f980fe3bef93c9b040b5d2fa3db14f0ea98c
offset_inv.d0.dual 4512a08f3c05ebbe77b01d0cf3d4c9f1158f2e7e2f8430309e2ac5c4bcf778cd
""",
    "helicoid": """
base.u 647194d335dc312a03c81d88ec727d142bc21c0157cfdf40cf1a9fcb8b5337c9
base.s 9fd070bb35e3ee5525ee803bfe057740eab40ada248a4f0efd4a272bec83bdc1
base.s_star c34ddf9bc7f757a02eccfa85490a7cbd3f5ad978f4fde0c5d6b2586d7459f27f
base.sigma 0e8a32b5a515615881f6781253f73ac5d85d4346c4f05d38c1a80bee5b160475
base.c b7bd2c87dcdb4a417ef281f14f4839c6530c5b444e3a1445990ef4aa9bcd8c40
base.e 2e4c6b8cec3bd2e46a95add0f9f945b7a2efcf4c26e9759ccb1c7d1708680141
base.t 082166eb543346f6585122cfb45a0f1b0673b0100ac51fde84411e7024bb08bb
base.g 054a0e124ffc209278a3e27a39e3a9a822f49ddc703a2ec1a7957d6ae2908058
base.e_star 0edfe38b4e2b5f1ee5a95b7ac441989af138ae96367ff6cc02ac1305944c32ef
base.t_star 16d58b9230221d29b1e767bab0ec58c0258038beb56e2e00282aaaec06221a74
base.g_star 5b1d6ea847a94e4c43439ff92154139f80a11e241631ee5a1bbd43630ced6394
base.Delta d0137cc5b43ea5da6d30f7d715dc5e63f047b1cbfd21aa38682b006255ab4556
base.delta ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.gamma ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.gamma_dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base.e_u 4bac789ac1ac5261bf8aae84be63c7108ae13e0f156f71e8906e4cc82d7bc78b
base.e_uu 0bb41ab0230600b411d91e5f14fb0500a99b28c8d4707f1d6921bf1cd28481e7
base.c_u 0e08cb317c370de13a8998cfbd7c1109fa50d005f9fe2d8619e44956652f80d3
base_inv.R.real 4553bdab9d7ffa58682312daee7aeaf5763077ef9f8135350b9f3f039e7c0192
base_inv.R.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base_inv.rho.real d0f31a5477beeb38af8cdaa98e25d32b923c077bb8d3602f21891b877535d437
base_inv.rho.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
base_inv.d0.real 92ae4259b1fbbe6ad9819d3432e48ee93a32ef10fe962c443ba6240dada36c44
base_inv.d0.dual 4512a08f3c05ebbe77b01d0cf3d4c9f1158f2e7e2f8430309e2ac5c4bcf778cd
constructed.theta_bar.real 45be1409aee8a4187bc8b4fb21ffb0e5d2f09de95e5d5a40928ccd5427dc12f1
constructed.theta_bar.dual 4553bdab9d7ffa58682312daee7aeaf5763077ef9f8135350b9f3f039e7c0192
constructed.e1 f55ad2925454095ab792d2f40a39afcde78a30414f313ce51c9cbe3007b47d8b
constructed.c1 6ed9880d9c8f4699f0f4d9865616fa31c918c07c641d63e832b4b1c57f62cb63
offset.u 647194d335dc312a03c81d88ec727d142bc21c0157cfdf40cf1a9fcb8b5337c9
offset.s 0d8ec99816530ff39aab610dd58dec22f3f0c17f16da2e4f1d63e885b181cc84
offset.s_star 9eb06cc0de8d5123d5d78bfb2cf344ebec087f4f8f8f1484bbde2740caee7cc8
offset.sigma b5b63ae8b3f33400b946fdf4d646deaf29284a559dec72fb67d3d92e87ce9ae2
offset.c 6ed9880d9c8f4699f0f4d9865616fa31c918c07c641d63e832b4b1c57f62cb63
offset.e 3269b4dfe43fd6e8c3c24b2aef0d0a38d668ff08350df2165643aa3278eecff7
offset.t 1bbf780ae04ef7c07d5da02a25b9aaeb18810201d7572e04e54ecfb717a3b8d3
offset.g af899bf2ce6c5b4496630779f986403134fbaa33b32dff5a1c38771aada89376
offset.e_star 06d0ee338c44398a30a2b9741aacbe2285807b5648fe798c7a1ffc102ca59c87
offset.t_star 38cd5b7d11560db4127c618c970f53a9705c77cc394052ae575238a749a57375
offset.g_star 0435d1663fa43c3e2c7292861daac84f2dff336a3354ed98dadf88dffe08296b
offset.Delta f6baa7ade0830ff6aa2819dfcaf4fcc0c512fa877ff3909829e28c95472e02fb
offset.delta ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset.gamma ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset.gamma_dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset.e_u 70ca29aada70924e21274373143d38641475ccf50ee343b0b7278750a784bfa2
offset.e_uu 319986af8f980b91f324f92a37864d5e31fc8b58109d49f6dae85a8dc227486b
offset.c_u b80fc9880fa448582dffadeaebaab8f55376a5b5fa502fe299fe616cca9aab80
offset_inv.R.real 4553bdab9d7ffa58682312daee7aeaf5763077ef9f8135350b9f3f039e7c0192
offset_inv.R.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset_inv.rho.real d0f31a5477beeb38af8cdaa98e25d32b923c077bb8d3602f21891b877535d437
offset_inv.rho.dual ca24d654ef0e68b09cf44bcae69a4cb19182dc0696eaa6c8b31c1af965116ee2
offset_inv.d0.real 338776f5d3b7b46c88dc11e8d03704a18b87279efced2e1679bdfe00079ca8e7
offset_inv.d0.dual 4512a08f3c05ebbe77b01d0cf3d4c9f1158f2e7e2f8430309e2ac5c4bcf778cd
""",
}


def _array_digests(a, rep) -> dict:
    out = {}

    def put(key, x):
        out[key] = hashlib.sha256(np.asarray(x).tobytes()).hexdigest()

    for prefix, analysis in (("base", a), ("offset", rep.offset_analysis)):
        for f in dataclasses.fields(analysis):
            value = getattr(analysis, f.name)
            if isinstance(value, np.ndarray):
                put(f"{prefix}.{f.name}", value)
        inv = (a.invariants() if prefix == "base"
               else rep.offset_invariants)
        for field in ("R", "rho", "d0"):
            for part in ("real", "dual"):
                put(f"{prefix}_inv.{field}.{part}",
                    getattr(getattr(inv, field), part))
    built = rep.constructed
    put("constructed.theta_bar.real", built.theta_bar.real)
    put("constructed.theta_bar.dual", built.theta_bar.dual)
    put("constructed.e1", built.e1)
    put("constructed.c1", built.c1)
    return out


@pytest.mark.parametrize("name", sorted(JOBS))
def test_library_arrays_are_bitwise_pinned(name):
    a, _, rep = _run(name)
    want = dict(line.split() for line in ARRAY_SHA256[name].splitlines()
                if line)
    assert _array_digests(a, rep) == want

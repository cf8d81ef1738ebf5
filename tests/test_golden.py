"""Golden guard: pinned SHA-256 digests of KBQ bytes and decoded tensors.

Every case quantizes a seeded synthetic tensor, serializes it with
write_kbq and decodes it with dequantize_tensor. The digests were recorded
from the reference implementation; any change to lookup, packing, block
statistics or section layout that alters a single output byte fails here.
Cases cover every quantizable kind at low, middle and 8-bit widths,
blocks of 64, of the whole tensor and of 100 with a ragged last block,
centered inputs, zero blocks, an outlier sidecar, and sizes on either side
of the quantizer's internal slab of 2^18 elements.
"""

import hashlib

import numpy as np
import pytest

from kbitq import QuantConfig, codebook_for, dequantize_tensor, make_tensor, quantize_mixed
from kbitq import quantize_tensor, write_kbq
from kbitq.codebooks import CodebookKind

SLAB = 1 << 18
RAGGED = (37, 29)  # 1073 elements: ten blocks of 100 plus 73


def _halfway_blocks(shape, seed):
    """Rows of 64 values whose exact mean is the binary16 halfway point 1 + 2^-11.

    Each row holds pairs 1 + 2^-11 +- d in a seeded order, so the float64
    block sum depends on summation order and, for some rows, so does the
    binary16 mean: a guard against summing blocks in any other order.
    """
    rows, width = shape
    d = 0.3 * make_tensor("uniform", (rows, width // 2), seed)
    arr = 1 + 2.0**-11 + np.concatenate([d, -d], axis=1)
    order = np.argsort(make_tensor("uniform", shape, seed + 1), axis=1, kind="stable")
    return np.take_along_axis(arr, order, axis=1)


def _input(shape, dist="gaussian", seed=0, offset=0.0, zero_rows=()):
    if dist == "halfway":
        return _halfway_blocks(shape, seed)
    arr = make_tensor(dist, shape, seed) + offset
    for r in zero_rows:
        arr[r] = 0.0
    return arr


def case(kind, bits, block, centered=False, dims=None, **spec):
    return kind, bits, block, centered, spec, dims


# id -> (kind, bits, block_size, centered, input kwargs, outlier dims or None)
CASES = {
    **{
        f"{kind}{k}-b64": case(kind, k, 64, shape=(64, 64), seed=k)
        for kind, widths in (
            ("int", (2, 3, 4, 8)),
            ("float", (3, 4, 8)),
            ("dynamic", (2, 3, 4, 8)),
            ("quantile", (2, 3, 4, 8)),
        )
        for k in widths
    },
    "int4-whole": case("int", 4, None, shape=(64, 64), seed=11),
    "float8-whole": case("float", 8, None, shape=(50, 30), dist="student-t", seed=12),
    "dynamic3-whole": case("dynamic", 3, None, shape=(2000,), dist="uniform", seed=13),
    "quantile3-whole": case("quantile", 3, None, shape=(64, 64), dist="student-t", seed=14),
    "int4-b100-ragged": case("int", 4, 100, shape=RAGGED, seed=21),
    "float3-b100-ragged": case("float", 3, 100, shape=RAGGED, dist="student-t", seed=22),
    "dynamic2-b100-ragged": case("dynamic", 2, 100, shape=RAGGED, seed=23),
    "quantile8-b100-ragged": case("quantile", 8, 100, shape=RAGGED, seed=24),
    "int4-b64-centered": case(
        "int", 4, 64, True, shape=(64, 64), dist="student-t", seed=31, offset=3.0
    ),
    "float3-b100-centered-ragged": case("float", 3, 100, True, shape=RAGGED, seed=32, offset=-0.75),
    "quantile4-whole-centered": case(
        "quantile", 4, None, True, shape=(64, 64), dist="uniform", seed=33, offset=0.5
    ),
    "dynamic8-b64-centered-zero-blocks": case(
        "dynamic", 8, 64, True, shape=(64, 64), seed=34, offset=1.0, zero_rows=(0, 5, 63)
    ),
    "int4-b64-centered-halfway-means": case(
        "int", 4, 64, True, shape=(64, 64), dist="halfway", seed=36
    ),
    "int3-b64-zero-blocks": case("int", 3, 64, shape=(64, 64), seed=35, zero_rows=(2, 3)),
    "int4-b64-outliers": case("int", 4, 64, True, (3, 50, 77), shape=(96, 48), seed=41),
    "float3-b100-outliers": case("float", 3, 100, False, (0, 95), shape=(96, 48), seed=42),
    "quantile4-b64-outliers": case("quantile", 4, 64, False, (10,), shape=(96, 48), seed=43),
    "int4-b64-below-slab": case("int", 4, 64, shape=(SLAB - 64,), seed=51),
    "int4-b64-one-slab": case("int", 4, 64, True, shape=(SLAB,), seed=52),
    "int4-b64-above-slab": case("int", 4, 64, shape=(SLAB + 65,), seed=53),
    "float3-b100-above-slab": case("float", 3, 100, True, shape=(SLAB + 37,), seed=54),
    "int8-whole-above-slab": case("int", 8, None, shape=(SLAB + 1,), seed=55),
}

# id -> (sha256 of write_kbq bytes, sha256 of the float64 decode)
GOLDEN = {
    "dynamic2-b100-ragged": (
        "dfe7a49cab61b75e26911f670debfa6a4519e9fcb42ee2597b17e82ef6ed97f2",
        "a14d73a38b308ab8c942e9614cd496d15ca08b08d6aed249014662c711a95358",
    ),
    "dynamic2-b64": (
        "05d8e28336d14ccece5c530169d199dc04a6fbf214ff94e12f4deb9108649861",
        "eec297742668413745e9b86fd3b8930e5b1d1aa03a2300743154293515e51f0d",
    ),
    "dynamic3-b64": (
        "0df2937ebb5b15dd913bd465f8c463be761bb6cf12dad1081cfcf93ab4b00674",
        "38146231999012621d2e6b3a36b10eba348dce7ed347e131a20dae77602d6785",
    ),
    "dynamic3-whole": (
        "47daf1e5724b61442ba169564d45f67e1dc9f7efac2d2fff8f49f22c4221637f",
        "d961a3f6654afdf5c86718f725201585390d755da164d1be4183344184df603a",
    ),
    "dynamic4-b64": (
        "93fdb8ded0571bce67c2962bd8f5a9a585628db3b1c743b7bb60679c360b6889",
        "b001262a657b8a631d38bbefbd26571aca537d4439ecc841e19eb48dff150591",
    ),
    "dynamic8-b64": (
        "c7934e67e15cdb9db8ddba46bcd0572ff7823d17af7cbaa09fcbc2d2d0f05036",
        "41bf9d557a6b64847c8c888c85faf7a69a36f9dae488b84e738cb1a1b94cf7f1",
    ),
    "dynamic8-b64-centered-zero-blocks": (
        "5c3177ab9ab81948ee5a0b3ce63f6163e0943f82c6da9e9ecfb250c2a4f3c44e",
        "8816d12483a5ed0866362d024aaad0c072c021d38d76615e774fdfe260eee04b",
    ),
    "float3-b100-above-slab": (
        "880e21eeda970e0a9e30e378834eed88c608ee7492147d465287bf4247583133",
        "d38c66189817a79291a0737ae6452e1c1e3825537028af9c2902368ca5cb5518",
    ),
    "float3-b100-centered-ragged": (
        "232a8f707a014ced4d56e256c9eeb864ecc33a4baf61e431c548e386c07a6c28",
        "afc456c0cb61688af85319514587e1c608908c64cfd5d3c5fe9dd5e1c5fa4b80",
    ),
    "float3-b100-outliers": (
        "a9c31a726f4320de8ea2d32384a46f7a8cf6c31cbafe8ad5557c38122e3b2219",
        "3c1256983ecd537165b8ede4d326128eca63d1bbe5ec32267a3ad2b356d61c44",
    ),
    "float3-b100-ragged": (
        "10a3e4adf86cf877cfb1929ab0066997362d40a684976ca27bbbfe03799806b6",
        "926cfbbf0017c886f442821dc2c7d4d0a138220af933895086a627bae6114c0f",
    ),
    "float3-b64": (
        "3340421d0b741f181638a6bbf0bae90080f35c28b6d2f0845fd94030b914b9f7",
        "1795f72d2e0f0f0d11619033d33fc7993e9bae1f5d6d2d41a2e4cdd630a7c563",
    ),
    "float4-b64": (
        "c98ddc1d56109e59d74b22caafc5edbdb32fd19bb6e3a582ee75863d4ff2a250",
        "fdedc1590d991dafed10c4c04fde39d6135439330c6b6b10ae11cad829748819",
    ),
    "float8-b64": (
        "c954b6599f7b8fd5792a480c5026d4e450243ff313dc81e153b0d63baf95f407",
        "181064e8b07b9abb5de23b43e9d66a4e1d56468dfe2018cbb1244f3d1ebc203f",
    ),
    "float8-whole": (
        "8b50f442c97222ad2c284441f9bd791911cc6b287da99150c080a4f3548fd89c",
        "e86477b447860c4873b91c40ce4e0a3906ee286dfe340747f7060e0096c900b7",
    ),
    "int2-b64": (
        "59671b0d5d4277682c16a53bc5ca2914825215ac4a8431aa336dfce98c344371",
        "eec297742668413745e9b86fd3b8930e5b1d1aa03a2300743154293515e51f0d",
    ),
    "int3-b64": (
        "317d346f790b18a83a2480037d81d3af0685bb68a7df495dd4c1d35d50721f35",
        "089b1bd5a424e6f49ff3d1d4dff5ebf2a3353573b6cfe701921774ae10ca672d",
    ),
    "int4-b64-centered-halfway-means": case(
        "int", 4, 64, True, shape=(64, 64), dist="halfway", seed=36
    ),
    "int3-b64-zero-blocks": (
        "c448381675d5374fdae9b8fc299c6f48c12c116e041ebfcb46b1270308871a83",
        "01a2ece0e76fc58efcadb0cf5245f5bf1f5ff1a604c4aab113c5a087811898d1",
    ),
    "int4-b100-ragged": (
        "09891084a6b219aaf2ca2f8529eac832bb9a00f8d6e4e78365ae60eb5cf9fa6a",
        "abab6936f0fecd02f5e8c6ec7ad63b55fd142bd67f5cc6f1a0e044e07d8f40db",
    ),
    "int4-b64": (
        "3bd4e8fbcd203e269e1d2cd36a57c0be5a09ef6901ebc447fb4b01da74975401",
        "4fd1691bb8e474126ab0839796a3e51d71b1b4456bcae2cfb551ed1403b87e62",
    ),
    "int4-b64-above-slab": (
        "2ccbf9d6edff06ec39757ae58487478bd41882a65067c36c9f20001242c9a9d7",
        "766c3bb72ca2e734fb67ac5b4cf28a9359c56142cb3c3d9af68bc3b7c069f1e6",
    ),
    "int4-b64-below-slab": (
        "8c8024b88daaaff04e9cacf110df0f4dd5a66361f25c46d362053c1ec9d2d406",
        "444dbc75a260020eb96531c3362646c0fba1c3c42fad0e5e57a89c6e4f97a51f",
    ),
    "int4-b64-centered": (
        "8f4bb34e3c7741efd1eccd98d8b8f707a11fa82d4d1c6f3c55a22773575cec0d",
        "5267076d2aed24d11c5003d0c9dcf81877c1fc116694cd56b5c2b6f220ba69f1",
    ),
    "int4-b64-one-slab": (
        "3615c17a960e346d5d836a78d806f303fe31c287757838101ad9baba80bc6c3a",
        "55a3ba906e10c342c28a90adf58e3e80a20bb536b69ae85080b608e90df486a9",
    ),
    "int4-b64-centered-halfway-means": (
        "2217eb629e89f4e5a022cda0418cb73ffefd53782e2edf06ec0e36014f06492b",
        "8fa63303939e905f447175dc4aa11bc46eca94eb814554cfd47c1047d71c7965",
    ),
    "int4-b64-outliers": (
        "e0c674ab7823f532af88acd315e038d198a625ba0ca4bddc8820bccd19a32369",
        "c4e104f7628743725338bfc62e180904c916ea65508d9c3849d5e801bd2e0eaf",
    ),
    "int4-whole": (
        "ab08b35effa19ddefd5c3595195f506a4baeb51bcc2630f61928bce13eca7d4a",
        "80de2c7c579f117da88a29b6b9f1a0effb8059648c6fd8ef3ac7d25df877ba52",
    ),
    "int8-b64": (
        "b648db579798fcbed8ad7761350ca648f3939afc1df64dbe417c1da08931dabf",
        "9700167b7dedfaf44266c6bbd51ef3486924199397530682597fda542bb367d2",
    ),
    "int8-whole-above-slab": (
        "94b00207dc68cacdec1c883530ce05d4e45877637924c3a6338026c02c963df1",
        "469804f5e6c3c02358ae563f61ce23e346f995f4a8b0353b69e928402fc16e67",
    ),
    "quantile2-b64": (
        "bb2192993f7494b0df39b02d91296d1a253647ece0b53924842ebf9bf42fd141",
        "d4e2d86c71e16d9c53a946c0b4a0ba4a7f0d4f6576365a8f280b00c052412611",
    ),
    "quantile3-b64": (
        "b5d334d351cc2eb48e79cf5ae42a0287c7e1024fe3fabc4d2a5adcc0b1c531bf",
        "eb5ae8c8f0d80a25a6cdc678ea58548b3c0be3378e75a4b7625dfc414ab5e764",
    ),
    "quantile3-whole": (
        "3dfdcd39837d6ccb59772871ec6d89d0ebafcfb87d3e1557e9ddc26f537906d0",
        "10337c45b5d45217f0a1ee1e3bcc90be06d70d85ec6c50ad231ed975de9ba1ba",
    ),
    "quantile4-b64": (
        "c466b0baee8b56b434020ba68a22a56ae3aba00e9e200d2ec8d8e7b43671f905",
        "68d4ee15aa254d7be7413fb3e5bb46fd85db682ab3dcfe2a3dae256f4ab4e398",
    ),
    "quantile4-b64-outliers": (
        "acece81d765e4cfb3121c9f112b7b50320ba24ff9d3232b93694030c75c597e4",
        "4e923d435abe6ffe3ce18105ea5b8e2131911266073535100db852d58106e80d",
    ),
    "quantile4-whole-centered": (
        "a85c03bbe67fe38309e6bc86055b34d4e183616eebae912ceed6617bafe46497",
        "8c5e184982cce584282f86ab63370625b0603a6d974eb88232968c5b5ade72fd",
    ),
    "quantile8-b100-ragged": (
        "eabb5efe388157ea7a857b6080c7b7e2b676d57cf1a3ec6dd864000d6c58a277",
        "c7aac706c7a1d71d8f27c21a4aba39e1b453e3cb580fcc0865ca917b7a1024e1",
    ),
    "quantile8-b64": (
        "248335c6bb3e5a3a5deb1fbcf76fd5d4a055016ea9cbd2aba103cd08d0cca3f2",
        "5f8cb3c3e8ec021bffa642222c2909dc6399764d56d52aff38d50024c3299040",
    ),
}


def _digests(case_id, tmp_path):
    kind, k, block, centered, spec, dims = CASES[case_id]
    arr = _input(**spec)
    config = QuantConfig(kind=CodebookKind(kind), bits=k, block_size=block, centered=centered)
    codebook = codebook_for(arr, config)
    if dims is None:
        q = quantize_tensor(arr, codebook, config)
    else:
        q = quantize_mixed(arr, np.array(dims), codebook, config)
    path = tmp_path / "golden.kbq"
    write_kbq({"t": q}, path)
    decoded = np.ascontiguousarray(dequantize_tensor(q), dtype="<f8")
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(decoded.tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden_digests(case_id, tmp_path):
    assert _digests(case_id, tmp_path) == GOLDEN[case_id]

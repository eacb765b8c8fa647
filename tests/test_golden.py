"""Golden CLI outputs: every case below runs ``tomobound`` in-process and
compares a sha256 of its exit code, stdout, stderr, user warnings and every
file it wrote against a digest recorded before the code was refactored.

Before hashing, the case's output directory is replaced by ``<out>``, its input
directory by ``<in>`` and the bundled fixture directory by ``<fixtures>``, so
the digests do not depend on where the suite runs. No case ends in an argparse
usage error, whose wording differs between Python versions.
"""

from __future__ import annotations

import hashlib
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import tomobound.fixtures
from tomobound.cli import main

FIXTURES = Path(tomobound.fixtures.__file__).resolve().parent

# Input files a case can name as {in}/<name>.
INPUTS = {
    "pairs.json": json.dumps({"pairs": [["10.0.0.2", "10.1.0.2"], [8, 17], ["10.3.1.3", "10.2.0.2"]]}),
    "line.edges": "0 1\n1 2\n2 3\n",
    "bad_step.paths": "0 1 2\n0 2 3\n",
    "split.edges": "nodes 7\n0 1\n1 2\n2 3\n4 5\n",
    # a 12x12 grid, node 12r+c at row r, column c; corners are 22 hops apart
    "grid.edges": "".join(f"{u} {u + 1}\n" for u in range(144) if u % 12 < 11)
    + "".join(f"{u} {u + 12}\n" for u in range(132)),
}


def _bound_cases() -> dict[str, str]:
    per_scenario = {
        "arbitrary-avg": "--dbar 3 --n 100",
        "arbitrary-max": "--dmax 5 --n 100",
        "arbitrary-unbounded": "--n 100",
        "consistent-avg": "--dbar 9 --n 100",
        "consistent-max": "--dmax 6 --n 100",
        "partial-consistent": "--dbar 6 --q 2 --n 500",
        "single-server": "--dmax 4 --n 100",
        "multi-fixed": "--dbar 10 --n 200 --ms {ms}",
        "multi-flexible": "--dbar 10 --n 200 --servers 2",
        "arbitrary": "--dbar 5/2 --n 100",
        "consistent": "--dmax 4 --n 100",
        "partial": "--dbar 4 --q 1 --n 100",
    }
    cases = {}
    for scenario, flags in per_scenario.items():
        for m in (1, 2, 4, 8, 13):
            ms = f"{(m + 1) // 2},{m // 2}"
            cases[f"bound {scenario} m={m}"] = f"bound --scenario {scenario} --m {m} " + flags.format(ms=ms)
    return cases


CASES = {
    **_bound_cases(),
    "bound readme consistent": "bound --scenario consistent --m 8 --dbar 8.75 --n 100",
    "bound stray flags": "bound --scenario consistent --m 4 --dbar 3 --servers 2 --ms 2,2 --q 3 --n 50",
    "bound multi-flexible zero servers": "bound --scenario multi-flexible --m 4 --dbar 5 --n 50 --servers 0",
    "bound multi-flexible no servers": "bound --scenario multi-flexible --m 4 --dbar 5 --n 50",
    "bound multi-fixed no ms": "bound --scenario multi-fixed --m 6 --dbar 20 --n 108",
    "bound multi-fixed short ms": "bound --scenario multi-fixed --m 6 --dbar 20 --n 108 --ms 1,1",
    "bound multi-fixed negative ms": "bound --scenario multi-fixed --m 2 --dbar 20 --n 108 --ms 3,-1",
    "bound unbounded stray dbar": "bound --scenario arbitrary-unbounded --m 5 --dbar 3 --n 100",
    "bound both lengths": "bound --scenario consistent --m 4 --dbar 3 --dmax 3 --n 9",
    "bound no length": "bound --scenario consistent --m 4 --n 9",
    "bound full tag no length": "bound --scenario consistent-avg --m 4 --n 9",
    "bound single-server fractional": "bound --scenario single-server --m 4 --dbar 7/2 --n 9",
    "bound partial no q": "bound --scenario partial-consistent --m 4 --dbar 4 --n 9",
    "bound zero dbar": "bound --scenario arbitrary-avg --m 4 --dbar 0 --n 9",
    "bound fractional budget": "bound --scenario consistent --m 4 --dbar 10/3 --n 9",
    **{
        f"check {name}{flag}": f"check {{fixtures}}/{name}.edges {{fixtures}}/{name}.paths{flag}"
        for name in tomobound.fixtures.INSTANCES
        for flag in ("", " --k 2", " --links-as-nodes", " --require-simple")
    },
    "check violations": "check {in}/line.edges {in}/bad_step.paths",
    "construct ica 4 17/4": "construct ica --m 4 --dbar 4.25 --out {out}",
    "construct ica 4 3": "construct ica --m 4 --dbar 3 --out {out}",
    "construct ica 6 19/2": "construct ica --m 6 --dbar 9.5 --out {out}",
    "construct ica 5 26/5": "construct ica --m 5 --dbar 5.2 --out {out}",
    "construct ica too long": "construct ica --m 3 --dbar 100 --out {out}",
    "construct ica no dbar": "construct ica --m 4 --out {out}",
    "construct half-grid 1": "construct half-grid --m 1 --out {out}",
    "construct half-grid 8": "construct half-grid --m 8 --out {out}",
    "construct monitoring-tree 7 3": "construct monitoring-tree --m 7 --dmax 3 --out {out}",
    "construct monitoring-tree 13 3": "construct monitoring-tree --m 13 --dmax 3 --out {out}",
    "construct monitoring-tree 48 7": "construct monitoring-tree --m 48 --dmax 7 --out {out}",
    "construct monitoring-tree 8 10": "construct monitoring-tree --m 8 --dmax 10 --out {out}",
    "construct monitoring-tree 1 1": "construct monitoring-tree --m 1 --dmax 1 --out {out}",
    "construct monitoring-tree no dmax": "construct monitoring-tree --m 5 --out {out}",
    "construct fat-tree 2": "construct fat-tree --k 2 --out {out}",
    "construct fat-tree 4": "construct fat-tree --k 4 --out {out}",
    "construct fat-tree 3": "construct fat-tree --k 3 --out {out}",
    "experiment bound_sweep": (
        "experiment --name bound_sweep --m 1..6 --d 4,6 --n 40 --scenario arbitrary-avg "
        "--scenario consistent-max --scenario partial-consistent --q 1,2"
    ),
    "experiment bound_sweep no scenarios": "experiment --name bound_sweep --m 1..6 --d 4",
    "experiment random_placement": "experiment --name random_placement --m 4,8 --trials 10 --seed 7",
    "experiment random_placement dmax": (
        "experiment --name random_placement --m 4,8,48 --trials 10 --seed 7 --dmax 4"
    ),
    "experiment random_placement dmax skips": (
        "experiment --name random_placement --m 4,8 --trials 10 --seed 7 --dmax 3"
    ),
    "experiment random_placement split": (
        "experiment --name random_placement --topology {in}/split.edges --m 1,2,3 --trials 4 --seed 2"
    ),
    "experiment random_placement split dmax": (
        "experiment --name random_placement --topology {in}/split.edges --m 1,2 --trials 4 --seed 2 --dmax 2"
    ),
    "experiment random_placement grid dmax": (
        "experiment --name random_placement --topology {in}/grid.edges --m 4,16 --trials 6 --seed 5 --dmax 7"
    ),
    "experiment random_placement server": (
        "experiment --name random_placement --m 2,4 --trials 5 --seed 3 --server 0"
    ),
    "experiment random_placement server dmax": (
        "experiment --name random_placement --m 2,4 --trials 5 --seed 3 --server 5 --dmax 5"
    ),
    "experiment fat_tree_id": "experiment --name fat_tree_id",
    "experiment fat_tree_id pairs": (
        "experiment --name fat_tree_id --pairs {in}/pairs.json --out {out}/ft.csv --json-out {out}/ft.json"
    ),
    "experiment tightness": "experiment --name tightness --m 2..5 --d 1,2,3,4.5",
}

DIGESTS: dict[str, str] = {
    "bound arbitrary m=1": "32b891d51c0ff70206ed2968d13766767c92024c86d5bde500982fdb549b7cb7",
    "bound arbitrary m=13": "2180044bd09428fbaad2109ef948e892f0f8fa64a1a1e039c0971f92bb5d5f26",
    "bound arbitrary m=2": "dcb40a4af72096d705250b1ec0b7d36932e9c0e3140c18534c19c87ad2255015",
    "bound arbitrary m=4": "667bcf38a35cbea5139398d9b2f378b1aff402cfc38b6fa40011fdc5723de347",
    "bound arbitrary m=8": "1e4ad5a94a59ca878a32170e7d5b0e5a5920872909c0322573db4c6585d7cc40",
    "bound arbitrary-avg m=1": "c6257a049ce9ba78a251597b67468ee620b3a7e0907d1ed7bed8cb0d84ce4e3c",
    "bound arbitrary-avg m=13": "0c2a21c8c39b5e14db831c6f7d9946d2ab30fc88f78bf044e08276b3b22f8025",
    "bound arbitrary-avg m=2": "7bee76b6eb88f9f6a0edcf9016ef1677d2d22190466a82bfa2066bc069b39eea",
    "bound arbitrary-avg m=4": "fefb238451021236b2db4b2a64cc06411785c95322886766d8f2e54af7980d44",
    "bound arbitrary-avg m=8": "0906cccaabebcc931b82dd82cdaa9cd0998decf5b84aedec421c1944459e0186",
    "bound arbitrary-max m=1": "31c2d436205d62b00942b7abe8fcc9992f48d203a3b26647a3431d6eab86642d",
    "bound arbitrary-max m=13": "bc5e2f981e5418b91a247b00bb1c0ae3608a9c1a6b578f90b5e0ab0ab9e1f3ff",
    "bound arbitrary-max m=2": "9453fdc737458e11d1b8e2c0485f37251fc181139c7a3bd5dd49a8843fa8ab88",
    "bound arbitrary-max m=4": "8739dcb077dcfe1149f4f579baec9fa094115db0ec9d3d688167f0c795382ea4",
    "bound arbitrary-max m=8": "69d1dfd9daff05b6fc613755eac680dfe73c9b3d1e495b4557800d2b1edf55cd",
    "bound arbitrary-unbounded m=1": "1081c4c1f587bfc8ee7e4bc55ef64e8360574ee324fd792de05e2918739206a9",
    "bound arbitrary-unbounded m=13": "2cc28fff29ea3bf0cc32f0980a3382e205d9cfc96ba45c74f67333d9445dc475",
    "bound arbitrary-unbounded m=2": "3095543eda8fb12cfd78c51b0e7017cb7358d93bf57177d693b32604b9b69db3",
    "bound arbitrary-unbounded m=4": "d0dde4395ae3f21b1e98c02699cb34c301f2cb5c6d4c70eecccdd4a9293df2a8",
    "bound arbitrary-unbounded m=8": "9b9a791b05bc547223a1b9be631da4bacc5b9d4a054ccfeaf72afc854b1e5bb1",
    "bound both lengths": "f9ce2557104bbf876d2fe12d7a4658d749dfe3af09ffb2fb0b2e35af8824370b",
    "bound consistent m=1": "f625522e65de7e76a911b40c359d04f811a242809ce7e8c38f3e0adf26e772ea",
    "bound consistent m=13": "8d6147fcc50158307164664ecc0d44ebe2d3d6cf4e4b735516a86963adb6ab24",
    "bound consistent m=2": "43793365d8bf1bb1b570f216d554c5d732c2b894e09dbf6e4ed07ef53f254f92",
    "bound consistent m=4": "aaa0ef3d2549c95962837a1c62bf4c528d1323e893bb8136c8ea9ee33efe0f67",
    "bound consistent m=8": "2832d5c3bfe3a8ced3442b65a941b2149fbacbaf7cb7f3f9d611b7084ca1b47c",
    "bound consistent-avg m=1": "b93779bc6772cd5ac6050afe336ff7dfd2665b9be7b3b96d343ef606ad270120",
    "bound consistent-avg m=13": "9b652a5264c4aa01496b6e030a09e9033ae49015470d2c9aad66c8cfb6c6a740",
    "bound consistent-avg m=2": "c8e915afecf4aa6f351f69a39bd01a67ba2d4f5dbfd9c0215114d632c36f4906",
    "bound consistent-avg m=4": "f130d835d127e1f7c3121c3b5fc021aef66024406005360273e757866ea0a384",
    "bound consistent-avg m=8": "0bafa96c5c23ea296152862f4c5c95d4a0f86d7839aeb0530c86b3dd385274e1",
    "bound consistent-max m=1": "682ef210010f4548526c1201ca46728adfd7e11d2b4a793b9008f46818b33fa2",
    "bound consistent-max m=13": "01c73c6b5ce71fb07949e971b78a83d7d722242d1489a1759b8d3b1aaf7f2376",
    "bound consistent-max m=2": "e30cff15e861a5d9a3c678c1e04936e6247bed1485b1eb28021670192a53b181",
    "bound consistent-max m=4": "a8ddf742948863f8e77b3d1bfcf999581ec9531b5e195fe057a94109be70208f",
    "bound consistent-max m=8": "37ace106def76832ca53f806fccb246f6fdbc27c7e0d3ea7b3789fa1f528e3b0",
    "bound fractional budget": "6d94f2103bbaa8b459b6a7ec1ad56f026d0baa2234e2147716cf6eb2cbc99e7b",
    "bound full tag no length": "e32146773beeaa61d13bac9e2ab97add7daa1ee0a52113a0bc3df15dfcc3641b",
    "bound multi-fixed m=1": "9012ec4bba54a061e945ef3f76713c11650f3291c00a283e5a22a582583da002",
    "bound multi-fixed m=13": "6fc14b3146924df1388fd26d6abf2dc5913b9d6d3f0a6d3bfbf55034e260e5a4",
    "bound multi-fixed m=2": "8db1c3fe8295f8be887cbbcd2f7e014097111662936b83ba53b0add46edd5fa0",
    "bound multi-fixed m=4": "25d3658b360a75cc0c0a4948c3105df0b0acb9caaf0a0c31eba2859ff3de28d2",
    "bound multi-fixed m=8": "72f7310b974fdd18d038588120288045902df1e0741ed62a7941c27ad9c40070",
    "bound multi-fixed negative ms": "35b36adb02274b3e08f6878b3a59021a3a0d3e4ffd05b3c6bfa7345fdd590321",
    "bound multi-fixed no ms": "11d5b1acbed23c7039d8bc15762d44b4b940d737ca71316646dc1a21c528851e",
    "bound multi-fixed short ms": "01e3a3e8a8594ff289133267f28d2bd0612d2029804871849f9b005c534f99c9",
    "bound multi-flexible m=1": "3f028518b89e2077962f80e8fe377c428c978bc54558571dad6cccc7f5765ac8",
    "bound multi-flexible m=13": "f779ecdff0d5a82dc7c87dcea314391d2d5bbfeecb593a668991b25901182fec",
    "bound multi-flexible m=2": "9016210cec528035f0e82ba501de1e13e65fbd0b58a531f8b036ea901ab7e347",
    "bound multi-flexible m=4": "cfae298ce40ce3b0b2c823a58dfd874280558311a5ea8cd823eec1f0931f9f2f",
    "bound multi-flexible m=8": "da594184e9b17e22a88503013969d57cecd3471dfa71c290df47c4939be1e8de",
    "bound multi-flexible no servers": "dcc1d28d58ea5b509e1185ffd954510d2f147c84db020ac3cbdbb1bdd50f3ba8",
    "bound multi-flexible zero servers": "2fe53c7ac7f137862c1ed24f627a2bc6e8fdbf13bfb088ad830cfe6b3dbf9568",
    "bound no length": "c48452af0c4480e2afe6ef42fab098d255e67c7ef7e82696d9159d74486243b2",
    "bound partial m=1": "f30d065ba7ead1b2b5663a8fe52cb55fcf54adfb59dc5dc4038a60bc5cea593e",
    "bound partial m=13": "45daf7549fa8e6845e7cb23c19dfafd1f229e19510d6067410912f16003eab1c",
    "bound partial m=2": "51310e87d30c14e5c22da09f90cf7ea6210c2db177d83755e4e00c8ee97f3221",
    "bound partial m=4": "e2c91abe32dc0191bfa716d5ab94092f85088ded87160ad86a0a2dafa504c57d",
    "bound partial m=8": "7dc1185b866a92c68d9e5d1d21345ded2b17626f42edc77b30fcc45977a3050c",
    "bound partial no q": "d7092a8ae4a2c5a0e26327d5be07f03cc34e129d7e464bd48a4f2aa73a1e0a66",
    "bound partial-consistent m=1": "27609dcc1670ad8cda772315db7de2738660bd44b28b1c9848b6544d9e20f3c6",
    "bound partial-consistent m=13": "da201efc66d45fc7ed101c570908b30111018f943e2945d3a14843f780182d8e",
    "bound partial-consistent m=2": "726a7fc275a38b844754b4f44c04a5ba95a7b214861d342ca61738ee7e3592ed",
    "bound partial-consistent m=4": "debd8cb401518a4aae05e559a2986b4ef76de216217080239fa9bde88d484b7f",
    "bound partial-consistent m=8": "e405eb5fbdfdbfc071bda1c843accbfb1b0702fb0df7e85577d11a5830329a4c",
    "bound readme consistent": "839671d12e6fce8969ff5876f881616c86890eb0d00f2d7a902e4b2bc257827c",
    "bound single-server fractional": "5505a1da22afd521b0a06e87739405bbef9bb38130737390b3be0b74e45fb443",
    "bound single-server m=1": "f6ba838dc4fdb333a59933f093e6218ab8cef73a651c28775a238f0952e7783d",
    "bound single-server m=13": "822bce407a8b1be65cb12c521299a28913f4552a9242d6ecdc1c4ca08dc85b70",
    "bound single-server m=2": "cffe8206c3148bbe17240f9d3c1fe19655a287f5d5dadfc465fd543c860c18b6",
    "bound single-server m=4": "d11bc899201fe7c5d04319143ff5440deae9734a7b506b63c1ddb8b727b781dd",
    "bound single-server m=8": "31c28f693ded2db2db020b797d86f7ab1646ded5eec20e98ccc9aa5c7b5aa7ff",
    "bound stray flags": "a0eddb8b5ce12010e7b85074704fa621aaa4029c970bdc72ca96ef0bf9e9828d",
    "bound unbounded stray dbar": "1e9d7f6e75830cdb429a524afe71f0cd622d1b781795be5c77c11dad1c6b31ad",
    "bound zero dbar": "e6b73b8a52518eb03ebd37595919f5efcbca2d454c702e389011e8a78e4d8475",
    "check consistent10": "f17d3041cecf7139fb57ed30d38fac7c39b08094c0580b2df41e39e62511137a",
    "check consistent10 --k 2": "6749a95d46846bd6e609a28f6c644d82946dd9d8336c396665e0c9e76b468c1a",
    "check consistent10 --links-as-nodes": "e469a19697f725c61e8f9e87005db3e7ccb73ee47ec1442a7d56cb8ba1c1a375",
    "check consistent10 --require-simple": "f17d3041cecf7139fb57ed30d38fac7c39b08094c0580b2df41e39e62511137a",
    "check half_grid_plus38": "974866af04e854c2bb8ebc10545f0d1b4f953f80abd4ec75ea53bcca301c0bca",
    "check half_grid_plus38 --k 2": "814adade5b2fd201c4ec12415a0b38cbd18b0d2960021593b08472cc238255e0",
    "check half_grid_plus38 --links-as-nodes": "ae2395bfc99f8ea4cc0958a20a35b2949a3e5d6ac8944c5370af43bfc929c212",
    "check half_grid_plus38 --require-simple": "974866af04e854c2bb8ebc10545f0d1b4f953f80abd4ec75ea53bcca301c0bca",
    "check inconsistent10": "af7cbbcc618cd1999fd7863cd4c0247dfeb0f7846f159eb07a4d2c825a649f88",
    "check inconsistent10 --k 2": "2e7b212cc4de9952abbb2ab3f9303f5daf7e3eeab6f81105b87fb6b13876448f",
    "check inconsistent10 --links-as-nodes": "dbd66f5b5306d64f0ce5b65daea3618002748192ce2e676ff808a7e723d624dd",
    "check inconsistent10 --require-simple": "af7cbbcc618cd1999fd7863cd4c0247dfeb0f7846f159eb07a4d2c825a649f88",
    "check seven_path39": "8d3f7a66cce8c563783815685f9d8dcbe825f638423ffce5a5735e6a94b6465a",
    "check seven_path39 --k 2": "90088e368372cde26cf3adf5e7cc129e37b41ce523ddc25fb0d4710d013ae1a1",
    "check seven_path39 --links-as-nodes": "04a10696a519b8ef760c8b3ce17671067c40fe9a4e85904c5743acdbb054fb76",
    "check seven_path39 --require-simple": "8d3f7a66cce8c563783815685f9d8dcbe825f638423ffce5a5735e6a94b6465a",
    "check violations": "27e83ece6b3118de15d1703cbc705fe3fb17b500c3a6fea34f316f8d9f849d6d",
    "construct fat-tree 2": "ce9d0c63a19208696843634811efe9aef52e795d5cc48e2fa081ff42df75c7e9",
    "construct fat-tree 3": "2c34c7aa8233d598b94c5e85f80cd05ba4204a5b3bc446c1aea2e9c8c9a582b9",
    "construct fat-tree 4": "38109b33575b55be576ee080aae2aa82aff5c7d471482537534be9c9563f5e61",
    "construct half-grid 1": "4a1d892354c70039fb625520bb65803717416068f1d31e9fe27eaa3d5211dbfb",
    "construct half-grid 8": "d8648b99442fb5ae55fefd7e9fdbd073ea7ee2008343f50468dd4c774e26ec1b",
    "construct ica 4 17/4": "cdf23ae604dccf7677dd9520017238d5d38ba0b1560f9dd7c32ffbc30d41835e",
    "construct ica 4 3": "79d058daa678b20508676f62a8ced5bf73dca6c64443ffe0dfdf2f2734e5f2a4",
    "construct ica 5 26/5": "ee87c5f3d03d12b2820bb23052a954509e6b9e42796b47f1fff46ed05366ec46",
    "construct ica 6 19/2": "b6360c6b436c49f6e3f9950a31b9d554c231ce601256715cea9fcb5f10a02f62",
    "construct ica no dbar": "61dd5133562e36e0f9675f6075b98e57135fef93b3dc4440a4b45a3f697f16c4",
    "construct ica too long": "fc1a913da14c70ac97fd553e50b66a3c34ddeb1abad798509f8ffffcad64a118",
    "construct monitoring-tree 1 1": "7060f16a56af5080a91d7258c35c4212e1fb9a6ded0e2714c352fea6f6c7f74a",
    "construct monitoring-tree 13 3": "d64bfad0693cbf867475e723b5471e5e687c35e1f02585348e003fc8c5ce91fd",
    "construct monitoring-tree 48 7": "5abd9a832c6ef991c81562d9dc808af947a069f97a1861f64b7be7783216f7e1",
    "construct monitoring-tree 7 3": "ba490b609a58fc204e1fab29560f9eadfc2f0cbf8a226cfd3718dfa3619a3235",
    "construct monitoring-tree 8 10": "e6528a5047fff4da18383af8865488769899253ad8d1240f96af8438121c5b75",
    "construct monitoring-tree no dmax": "b9d1d3df84ec8a674b62110147d2df580a8e2ca44bd2636687e8bb6f06008fbe",
    "experiment bound_sweep": "4a7eee714f968fa8849672a5290977b55aa24344656952c22e069ae77e1d2147",
    "experiment bound_sweep no scenarios": "fb6c0b62a2aeba238d5418a95d476e08a731313dfa077ef076c0c67f5cb2eddc",
    "experiment fat_tree_id": "2e388a22c3b4202b7c2fc01e806241ca0c9574d64c11e26cdd516cc871f39513",
    "experiment fat_tree_id pairs": "6d905c1c82967776877ac7a9cf78c98773f91cbcd7a6dcacfe44275da54ce5b2",
    "experiment random_placement": "f39788505c00024fdad5abe224ce754deef36076e9b7c2e989c9de4da9919b0a",
    "experiment random_placement dmax": "7d3397a968e70b196b99fdf7229ab7f0a3d0e09c14edc507fee7e84bfe5b9616",
    "experiment random_placement dmax skips": "0edffba2de91877332f7cb1abc58f548b4c79703d40a7d6a2a122621ec6e915d",
    "experiment random_placement grid dmax": "8d61f633fd5008fea0e5ade226508718064724cbe4795b97dd2766a99da189e6",
    "experiment random_placement server": "e8766b30076b52fc054117ee5f4d9c1a1e7e8aed3ff26c7bcde5c8114cab3ee4",
    "experiment random_placement server dmax": "f13b63a74ff96df971db1f13eff1f9e854126a6fe729dfbfefbca6a42ebe52b6",
    "experiment random_placement split": "4f76963f5c327ba7c3f3bae34c7b8f90d9fbcd1317107d42cbd633f03862b146",
    "experiment random_placement split dmax": "beaeb029fcff1bc5f8f4f09e051e454299249fc2361311a4d9d36ffa9067cf34",
    "experiment tightness": "2f40254162b62d8b304d4e6cbdf4e8482c8f895c9b6c3e1f1670314ff15770f6",
}


def case_digest(name: str, tmp_path: Path) -> str:
    """Run one case in a fresh directory under ``tmp_path`` and hash what it did."""
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    for file, text in INPUTS.items():
        (in_dir / file).write_text(text, encoding="utf-8")
    argv = CASES[name].format(**{"in": in_dir, "out": out_dir, "fixtures": FIXTURES}).split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("ignore")
        warnings.simplefilter("always", UserWarning)  # the program's own warnings
        code = main(argv)

    def normal(text: str) -> str:
        for where, tag in ((out_dir, "<out>"), (in_dir, "<in>"), (FIXTURES, "<fixtures>")):
            text = text.replace(str(where), tag)
        return text

    record = {
        "code": code,
        "stdout": normal(stdout.getvalue()),
        "stderr": normal(stderr.getvalue()),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": {
            str(p.relative_to(out_dir)): normal(p.read_text(encoding="utf-8"))
            for p in sorted(out_dir.rglob("*"))
            if p.is_file()
        },
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    assert case_digest(name, tmp_path) == DIGESTS[name]

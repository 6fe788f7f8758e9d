"""Byte-stability of the reduction's two files: instance text and witness text.

The sha256 of serialize_instance and witness_to_text is pinned for ten
seeded formulas of each benchmark workload shape (planted n=12, m=24 at
r=4; random n=16, m=69 at r=2; no padding) and for the padded n=20, r=5
Baseline row. A change to the clause split, enumeration order, set order,
the element layout or either grammar changes a digest; a deliberate change
updates them and says so in CHANGES.md. Each case also builds the instance from the
parsed witness text alone (build_instance) and checks it against the pinned
instance digest, so the witness file carries everything the instance is.

Each case also pins the instance with its grid replaced by the paper's
uniform r*r grid (test_reduction.uniform_instance), which the grid cut to
the pairs of groups that share a variable changed in nothing but the grid
IDs. A case keeps the name it was first collected under, so a deliberate
digest change keeps the test names.
"""

from __future__ import annotations

import hashlib

import pytest

from cspack import bench, packing, reduction
from test_reduction import uniform_instance


def digests(formula, r, dull_width=None):
    """sha256 of the instance text, of the witness text, of the instance built
    from the witness text alone, and of the instance under the paper's grid."""
    instance, witness = reduction.reduce_to_packing(formula, r, dull_width=dull_width)
    witness_text = reduction.witness_to_text(witness)
    rebuilt = reduction.build_instance(reduction.witness_from_text(witness_text))
    texts = (
        packing.serialize_instance(instance),
        witness_text,
        packing.serialize_instance(rebuilt),
        packing.serialize_instance(uniform_instance(instance, witness)),
    )
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


# (seed, paper-grid sha256, witness sha256, instance sha256)
SPARSE_PLANTED = [
    (0, "a58dd0fb83237c69ed5bef19470926bf4879cd59e51a8e82280e6b827b69a347", "3c294077ddc9797956341f96f43d58e35e1cff40680809f642299c451cd9e4a4",
     "aab2aede46f5f9725f6ab02ece510aa33d2ab695c47f253a986f9dce4a2563fa"),
    (1, "feaf5d720211541ae1cec5a3bf1e6ffe6c7012dde46d1ceeceaf06f251f54d8c", "36b2cbfa4d8412b1aa49041c22d8e69e14b3054cdf4db7d32a4f96080c68c01b",
     "4dccb756ecb2a7631f2a1a2509faa9578c9056eae6d384ed6dc3a6d8d647e136"),
    (2, "c8c0b73a48fb0ab1aac6ea181f3a21aba03d0e2bea4c4c4196b2a26f36a7a681", "1051a187cd2376b20409d0d7ed458dbd3a6cec8ee7311f42dd925e9aa5b54d99",
     "82e218989002c4e576127dec0da31dacbe87364e6583b08ab0ee46453471affa"),
    (3, "9e7228ad4a7441d07aaf62fda6093176ca94b207fdd2b1340bc56ec7e460afcd", "f7200012a7a54f4ee5756a41ddc040e4c7a5276aca880f49fa246ec0fa3c0635",
     "667d5324f55dcd83889213460b84a3705ff30a0e9855eebc1c1644e35fc474eb"),
    (4, "57ba6c4923b7c783c7c91217154e7fc54f76821ff26f1550fccb6557b79774b4", "cfa977d5f826402dc555032e45a0b6f580cf17266813c71dc54719270180049a",
     "ef8079fb23c4ac576938588055470ad7ad09c67a690c1b14de73c6d1a8fa0cb6"),
    (5, "86e395280fde25329b0c030466823ed9c9df107139497932514c2dcbbaa20521", "09cd5db62163b1d5e6b049a0cd3a3fae351c825d46da291bdd92484346f8197c",
     "40effb0866493fd6ff6176e5be9db63f70dea18bfe959228b5ace540a77142de"),
    (6, "e2c7e171f1f8b7dd6075ec010853a9178625ece72096cf81c75665f71f607d48", "fb79db3298f058e95936fbb1f0beba42385dc5ce0b2f609aaaced2d1a02f84e3",
     "efde5d68fe998ad287b55d5b766767aefd8e27edc9a1fbd436ffd81dd5246d8d"),
    (7, "647a0ba238d4e475c023dcc97b549666cc9ec2b29d64405c69098da24417e680", "f03eb83d0d6d5de9a51e1904de59eb1eaa2d487dd51dd308dfea4d08bded44fa",
     "5f8e88585e79e8ec3768eeb0fe4ff52b410adb07561af9d9f759fb63c1fdaeea"),
    (8, "4d79339f6ac6920828b94966bf0c2cb995f235698752443d4385d82a2bee00b9", "7fbdf18e7ce924b830c11ecf58ce51db96b20f6fe5dc05e6b6c0a5510a0f2b5d",
     "3d7ce8c44f5ae26adac7a9e54ac18500c01d1127559ab108a94bcd0b55e59754"),
    (9, "a216ebcc05b13cd447a76400cb72514cc0a18cb88f99b38c01175ea29a3c7893", "496765aa087497571b7a3ad5df652c71931acba07441ef20ef7c3c40dacdd0fd",
     "7788a2e3d99adf2abe1af76af738100fd79b8c2340bcbbdfcf3a5e9923c58ba9"),
]

DENSE_RANDOM = [
    (0, "4199553cf10e913bd2bbd0990ce02887ebbebe3960117741fbb8cb1629aec460", "274b84efd2bae1eb3603d8c06985e4efcc5831a7161d8a72c3fbf305a8b3dcc3",
     "1e169d5f9db7b39090ff48e95c2fb134bccd59a0237dd38ca8fc7f62b945576d"),
    (1, "b3946ae20012add66ce6f2db7c04800d666c2a8d274c8f232a0176c74b64a9c8", "a136cc11ee11dc5f8bfc92a1dab12bd68b38048029f8ef1c526080d707a7f287",
     "b4e95c4991a37ae5bcc8b68cdd3e51763b3ec4794af97e7da7d482fc55679eee"),
    (2, "fbe6f5de6fe04a6ebb6d6d58c63e3288ac3869343d7dc0b005af6dd35ee1b2db", "a6fde5d1a23eb97c974615e8b55fe49fe8f4e0b178e6f92156532bbb147dff75",
     "0287cf6ab1c66842ecdb81753fdf1a453d6e2c3644e7c6ecb0d5cdd165b0edfc"),
    (3, "81e116a371f44a23ffb73c8351405207bd73b8f4ffbdb08262764041519fd324", "dd2bf51f7e69cfd793acf3c1485f19b4cccd766be72a2bbb7b40fd8d02cf4979",
     "3ad392e4f621ad4e9c09de422f8f06c4e6334363cffe8ba98889736cb14e2e9a"),
    (4, "b36d31324430512d299ea6ec10c69686f82d47de6863a7826ed2ded1cf9dd3e1", "ee3cb852df20c3a63a96d84824bdf7fba9770ba8e8c1e7afb79c440e43d4b760",
     "70b5bd3749334a369ad1eeaf3a0458140fb4606076493268dbda952626b21c9f"),
    (5, "115cd88c72c276ba0d0c573afd9fdcae9081c349840234eda55c90628a4f9cf5", "ed2f644d3f45f8da06c0b10981d586a7c38476dc0a05f0afdb15f037ec96dcc5",
     "ed8f2a1e2c03cb95400536f5b03959d7e2deac293788add0a666e7e4af2e8205"),
    (6, "6be878977265910088cac96428347b001ee95d6c0d02469965ca8a642966c1dc", "c7558910f678af19689c33822b0de9c9738b1786dff1fca0658ee4fc00abc5c0",
     "34c06f9ee2650ced26932d52996aa3fccd0252caf06c7b4214381c42eeaa2e4c"),
    (7, "54e479a08ea7888ab4815a8dcae91de77fb192602dd8a4a2439343b046877b4e", "dae80f81f382c6c6a6d43b902a1c84ca5d9f007df6676275ecba011c7a6497df",
     "dbfc17db2f0e42d1e4cb16feb0c9ff2a883e0c4307621b8034bb0a43f1f08e83"),
    (8, "1de3d6d1d7142a8f83da8d357d04eed12fba70e754d8269ecb284a8ec04e82d0", "6948109e1ce4d9e73a3d5bca9fa8e788fb56ac0bb4d17e1230c78f88f261fc57",
     "dede890e942be197533339cebb6ea7f48022df81b98ae3d7993e4bf6901e0021"),
    (9, "21cc6cce68698fd41c0784325e5004a419fdd4b8279dcd58174d64ca97369a56", "9af2a6e47d9a73c92fcc6a36c5fed31f91795c9bee1212fe5693f6ce64597eae",
     "b0fc485f86aed3b654094e88ad8dbd3ddedfe336db5b059006c4cc7c46942552"),
]


# Case names: the ID each case was first collected under, its seed and the
# paper-grid, witness and instance digests of the round-robin clause split.
# The digests above change on purpose with the split; the names do not.
SPARSE_PLANTED_IDS = [
    "0-f46d563c1063e3f6e19b80cf66bf8e58927e16f50393f86b867b7bdacfe5c1b2-b5a9034b7c3de3dfa608ec35a253022bc94804dc8d49cc5c91cacffd6687e964-b45b1dc8d4c73c32695a75ff46685c5238c950d7f810028fa469939d15f9e681",
    "1-1518f0b26b810c9badb161eb3f22f3ab4576687aadbd3f5be078d50f6287a394-7144336a2449e1fea388fe315d0b85f2baa372496a40f8c3ec1f54d056465a9b-0474d6ec288b105b5ee9a99e086cd0830308ed722816c2d7784524117dd52b67",
    "2-6c9039becf85e2593a9fc3b9297f16746f1cd670d1cf2491728c47c6945ac8e5-cedea5577d81326a7d2127b076e41f942d18b75961f0aea88939b745c7a0c316-082ac0e450ec891166b04d8a2c8d76dbefaa0dd0aa6e4d780cee4c7b7ccb8297",
    "3-0dadea5b1b2100ca8d59d3e70df3a6a9e29ae557b00d905b21a44c2e52abfc6e-917bd713ba9f62d1135b6dc20a9d844d523523494651a96b3d5a316645ca433a-2b9bd132162378d496e6814b022fc3895a6b112c2f36ad1ec378b88264926dd8",
    "4-516e60c28272c02104d5261412a20a3ff760bc541fd0721ab0338da090730888-0dfa3168a6783aafb8be0ae65f2b1f4d851da3f8227d45779fbad693e3bd6759-791d004a128e87c6067717a3f10bbc8e45e601e901ce6e45c457a1fcf2e6517c",
    "5-f133a24098f5e1fadb0167dcb42316c5bec56c62a15f0f92ddd66a08975095ed-551eb0565c2e3d854e7fa031fe01f459d3e4c525cc00bc5f411c4d044512f174-69d71fabd4f7f1bc777b78140de23812ca4baca171205ac63e61e905b7da368e",
    "6-bc6f1f92080577b8d902873d8218760f2028d2561475340f9e94db55088f6dec-5071cbc42719ebc544d7096ab392420794166f6e3056fee8db610b4dbd4014f5-bfe8669641cbe17b933519e8ab33f91ed610cee0ea9b15607b343b6a86a10522",
    "7-9bbe455e6abe559a2db5623cb3f8b5bf83ea6b077f994985c50c99fc68705ddc-1aeabb00a1f467893c33db425d8d2f49cf8a9a081f5a7272dcc02c921eaeeb08-71a24d66e299b2538c603bc4a475277ca268027ac3650948fd68a85564b318cc",
    "8-163a09e2ce3a28c9ca91a1051d06a22070ef0136177bdf26a5dccb97390331f8-d398a386d45b817fc54dd1778da4b45d84e8feca6b3aecc29427c5a455cdf084-bb3271d4ed58396f93bc3720bd448fb5ac66db4d3523bb7b0b4712148ac0f08b",
    "9-6ccc4c2288dbe7d53c65910c51338081b4b10cdafbde5c587743a57a4108905b-963c45a28ad689bf2f53f7c335d0a9aa3b468570bb04a1406cbab2a5fe5f96de-bd47c55c7af7cb8692ff93b9958e588c743dc279e3e089031f6ecccab70e5101",
]

DENSE_RANDOM_IDS = [
    "0-3ed4d0414a0fa9f78c7aa34bd7ac284f42d9a338f568a686e2f0d275c2d19003-3a9fc7d65933c3625dba376bbf17eed36805c890735d380d0f81209d1ad13d50-80bdcd829136e3ded6f0764032905c9fae8c0b2e1f535cc11f15b18078180f35",
    "1-801b45b06ec44fd72999cde0021316356613f1f9ddc8674234a8dc1064b1eee2-6ad3a45a548153c5023276e5cabb60003550ea7363d1428c60673886e2c8405f-e8149d406522d53a1f34c250d20292eea3b4cef533db75179ca5cbb6e779361c",
    "2-9a7b35ff558c0dc6fd91f09485da44c4e65bd27ebcb0b974b2714fed696e1ccd-28ea4e1f127fbda24415e4a196acef45e93286ea38013da9d79a699e5e2a35e9-fee44eb2c4ceed756c3a8a05b03124154d219c36492e31d980e811c8a6d53617",
    "3-36f623686b91ee0f960943a0e2e6557cd5d7a8f5baa412af041ce9d0cc0d91ae-daea92134f5691417b8d955d538abfe07b0cf8f160eb1bdadc4eae5fef0f1247-ab779205ee5f96bd88e5fb0f232342beef5c881bbbab42ab7c284227c06920ef",
    "4-ba3bcd9ca18de53ca24a690a26a9f875aafce012f5ac7ceca2a6233188cd520d-3008f271bf34e08b2286a9e4a2118747c0683825a9e3277f598e0a5142128ad3-b0d768ca1db655fd8fb765db49ff70f7f446c0ae8664d6927f367aed13f079b8",
    "5-769b0e9d59ad1689de4e0d8461ee44d237c92891aaccdf0216bbdfe3ca42b5fa-9d73965c03d1ab1c5de519f7817246544e6161e473d6b84fe3e57e5a04129c8f-42fdf99689a103ad074e39f689d244a562ba65d0822cb57131e3026b081ee603",
    "6-2e2beab573c6f1a2023c8a30450238311cb6ce753543433a45eaea637fcbf13b-e32ea5ee7060aad16addbb73cfa1d22d67cc842fd7b345287b2cc62cfce35fbb-ca05995dbc7f55dae0a8755172c8105ac6207fbf3237fd18ad3676c4ce7c21e2",
    "7-9ca9c39cf5c82c06d2d7c3515eae89da0fcd642ccaccc354021a9586d2ad2d09-22251e62929f0b585ea648fd9792406251de7b6869425c3c8191de1dd8b9f317-787e969ce0d6649b774718cac9ca17f100d4683c4734f9fd1e64c4b9b46f4b4f",
    "8-849d3a7becf35401f4ca2828242dd9218e162c06e87a8da60edffa92710961a8-627f778bb161bae70478d19654132b9f08ca4d0d32e1bbbda123942e299aaa33-4e0d9680b1bbc6ee95c4d1d4bf99196cbdb18b29a79cab1d76a330494728a09f",
    "9-af981e362193a625e9bc7bf9e1985e13c31b2e8c02a3e3fbabf39373192ae783-a668fb828ed10180994926a9f9403ab1402c29f6699ca808d24d30bcb909ed5d-3cda442c1ff5f7c4d2a31db0f75047538252a7224ca268f7a4cc1887eae53093",
]


@pytest.mark.parametrize("seed, paper_sha, witness_sha, instance_sha", SPARSE_PLANTED, ids=SPARSE_PLANTED_IDS)
def test_sparse_planted_bytes(seed, paper_sha, witness_sha, instance_sha):
    expected = (instance_sha, witness_sha, instance_sha, paper_sha)
    assert digests(bench.make_formula(12, 24, seed, True), 4, dull_width=0) == expected


@pytest.mark.parametrize("seed, paper_sha, witness_sha, instance_sha", DENSE_RANDOM, ids=DENSE_RANDOM_IDS)
def test_dense_random_bytes(seed, paper_sha, witness_sha, instance_sha):
    expected = (instance_sha, witness_sha, instance_sha, paper_sha)
    assert digests(bench.make_formula(16, 69, seed, False), 2, dull_width=0) == expected


def test_padded_baseline_row_bytes():
    # Default padding width d = 10: 2,603 sets, 1,024 of them padding.
    assert digests(bench.make_formula(20, 40, 7, True), 5) == (
        "f16e4b04b0c0107d52525578cdaa068229ad04c18b1c88fcbc9d9e65224c0007",
        "a0160707e3acb7f879df2c44459b9a5d0a514845897b641f78374f998998a72c",
        "f16e4b04b0c0107d52525578cdaa068229ad04c18b1c88fcbc9d9e65224c0007",
        "2d2a6c1ac58dd74d7a4826dfda96611666b4c32a1236be1968c29d30e8e1aab1",
    )

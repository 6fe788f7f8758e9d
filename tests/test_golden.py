"""Byte-stability of the reduction's two files: instance text and witness text.

The sha256 of serialize_instance and witness_to_text is pinned for ten
seeded formulas of each benchmark workload shape (planted n=12, m=24 at
r=4; random n=16, m=69 at r=2; no padding) and for the padded n=20, r=5
Baseline row. A change to enumeration order, set order, the element layout
or either grammar changes a digest; a deliberate format change updates them
and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from cspack import bench, packing, reduction


def digests(formula, r, dull_width=None):
    instance, witness = reduction.reduce_to_packing(formula, r, dull_width=dull_width)
    return tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (packing.serialize_instance(instance), reduction.witness_to_text(witness))
    )


# (seed, instance sha256, witness sha256)
SPARSE_PLANTED = [
    (0, "f46d563c1063e3f6e19b80cf66bf8e58927e16f50393f86b867b7bdacfe5c1b2", "2ca69ab9dd2712a51d8b3396fde5e39e080cf50112c0b739eac8feddc35e5ad7"),
    (1, "1518f0b26b810c9badb161eb3f22f3ab4576687aadbd3f5be078d50f6287a394", "69991e0f3b10e2aff5451816bf108f21935571fd7b1b1afdae37a753cd70bb6d"),
    (2, "6c9039becf85e2593a9fc3b9297f16746f1cd670d1cf2491728c47c6945ac8e5", "22420ec913e124b3b7788ca52c6e8a6f76e4781d7c46ca1835553329476f39e9"),
    (3, "0dadea5b1b2100ca8d59d3e70df3a6a9e29ae557b00d905b21a44c2e52abfc6e", "7ca3f85cbde756d4589793945c17529d6ca0bfcbaa412c415fdbd41d9e037409"),
    (4, "516e60c28272c02104d5261412a20a3ff760bc541fd0721ab0338da090730888", "3b55b9d4e52281e570737df0a6d706bb26fe49f80079f8ce1d9086dff43c56f3"),
    (5, "f133a24098f5e1fadb0167dcb42316c5bec56c62a15f0f92ddd66a08975095ed", "854401027a73360c57cab1ca939aa1c331a34a9eeb03d5551e6aadae53e1baf8"),
    (6, "bc6f1f92080577b8d902873d8218760f2028d2561475340f9e94db55088f6dec", "a3fc1a23007b668bb8e3fb124a8c57526b2fd843c731b31d706ba056a816ae90"),
    (7, "9bbe455e6abe559a2db5623cb3f8b5bf83ea6b077f994985c50c99fc68705ddc", "82d5c9ced754f559e0a53616abd462a78da55d23098671f7afb0896086457276"),
    (8, "163a09e2ce3a28c9ca91a1051d06a22070ef0136177bdf26a5dccb97390331f8", "fcb284830e6cf85dc5f42b0b3e04f0dac4bd2ab6a404ccd38fd2641c71dbf158"),
    (9, "6ccc4c2288dbe7d53c65910c51338081b4b10cdafbde5c587743a57a4108905b", "6b1f56681a67e984cc4ae108169b2c44011c0f85f920b91b767f19aa0e379b21"),
]

DENSE_RANDOM = [
    (0, "3ed4d0414a0fa9f78c7aa34bd7ac284f42d9a338f568a686e2f0d275c2d19003", "bcf8081da269f54aea5e8777d6cfa730a950ce760c63b6e87209b59495a36898"),
    (1, "801b45b06ec44fd72999cde0021316356613f1f9ddc8674234a8dc1064b1eee2", "b9b0476b97a3415fdc09446aefb3b50c40ac335138f8ae06a75b4f17546c32cc"),
    (2, "9a7b35ff558c0dc6fd91f09485da44c4e65bd27ebcb0b974b2714fed696e1ccd", "849c35c5c84157a896e3a5843bf5f26c251a65b13efc410ea5cdb853dd199b79"),
    (3, "36f623686b91ee0f960943a0e2e6557cd5d7a8f5baa412af041ce9d0cc0d91ae", "04e71495fcf431f3107b80eee39879acbd4744d6884273a9d4a1e182172e0994"),
    (4, "ba3bcd9ca18de53ca24a690a26a9f875aafce012f5ac7ceca2a6233188cd520d", "d20ef8e2739dc7694609167d556a1c582c4ad81539a39a505fd049e3eb0f2489"),
    (5, "769b0e9d59ad1689de4e0d8461ee44d237c92891aaccdf0216bbdfe3ca42b5fa", "54f86b77302069b958afd6fee22e578f2879c03414189c63ee97dc429bce1b05"),
    (6, "2e2beab573c6f1a2023c8a30450238311cb6ce753543433a45eaea637fcbf13b", "d2379c3aaca4b0a5eb26d2088cbbfd1d0b9076ae4ab346925e60f1f96dbd152e"),
    (7, "9ca9c39cf5c82c06d2d7c3515eae89da0fcd642ccaccc354021a9586d2ad2d09", "eab5661fc04c918f3dfbafd9704f708845274a8d027fb6ed5a2cfbb8e2a0885d"),
    (8, "849d3a7becf35401f4ca2828242dd9218e162c06e87a8da60edffa92710961a8", "cdfd0500fa1fd135a7b45c8a09aead2f70a3cba203f9b4af9508211f1671e083"),
    (9, "af981e362193a625e9bc7bf9e1985e13c31b2e8c02a3e3fbabf39373192ae783", "007fd246540b8a71dbce581d990dbf8c11d0ec4db702b0d44e5b76e3e26ac23c"),
]


@pytest.mark.parametrize("seed, instance_sha, witness_sha", SPARSE_PLANTED)
def test_sparse_planted_bytes(seed, instance_sha, witness_sha):
    assert digests(bench.make_formula(12, 24, seed, True), 4, dull_width=0) == (instance_sha, witness_sha)


@pytest.mark.parametrize("seed, instance_sha, witness_sha", DENSE_RANDOM)
def test_dense_random_bytes(seed, instance_sha, witness_sha):
    assert digests(bench.make_formula(16, 69, seed, False), 2, dull_width=0) == (instance_sha, witness_sha)


def test_padded_baseline_row_bytes():
    # Default padding width d = 10: 50,120 sets, 1,024 of them padding.
    assert digests(bench.make_formula(20, 40, 7, True), 5) == (
        "f92cb733ac0643417bc5581e0a3a43d812efe1c8c07f78a69c1e6fc3c0a30eb7",
        "c0929595ce3b907adab917c09a95b28c75397d73782e3c8a1379dc5a213e4333",
    )
